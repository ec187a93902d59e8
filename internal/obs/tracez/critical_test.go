package tracez

import (
	"bytes"
	"testing"
	"time"

	"canvassing/internal/obs"
)

const ms = time.Millisecond

// span is a test shorthand for a literal tree node.
func span(name string, off, wall time.Duration, children ...*Span) *Span {
	return &Span{Name: name, Off: off, Wall: wall, Children: children}
}

func phaseByName(rep Report, name string) PhaseStat {
	for _, p := range rep.Phases {
		if p.Name == name {
			return p
		}
	}
	return PhaseStat{}
}

// TestAnalyzeSelfTime: self-time is wall minus the union of child
// intervals, so gaps the children don't cover land on the parent.
func TestAnalyzeSelfTime(t *testing.T) {
	// visit [0,100): connect [0,10), script [10,90) — the last 10ms is
	// the visit's own bookkeeping.
	root := span("visit", 0, 100*ms,
		span("connect", 0, 10*ms),
		span("script", 10*ms, 80*ms,
			span("fetch", 10*ms, 20*ms),
			span("parse", 30*ms, 10*ms),
			span("exec", 40*ms, 50*ms),
		),
	)
	rep := Analyze([]*Span{root})
	if rep.Roots != 1 || rep.Wall != 100*ms || rep.CriticalWall != 100*ms {
		t.Fatalf("totals wrong: %+v", rep)
	}
	if got := phaseByName(rep, "visit").Self; got != 10*ms {
		t.Fatalf("visit self = %v, want 10ms", got)
	}
	// script's children cover [10,90) completely — zero self.
	if got := phaseByName(rep, "script").Self; got != 0 {
		t.Fatalf("script self = %v, want 0", got)
	}
	if got := phaseByName(rep, "exec").Self; got != 50*ms {
		t.Fatalf("leaf self = %v, want its wall", got)
	}
	// Phases sort wall-descending: visit first.
	if rep.Phases[0].Name != "visit" {
		t.Fatalf("phase order: %+v", rep.Phases)
	}
}

// TestAnalyzeParallelism: overlapping children push ChildSum past
// ChildUnion; serial children keep the ratio at 1.
func TestAnalyzeParallelism(t *testing.T) {
	par := span("batch", 0, 100*ms,
		span("work", 0, 60*ms),
		span("work", 30*ms, 60*ms), // overlaps [30,60)
	)
	rep := Analyze([]*Span{par})
	p := phaseByName(rep, "batch")
	if p.ChildSum != 120*ms || p.ChildUnion != 90*ms {
		t.Fatalf("child sum/union = %v/%v", p.ChildSum, p.ChildUnion)
	}
	if got := p.Parallelism(); got < 1.33 || got > 1.34 {
		t.Fatalf("parallelism = %v, want ~1.333", got)
	}
	// batch self: 100 - union(0,90) = 10ms.
	if p.Self != 10*ms {
		t.Fatalf("batch self = %v", p.Self)
	}

	serial := span("batch", 0, 100*ms,
		span("work", 0, 50*ms),
		span("work", 50*ms, 50*ms),
	)
	if got := phaseByName(Analyze([]*Span{serial}), "batch").Parallelism(); got != 1 {
		t.Fatalf("serial parallelism = %v, want 1", got)
	}
}

// TestCriticalPathDescent: the path walks from the longest root through
// the child that finishes last at each level — the chain gating the
// end-to-end wall.
func TestCriticalPathDescent(t *testing.T) {
	short := span("visit", 0, 20*ms)
	long := span("visit", 0, 100*ms,
		span("connect", 0, 30*ms), // ends 30
		span("script", 10*ms, 85*ms, // ends 95 — gates the visit
			span("exec", 20*ms, 70*ms), // ends 90
		),
	)
	rep := Analyze([]*Span{short, long})
	if rep.CriticalWall != 100*ms {
		t.Fatalf("critical wall = %v", rep.CriticalWall)
	}
	want := []string{"visit", "script", "exec"}
	if len(rep.CriticalPath) != len(want) {
		t.Fatalf("path = %+v", rep.CriticalPath)
	}
	for i, step := range rep.CriticalPath {
		if step.Name != want[i] {
			t.Fatalf("path[%d] = %q, want %q", i, step.Name, want[i])
		}
	}
	if rep.CriticalPath[1].Wall != 85*ms {
		t.Fatalf("path step wall = %v", rep.CriticalPath[1].Wall)
	}
}

func TestAnalyzeEmptyForest(t *testing.T) {
	rep := Analyze(nil)
	if rep.Roots != 0 || rep.Wall != 0 || len(rep.CriticalPath) != 0 {
		t.Fatalf("empty forest report = %+v", rep)
	}
}

// TestBuildForest reconstructs parent/child structure and root-relative
// offsets from flat tracer records.
func TestBuildForest(t *testing.T) {
	base := time.Unix(1000, 0)
	recs := []obs.SpanRecord{
		{ID: 2, ParentID: 1, Name: "crawl", Start: base.Add(10 * ms), Duration: 50 * ms},
		{ID: 1, Name: "run", Start: base, Duration: 100 * ms},
		{ID: 4, Name: "report", Start: base.Add(100 * ms), Duration: 5 * ms},
		{ID: 3, ParentID: 1, Name: "analyze", Start: base.Add(60 * ms), Duration: 30 * ms},
	}
	forest := BuildForest(recs)
	if len(forest) != 2 || forest[0].Name != "run" || forest[1].Name != "report" {
		t.Fatalf("roots = %+v", forest)
	}
	run := forest[0]
	if len(run.Children) != 2 || run.Children[0].Name != "crawl" || run.Children[1].Name != "analyze" {
		t.Fatalf("children = %+v", run.Children)
	}
	if run.Children[0].Off != 10*ms || run.Children[1].Off != 60*ms {
		t.Fatalf("offsets = %v, %v", run.Children[0].Off, run.Children[1].Off)
	}
	if run.Off != 0 || forest[1].Off != 0 {
		t.Fatal("roots must sit at offset zero")
	}
	// An orphan (parent id never finished) becomes its own root.
	orphan := BuildForest([]obs.SpanRecord{{ID: 9, ParentID: 5, Name: "stray", Start: base, Duration: ms}})
	if len(orphan) != 1 || orphan[0].Name != "stray" {
		t.Fatalf("orphan handling = %+v", orphan)
	}
}

// TestWriteFolded pins the folded-stack format: summed identical
// stacks, sorted lines, self-time (not wall) as the value, and the
// optional condition prefix frame.
func TestWriteFolded(t *testing.T) {
	forest := []*Span{
		span("visit", 0, 100*ms,
			span("script", 0, 90*ms,
				span("exec", 0, 40*ms),
				span("exec", 40*ms, 40*ms), // same stack — must sum
			),
		),
	}
	var buf bytes.Buffer
	if err := WriteFolded(&buf, forest, ""); err != nil {
		t.Fatal(err)
	}
	want := "visit 10000000\nvisit;script 10000000\nvisit;script;exec 80000000\n"
	if buf.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", buf.String(), want)
	}

	buf.Reset()
	if err := WriteFolded(&buf, forest, "visits;control"); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("visits;control;visit ")) {
		t.Fatalf("prefix frame missing:\n%s", buf.String())
	}
}
