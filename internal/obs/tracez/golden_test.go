package tracez

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"canvassing/internal/obs"
)

var update = flag.Bool("update", false, "regenerate the tracescope fixtures and golden files")

// goldenPhases is the phase-span forest of a small fixture study.
// Variant "b" is the same study after a perf shift: the control crawl
// slowed down and the analysis sped up, so the diff shows wall
// attribution moving between phases.
func goldenPhases(variant string) []obs.SpanRecord {
	base := time.Unix(3000, 0)
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	crawlDur, analyzeStart, analyzeDur := sec(5), sec(5), sec(2)
	if variant == "b" {
		crawlDur, analyzeStart, analyzeDur = sec(8), sec(8), sec(1)
	}
	return []obs.SpanRecord{
		{ID: 1, Name: "crawl.control", Start: base, Duration: crawlDur,
			Labels: map[string]string{"machine": "intel"}},
		{ID: 2, ParentID: 1, Name: "webgen", Start: base, Duration: sec(1)},
		{ID: 3, Name: "analyze", Start: base.Add(analyzeStart), Duration: analyzeDur},
		{ID: 4, Name: "crawl.abp", Start: base.Add(analyzeStart + analyzeDur), Duration: sec(4)},
	}
}

// goldenVisit builds one deterministic exemplar tree the shape the
// crawler emits: connect, then a script with fetch/parse/exec (and a
// canvas accounting child). Every i*... wall below is a fixed function
// of the index, so the fixture bytes never drift.
func goldenVisit(cond string, i int, faulted bool) *VisitTrace {
	w := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	connect := &Span{Name: "connect", Off: 0, Wall: w(5 + i%3), Cost: 1}
	if faulted {
		connect.Cost = 3
		connect.Labels = map[string]string{"fault": "flaky", "retries": "2"}
		connect.Wall = w(40)
	}
	exec := &Span{Name: "exec", Off: connect.Wall + w(15), Wall: w(20 + 5*(i%4)), Cost: int64(1000 * (i + 1)),
		Children: []*Span{{Name: "canvas", Off: connect.Wall + w(15), Cost: int64(i % 5)}}}
	script := &Span{Name: "script", Off: connect.Wall, Wall: exec.Off + exec.Wall - connect.Wall,
		Labels: map[string]string{"url": fmt.Sprintf("https://cdn%d.example/fp.js", i%3)},
		Children: []*Span{
			{Name: "fetch", Off: connect.Wall, Wall: w(8), Cost: int64(2048 + 100*i)},
			{Name: "parse", Off: connect.Wall + w(8), Wall: w(7), Cost: int64(2048 + 100*i)},
			exec,
		}}
	root := &Span{Name: "visit", Wall: script.End() + w(2), Children: []*Span{connect, script}}
	outcome := "ok"
	if faulted {
		outcome = "degraded"
		root.Labels = map[string]string{"degraded": "fault"}
	}
	vt := &VisitTrace{
		Kind: KindVisit, Condition: cond, Domain: fmt.Sprintf("site-%04d.example", i),
		Rank: i + 1, Index: i, Outcome: outcome, Cost: root.TotalCost(), Wall: root.Wall, Root: root,
	}
	return vt
}

// goldenReservoir fills a reservoir the way a run would: visits in page
// order per condition, then the analysis batch spans. Variant "b"
// doubles the exec cost of the tail visits so the slow set and the cost
// means shift.
func goldenReservoir(variant string) *Reservoir {
	r := NewReservoir(1, 4, 4)
	for _, cond := range []string{"control", "abp"} {
		for i := 0; i < 12; i++ {
			vt := goldenVisit(cond, i, i == 11 && cond == "control")
			if variant == "b" && i >= 8 {
				vt.Root.Children[1].Children[2].Cost *= 2
				vt.Cost = vt.Root.TotalCost()
			}
			r.Offer(vt)
		}
	}
	bt := &VisitTrace{
		Kind: "batch", Condition: "analyze.control", Domain: "shard-0000", Index: 0,
		Outcome: "ok", Cost: 37, Wall: 12 * time.Millisecond,
		Root: &Span{Name: "batch", Wall: 12 * time.Millisecond, Cost: 37,
			Labels: map[string]string{"pages": "12"}},
	}
	r.Offer(bt)
	return r
}

func writeFixture(t *testing.T, dir, variant string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, obs.TraceFile))
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, rec := range goldenPhases(variant) {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := WriteExemplars(filepath.Join(dir, ExemplarsFile), goldenReservoir(variant)); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted (got %d bytes, want %d).\n--- got ---\n%s\nRe-run with -update if the change is intentional.",
			path, len(got), len(want), got)
	}
}

// TestTracescopeGolden pins the tracescope single-run report and the
// two-run diff against committed fixtures: a fault-injected study
// (run_a carries a degraded, retried visit) and a perf-shifted variant
// (run_b). Every wall time in the fixtures is a fixed constant, so the
// rendered bytes are fully deterministic — no masking needed.
func TestTracescopeGolden(t *testing.T) {
	fixA := filepath.Join("testdata", "run_a")
	fixB := filepath.Join("testdata", "run_b")

	if *update {
		writeFixture(t, fixA, "a")
		writeFixture(t, fixB, "b")
	}

	a, err := LoadRunDir(fixA)
	if err != nil {
		t.Fatalf("%v (run with -update to create the fixtures)", err)
	}
	b, err := LoadRunDir(fixB)
	if err != nil {
		t.Fatal(err)
	}

	report := RenderReport(a, 6)
	checkGolden(t, filepath.Join("testdata", "report.golden"), report)
	// The fault-injected visit must surface with its flags in the slow
	// table — the acceptance check golden bytes alone wouldn't explain.
	for _, want := range []string{"fault=flaky", "retries=2", "degraded", "crawl.control"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	diff := RenderDiff(a, b)
	checkGolden(t, filepath.Join("testdata", "diff.golden"), diff)
	for _, want := range []string{"Largest attribution shift", "Critical path A", "Condition stream delta"} {
		if !strings.Contains(diff, want) {
			t.Errorf("diff missing %q:\n%s", want, diff)
		}
	}
}
