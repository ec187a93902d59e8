package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock advances a deterministic amount on every read so span
// durations are predictable in tests.
func fakeClock(step time.Duration) func() time.Time {
	t0 := time.Unix(1_700_000_000, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * step)
	}
}

func TestSpanHierarchyAndSummary(t *testing.T) {
	tr := NewTracer()
	tr.now = fakeClock(time.Millisecond)

	run := tr.Start("run")
	crawl := run.StartChild("crawl", "cohort", "popular")
	crawl.End()
	run.StartChild("detect").End()
	run.End()
	tr.Start("report").End()

	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["crawl"].ParentID != byName["run"].ID {
		t.Fatal("crawl must nest under run")
	}
	if byName["report"].ParentID != 0 {
		t.Fatal("report must be a root span")
	}
	if byName["crawl"].Labels["cohort"] != "popular" {
		t.Fatal("labels lost")
	}
	if byName["detect"].ParentID != byName["run"].ID {
		t.Fatal("detect must nest under run")
	}
	// Records come in end order; durations follow the clock.
	if recs[0].Name != "crawl" || recs[3].Name != "report" {
		t.Fatalf("records not in end order: %+v", recs)
	}
	if byName["run"].Duration <= byName["crawl"].Duration {
		t.Fatal("a parent must outlast its child")
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("once")
	if d := sp.End(); d < 0 {
		t.Fatal("duration must be non-negative")
	}
	if d := sp.End(); d != 0 {
		t.Fatal("second End must be a no-op")
	}
	if len(tr.Records()) != 1 {
		t.Fatal("double End must not duplicate records")
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer()
	tr.Start("a").End()
	tr.Start("b", "k", "v").End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var r SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("lines = %d, want 2", lines)
	}
}

func TestActiveTracksUnendedSpans(t *testing.T) {
	tr := NewTracer()
	tr.now = fakeClock(time.Millisecond)
	leaked := tr.Start("leaky", "where", "crawl")
	done := tr.Start("done")
	done.End()

	act := tr.Active()
	if len(act) != 1 {
		t.Fatalf("active = %d spans, want 1: %+v", len(act), act)
	}
	if act[0].Name != "leaky" || act[0].Labels["where"] != "crawl" {
		t.Fatalf("active record wrong: %+v", act[0])
	}
	if act[0].Duration <= 0 {
		t.Fatal("active span must report elapsed time so far")
	}
	// A leaked span must not be in the finished records it would
	// otherwise silently vanish from.
	for _, r := range tr.Records() {
		if r.Name == "leaky" {
			t.Fatal("un-ended span leaked into Records")
		}
	}
	leaked.End()
	if len(tr.Active()) != 0 {
		t.Fatal("ended span still listed active")
	}
	if len(tr.Records()) != 2 {
		t.Fatalf("records = %d, want 2", len(tr.Records()))
	}
}

// TestTracerConcurrentChurn drives root and child spans from many
// goroutines at once — the shape of a crawl with per-worker phase spans
// — and checks every span lands in Records exactly once, with its
// parent link intact, and none stays Active. Run under -race this also
// pins the tracer's locking.
func TestTracerConcurrentChurn(t *testing.T) {
	tr := NewTracer()
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				root := tr.Start(fmt.Sprintf("w%d", w))
				c1 := root.StartChild("child-a")
				c2 := root.StartChild("child-b")
				_ = tr.Active()
				c2.End()
				c1.End()
				root.End()
			}
		}(w)
	}
	wg.Wait()

	if n := len(tr.Active()); n != 0 {
		t.Fatalf("active after churn = %d, want 0", n)
	}
	recs := tr.Records()
	if want := workers * perWorker * 3; len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}
	ids := map[int64]bool{}
	roots := 0
	for _, r := range recs {
		if ids[r.ID] {
			t.Fatalf("span %d recorded twice", r.ID)
		}
		ids[r.ID] = true
		if r.ParentID == 0 {
			roots++
		}
	}
	for _, r := range recs {
		if r.ParentID != 0 && !ids[r.ParentID] {
			t.Fatalf("span %d has unknown parent %d", r.ID, r.ParentID)
		}
	}
	if roots != workers*perWorker {
		t.Fatalf("roots = %d, want %d", roots, workers*perWorker)
	}
}
