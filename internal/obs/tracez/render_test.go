package tracez

import (
	"strings"
	"testing"
	"time"

	"canvassing/internal/obs"
)

// TestPhaseTimings pins the one phase-timing table: children nest
// under their parents, repeated root phases (and their same-named
// children) merge into one row in first-start order, root rows carry
// their share of the summed root wall, and a total row closes it.
func TestPhaseTimings(t *testing.T) {
	base := time.Unix(1_700_000_000, 0)
	at := func(off time.Duration) time.Time { return base.Add(off) }
	// End order, as Tracer.Records returns them.
	recs := []obs.SpanRecord{
		{ID: 2, ParentID: 1, Name: "crawl", Start: at(1 * ms), Duration: 10 * ms,
			Labels: map[string]string{"cohort": "popular"}},
		{ID: 3, ParentID: 1, Name: "detect", Start: at(12 * ms), Duration: 5 * ms},
		{ID: 1, Name: "run", Start: at(0), Duration: 30 * ms},
		{ID: 4, Name: "analyze", Start: at(30 * ms), Duration: 10 * ms},
		{ID: 7, ParentID: 5, Name: "shard", Start: at(41 * ms), Duration: 2 * ms},
		{ID: 5, Name: "analyze", Start: at(40 * ms), Duration: 10 * ms},
		{ID: 8, ParentID: 6, Name: "shard", Start: at(51 * ms), Duration: 3 * ms},
		{ID: 6, Name: "analyze", Start: at(50 * ms), Duration: 10 * ms},
	}
	want := "Phase timings\n" +
		"phase     wall  share \n" +
		"--------  ----  ------\n" +
		"run       30ms  50.0% \n" +
		"  crawl   10ms        \n" +
		"  detect  5ms         \n" +
		"analyze   30ms  50.0% \n" +
		"  shard   5ms         \n" +
		"total     60ms  100.0%\n"
	if got := PhaseTimings(recs); got != want {
		t.Fatalf("PhaseTimings =\n%s\nwant\n%s", got, want)
	}

	// No spans: an empty table with a zero total, no share to divide.
	empty := "Phase timings\n" +
		"phase  wall  share \n" +
		"-----  ----  ------\n" +
		"total  0s    100.0%\n"
	if got := PhaseTimings(nil); got != empty {
		t.Fatalf("PhaseTimings(nil) =\n%s\nwant\n%s", got, empty)
	}
}

// TestPhaseTimingsMergesRepeats reads a live tracer: a root phase the
// tracer recorded three times is one row whose wall is the sum of the
// three runs and whose share is the whole.
func TestPhaseTimingsMergesRepeats(t *testing.T) {
	tr := obs.NewTracer()
	for i := 0; i < 3; i++ {
		tr.Start("crawl").End()
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(recs))
	}
	var sum time.Duration
	for _, r := range recs {
		sum += r.Duration
	}
	var rows []string
	for _, line := range strings.Split(PhaseTimings(recs), "\n") {
		if strings.HasPrefix(line, "crawl ") {
			rows = append(rows, strings.Join(strings.Fields(line), " "))
		}
	}
	if want := "crawl " + fmtDur(sum) + " 100.0%"; len(rows) != 1 || rows[0] != want {
		t.Fatalf("crawl rows = %q, want one row %q", rows, want)
	}
}
