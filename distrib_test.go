package canvassing

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"canvassing/internal/distrib"
)

// The partition-invariance oracle: a study whose crawl phase is split
// across work-units — any partition count, any crawler pool width, any
// dispatch interleaving across worker slots — must produce a run
// bundle byte-identical to the single-process pipeline. For each case
// the serial Run() writes a reference bundle per crawler width (the
// crawl.workers gauge makes width part of the reference), and the
// distributed run at partition counts {1, 4, 16} must reproduce
// manifest.json, events.jsonl, and report.txt byte for byte plus
// metrics.json in its deterministic projection. One seed runs under
// heavy fault injection so the oracle covers degraded pages, retries,
// and visit.outcome events crossing unit boundaries.

// distribCase is one oracle configuration. The clean seed also turns
// on the M1 crawl so all four conditions are exercised; the faulted
// seed keeps the fault model as its axis.
type distribCase struct {
	seed  uint64
	fault float64
	m1    bool
}

var distribCases = []distribCase{
	{seed: 1, fault: 0, m1: true},
	{seed: 7, fault: 0.5, m1: false},
}

func (c distribCase) options(workers int) Options {
	return Options{
		Seed:        c.seed,
		Scale:       0.02,
		Workers:     workers,
		WithAdblock: true,
		WithM1:      c.m1,
		FaultRate:   c.fault,
		// Exemplar capture must stay invisible in bundle bytes on the
		// distributed path too.
		TraceVisits: true,
	}
}

// serialBundle is the reference side: the ordinary single-process Run.
func serialBundle(t *testing.T, opts Options) (string, *Study) {
	t.Helper()
	s := Run(opts)
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := s.WriteBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

// distribBundle runs the distributed pipeline and writes its bundle.
func distribBundle(t *testing.T, opts Options, d DistribOptions) (string, *Study, *distrib.Ledger) {
	t.Helper()
	if d.Dir == "" {
		d.Dir = t.TempDir()
	}
	s, ledger, err := RunDistributed(opts, d)
	if err != nil {
		t.Fatalf("distributed run: %v\nledger:\n%s", err, renderIfAny(ledger))
	}
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := s.WriteBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir, s, ledger
}

func renderIfAny(l *distrib.Ledger) string {
	if l == nil {
		return "(no ledger)"
	}
	return distrib.RenderLedger(l.Records())
}

// compareBundles requires the two bundles' deterministic artifacts to
// be byte-identical.
func compareBundles(t *testing.T, label, refDir, gotDir string) {
	t.Helper()
	for _, name := range []string{"manifest.json", "events.jsonl", "report.txt"} {
		ref, got := readFile(t, refDir, name), readFile(t, gotDir, name)
		if !bytes.Equal(got, ref) {
			t.Errorf("%s: %s differs from serial (%d vs %d bytes); first divergence at byte %d",
				label, name, len(got), len(ref), firstDiff(got, ref))
		}
	}
	ref, got := deterministicMetrics(t, refDir), deterministicMetrics(t, gotDir)
	if !bytes.Equal(got, ref) {
		t.Errorf("%s: deterministic metrics differ from serial\n got: %s\nwant: %s", label, got, ref)
	}
}

func TestDistribPartitionOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline many times")
	}
	for _, c := range distribCases {
		for _, width := range []int{1, 8} {
			opts := c.options(width)
			refDir, refStudy := serialBundle(t, opts)
			if len(readFile(t, refDir, "events.jsonl")) == 0 {
				t.Fatalf("seed %d: serial reference recorded no events", c.seed)
			}
			if c.fault > 0 {
				// The faulted seed must actually exercise degradation, or
				// the resilience half of this oracle is vacuous.
				if st := refStudy.Control.Stats().Total; st.Degraded == 0 || st.Failed == 0 {
					t.Fatalf("seed %d rate %.2f: no degraded/failed pages (degraded=%d failed=%d)",
						c.seed, c.fault, st.Degraded, st.Failed)
				}
			}
			// Width 8 sweeps every partition count; width 1 pins one
			// partitioned point so the single-worker crawl is covered
			// without doubling the sweep.
			partitions := []int{1, 4, 16}
			if width == 1 {
				partitions = []int{4}
			}
			for _, parts := range partitions {
				label := fmt.Sprintf("seed %d width %d partitions %d", c.seed, width, parts)
				gotDir, _, ledger := distribBundle(t, opts, DistribOptions{Partitions: parts, Slots: 3})
				compareBundles(t, label, refDir, gotDir)
				for _, r := range ledger.Records() {
					if r.Status != distrib.UnitDone || r.Attempts != 1 || r.Resumed {
						t.Errorf("%s: unit %s ended %s after %d attempt(s) (resumed=%v); a clean run retries nothing",
							label, r.ID, r.Status, r.Attempts, r.Resumed)
					}
				}
			}
		}
	}
}

// The chaos half of the oracle: kill one worker per condition at
// roughly 25%, 50%, and 75% of its unit (the checkpoint writer's
// StopAfter lever — the same exit-3 convention the process transport
// maps), let the coordinator reassign each orphaned unit to the next
// free slot where it resumes from its checkpoint journal, and require
// the merged bundle to STILL be byte-identical to the serial run.
func TestDistribKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline three times")
	}
	c := distribCase{seed: 7, fault: 0.5}
	opts := c.options(8)
	// Units are 200 pages (800 sites / 4 partitions); a 25-page cadence
	// gives 8 checkpoint writes per unit, so StopAfter 2/4/6 kills the
	// armed attempt at 25%/50%/75% of its unit.
	opts.CheckpointEvery = 25
	refDir, _ := serialBundle(t, opts)

	arm := map[string]int{
		"control-01": 2,
		"abp-02":     4,
		"ubo-03":     6,
	}
	gotDir, _, ledger := distribBundle(t, opts, DistribOptions{Partitions: 4, Slots: 3, Arm: arm})
	compareBundles(t, "kill-and-resume", refDir, gotDir)
	for _, r := range ledger.Records() {
		if _, armed := arm[r.ID]; armed {
			if r.Status != distrib.UnitDone || r.Attempts != 2 || !r.Resumed || len(r.Failures) != 1 {
				t.Errorf("armed unit %s: status=%s attempts=%d resumed=%v failures=%v; want done after one kill and one resume",
					r.ID, r.Status, r.Attempts, r.Resumed, r.Failures)
			}
		} else if r.Status != distrib.UnitDone || r.Attempts != 1 {
			t.Errorf("unit %s: status=%s attempts=%d; unarmed units finish first try", r.ID, r.Status, r.Attempts)
		}
	}
}

// A unit's journal outlives its run, so a second run on the same
// directory with other options must start every unit afresh: no unit
// of it resumes or is refused over the first run's journals, and its
// bundle is the serial one.
func TestDistribRerunOnOneDir(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline three times")
	}
	dir := t.TempDir()
	for _, seed := range []uint64{11, 12} {
		opts := Options{Seed: seed, Scale: 0.02, Workers: 2}
		gotDir, _, ledger := distribBundle(t, opts, DistribOptions{Dir: dir, Partitions: 2, Slots: 2})
		for _, r := range ledger.Records() {
			if r.Status != distrib.UnitDone || r.Attempts != 1 || r.Resumed {
				t.Errorf("seed %d: unit %s ended %s after %d attempt(s) (resumed=%v); want done first try",
					seed, r.ID, r.Status, r.Attempts, r.Resumed)
			}
		}
		if seed == 12 {
			refDir, _ := serialBundle(t, opts)
			compareBundles(t, "rerun", refDir, gotDir)
		}
	}
}

// A unit whose attempts keep dying must exhaust its budget and abort
// the run with the ledger telling the story — never a silent
// half-merged study.
func TestDistribAttemptBudgetAborts(t *testing.T) {
	opts := Options{Seed: 3, Scale: 0.02, Workers: 2}
	_, ledger, err := RunDistributed(opts, DistribOptions{
		Dir:        t.TempDir(),
		Partitions: 2,
		Slots:      2,
		// The arm kills the unit's only permitted attempt, so the budget
		// is exhausted immediately.
		MaxAttempts: 1,
		Arm:         map[string]int{"control-00": 1},
	})
	if err == nil {
		t.Fatal("an exhausted unit must abort the distributed run")
	}
	var failed int
	for _, r := range ledger.Records() {
		if r.ID == "control-00" {
			if r.Status != distrib.UnitFailed {
				t.Errorf("exhausted unit recorded as %s, want %s", r.Status, distrib.UnitFailed)
			}
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("ledger lost the failed unit: %v", ledger.Records())
	}
}
