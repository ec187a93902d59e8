package canvassing

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The resume oracle: interrupting a checkpointed study and resuming it
// must be invisible in every deterministic bundle artifact. For each
// configuration a baseline run (checkpointing on, never interrupted)
// writes a reference bundle; each interrupted run is
// stopped by the checkpoint writer's StopAfter lever at a chosen cut —
// 25/50/75% of the control crawl, and once mid-ABP-re-crawl — then
// continued with Resume(dir), and the resumed bundle must reproduce
// the reference byte for byte: manifest.json, events.jsonl, report.txt,
// and the deterministic metrics projection. Cut points land in both
// serial and wide pools, clean and fault-injected runs.
//
// This is the companion of TestAnalysisDeterminismOracle (analysis
// width axis) and TestCrawlTelemetryWidthInvariant (crawl width axis);
// together they cover every scheduling axis the pipeline has.

// resumeCase is one interruption scenario.
type resumeCase struct {
	name      string
	seed      uint64
	workers   int
	fault     float64
	stopAfter int // checkpoint writes before the stop (see layout note)
}

// With Scale 0.02 (800 sites) and CheckpointEvery 100, the control
// crawl checkpoints at frontiers 100..700 (writes 1..7) plus a final
// write (8); the crawl.control phase is write 9 and analyze write 10,
// so StopAfter 2/4/6 cut the control crawl at 25/50/75% and StopAfter
// 12 cuts the ABP re-crawl at its second commit.
var resumeCases = []resumeCase{
	{name: "clean serial, 25% of control", seed: 1, workers: 1, fault: 0, stopAfter: 2},
	{name: "clean serial, 75% of control", seed: 1, workers: 1, fault: 0, stopAfter: 6},
	{name: "clean wide, 50% of control", seed: 1, workers: 8, fault: 0, stopAfter: 4},
	{name: "faulted wide, 25% of control", seed: 42, workers: 8, fault: 0.35, stopAfter: 2},
	{name: "faulted wide, mid-ABP re-crawl", seed: 42, workers: 8, fault: 0.35, stopAfter: 12},
	{name: "faulted serial, 50% of control", seed: 42, workers: 1, fault: 0.35, stopAfter: 4},
}

// resumeOpts is the shared run shape of the oracle.
func resumeOpts(c resumeCase, dir string) Options {
	return Options{
		Seed:            c.seed,
		Scale:           0.02,
		Workers:         c.workers,
		WithAdblock:     true,
		FaultRate:       c.fault,
		CheckpointDir:   dir,
		CheckpointEvery: 100,
		// The resume oracle runs with per-visit tracing on: interrupt,
		// resume, and exemplar capture must not perturb the bundle.
		TraceVisits: true,
	}
}

// checkpointedRun mirrors Run() with the StopAfter lever armed between
// New and the first crawl — the window Run does not expose.
func checkpointedRun(opts Options, stopAfter int) *Study {
	s := New(opts)
	if stopAfter > 0 {
		s.Checkpointer().StopAfter = stopAfter
	}
	s.RunControl()
	if s.Halted {
		return s
	}
	s.Analyze()
	if opts.WithAdblock {
		s.RunAdblock()
	}
	return s
}

// writeBundleDir writes a study's bundle into a temp dir.
func writeBundleDir(t *testing.T, s *Study) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := s.WriteBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestResumeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline per interruption scenario")
	}
	// Baselines are shared across cases with the same (seed, workers,
	// fault) triple; the interruption point does not change them.
	type baseKey struct {
		seed    uint64
		workers int
		fault   float64
	}
	type baseline struct {
		manifest, events, report, metrics []byte
	}
	baselines := map[baseKey]baseline{}
	baseFor := func(c resumeCase) baseline {
		k := baseKey{c.seed, c.workers, c.fault}
		if b, ok := baselines[k]; ok {
			return b
		}
		s := checkpointedRun(resumeOpts(c, t.TempDir()), 0)
		if s.Halted {
			t.Fatal("baseline run halted without a StopAfter")
		}
		dir := writeBundleDir(t, s)
		b := baseline{
			manifest: readFile(t, dir, "manifest.json"),
			events:   readFile(t, dir, "events.jsonl"),
			report:   readFile(t, dir, "report.txt"),
			metrics:  deterministicMetrics(t, dir),
		}
		baselines[k] = b
		return b
	}

	for _, c := range resumeCases {
		t.Run(c.name, func(t *testing.T) {
			ref := baseFor(c)
			ckptDir := t.TempDir()

			interrupted := checkpointedRun(resumeOpts(c, ckptDir), c.stopAfter)
			if !interrupted.Halted {
				t.Fatalf("StopAfter %d did not interrupt the study", c.stopAfter)
			}

			resumed, err := Resume(ckptDir)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Halted {
				t.Fatal("resumed study halted again without a StopAfter")
			}
			dir := writeBundleDir(t, resumed)
			if got := readFile(t, dir, "manifest.json"); !bytes.Equal(got, ref.manifest) {
				t.Errorf("manifest.json differs after resume\n got: %s\nwant: %s", got, ref.manifest)
			}
			if got := readFile(t, dir, "events.jsonl"); !bytes.Equal(got, ref.events) {
				t.Errorf("events.jsonl differs after resume (%d vs %d bytes); first divergence at byte %d",
					len(got), len(ref.events), firstDiff(got, ref.events))
			}
			if got := readFile(t, dir, "report.txt"); !bytes.Equal(got, ref.report) {
				t.Errorf("report.txt differs after resume")
			}
			if got := deterministicMetrics(t, dir); !bytes.Equal(got, ref.metrics) {
				t.Errorf("deterministic metrics differ after resume\n got: %s\nwant: %s", got, ref.metrics)
			}
		})
	}
}

// TestResumeRemovesSnapshotStore: builds with a page-body snapshot store
// cut journals whose frames carry "has_snapshots":true and saved the
// store beside them as snapshots/index.json and snapshots/blobs/. Such a
// journal resumes to the uninterrupted run's bundle, and the store is
// gone afterwards.
func TestResumeRemovesSnapshotStore(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	c := resumeCases[2]
	ref := writeBundleDir(t, checkpointedRun(resumeOpts(c, t.TempDir()), 0))

	dir := t.TempDir()
	if s := checkpointedRun(resumeOpts(c, dir), c.stopAfter); !s.Halted {
		t.Fatalf("StopAfter %d did not interrupt the study", c.stopAfter)
	}
	journal := filepath.Join(dir, "checkpoint.json")
	frames := readFile(t, dir, "checkpoint.json")
	frames = bytes.ReplaceAll(frames, []byte("{\"schema\":"), []byte("{\"has_snapshots\":true,\"schema\":"))
	if bytes.Count(frames, []byte("has_snapshots")) != c.stopAfter {
		t.Fatalf("marked %d of %d frames", bytes.Count(frames, []byte("has_snapshots")), c.stopAfter)
	}
	store := filepath.Join(dir, "snapshots")
	for name, data := range map[string]string{
		journal:                            string(frames),
		filepath.Join(store, "index.json"): `{"schema":1,"entries":{}}`,
		filepath.Join(store, "blobs", "ab", "abcdef"): strings.Repeat("x", 1024),
	} {
		if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	resumed, err := Resume(dir)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Halted {
		t.Fatal("resumed study halted again without a StopAfter")
	}
	got := writeBundleDir(t, resumed)
	for _, name := range []string{"manifest.json", "events.jsonl", "report.txt"} {
		if !bytes.Equal(readFile(t, got, name), readFile(t, ref, name)) {
			t.Errorf("%s differs from the uninterrupted run's", name)
		}
	}
	if !bytes.Equal(deterministicMetrics(t, got), deterministicMetrics(t, ref)) {
		t.Error("deterministic metrics differ from the uninterrupted run's")
	}
	if _, err := os.Stat(store); !os.IsNotExist(err) {
		t.Fatalf("the snapshot store is still there after Resume (stat: %v)", err)
	}
}
