package canvassing

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"canvassing/internal/obs/ops"
	"canvassing/internal/obs/tracez"
)

// TestTracezBundleInvariance is the trace-analytics determinism oracle:
// a study with per-visit tracing ON — reservoir filling, /tracez being
// hammered over live HTTP mid-run, the exemplar sidecar written — must
// produce byte-identical deterministic bundle artifacts to a study with
// tracing OFF. The reservoir lives outside the metrics registry and the
// event sink, and the sidecar is not a bundle artifact; this test is
// what pins that discipline.
func TestTracezBundleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	opts := Options{Seed: 7, Scale: 0.02, Workers: 2, WithAdblock: true, FaultRate: 0.35}

	// Reference: tracing off, no ops plane.
	ref := Run(opts)
	refDir := t.TempDir()
	if err := ref.WriteBundle(refDir); err != nil {
		t.Fatal(err)
	}

	// Observed: tracing on, /tracez scraped concurrently with the run.
	opts.TraceVisits = true
	s := New(opts)
	if s.Visits() == nil {
		t.Fatal("TraceVisits did not install a reservoir")
	}
	plane, err := ops.Serve("127.0.0.1:0", s.Telemetry(), false, 500*time.Millisecond, s.Visits())
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	stopScrape := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopScrape:
				return
			default:
			}
			res, err := http.Get(plane.URL() + "/tracez")
			if err == nil {
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}
	}()

	s.RunControl()
	s.Analyze()
	s.RunAdblock()
	s.Telemetry().Status.MarkDone()
	close(stopScrape)
	wg.Wait()

	obsDir := t.TempDir()
	if err := s.WriteBundle(obsDir); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"manifest.json", "events.jsonl", "report.txt", "metrics.deterministic.json"} {
		want := readFile(t, refDir, name)
		got := readFile(t, obsDir, name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed by visit tracing (%d vs %d bytes); first divergence at byte %d",
				name, len(got), len(want), firstDiff(got, want))
		}
	}

	// The sidecar rides along with the traced bundle only, and it holds
	// retained exemplars for every crawl condition.
	if _, err := os.Stat(filepath.Join(refDir, tracez.ExemplarsFile)); !os.IsNotExist(err) {
		t.Error("untraced run must not write the exemplar sidecar")
	}
	ex, err := tracez.ReadExemplars(filepath.Join(obsDir, tracez.ExemplarsFile))
	if err != nil {
		t.Fatalf("traced run sidecar: %v", err)
	}
	conds := map[string]bool{}
	for _, ce := range ex.Conditions {
		conds[ce.Condition] = true
		if ce.Offered == 0 || len(ce.Slow)+len(ce.Head) == 0 {
			t.Errorf("condition %q retained no exemplars: %+v", ce.Condition, ce)
		}
	}
	for _, want := range []string{"control", "abp", "ubo"} {
		if !conds[want] {
			t.Errorf("condition %q missing from sidecar (have %v)", want, conds)
		}
	}
	// The phase critical path comes from the run dir's trace.jsonl, as
	// tracescope reads it.
	rd, err := tracez.LoadRunDir(obsDir)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Export == nil || len(rd.Export.Conditions) != len(ex.Conditions) {
		t.Errorf("run dir did not load the sidecar: %+v", rd.Export)
	}
	if rep := tracez.Analyze(rd.Phases); len(rep.CriticalPath) == 0 {
		t.Error("run dir yields no phase critical path")
	}
}

// TestTracezSelectionWidthInvariance pins the reservoir's determinism
// contract at study level: the selection key — which visits were kept,
// their costs and outcomes — is byte-identical across worker widths,
// because selection keys on deterministic cost and visits are offered
// from the ordered committer in page order.
func TestTracezSelectionWidthInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline per seed and width")
	}
	for _, seed := range []uint64{1, 7} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func(workers int) []byte {
				s := Run(Options{
					Seed: seed, Scale: 0.02, Workers: workers,
					WithAdblock: true, FaultRate: 0.35, TraceVisits: true,
				})
				key := s.Visits().SelectionKey()
				if len(key) == 0 {
					t.Fatal("empty selection key")
				}
				return key
			}
			serial := run(1)
			wide := run(8)
			if !bytes.Equal(serial, wide) {
				t.Errorf("exemplar selection depends on worker width:\n--- serial ---\n%s\n--- wide ---\n%s", serial, wide)
			}
		})
	}
}
