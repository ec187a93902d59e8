package canvassing

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
	"canvassing/internal/obs/prom"
	"canvassing/internal/obs/window"
)

// TestOpsPlaneBundleInvariance is the ops-plane determinism oracle:
// running a study with the full live plane enabled — HTTP server on a
// real port, window sampler ticking fast, and a client hammering every
// endpoint concurrently with the run — must not change a single byte
// of the deterministic bundle artifacts. The status tracker and the
// windowed views live outside the registry snapshot; this test is what
// pins that discipline.
func TestOpsPlaneBundleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline twice")
	}
	opts := Options{Seed: 7, Scale: 0.02, Workers: 2, WithAdblock: true, FaultRate: 0.35}

	// Reference: no ops plane.
	ref := Run(opts)
	refDir := t.TempDir()
	if err := ref.WriteBundle(refDir); err != nil {
		t.Fatal(err)
	}

	// Observed run: build the study first so the plane serves its
	// telemetry, then drive the pipeline while a scraper loops.
	s := New(opts)
	plane, err := ops.Serve("127.0.0.1:0", s.Telemetry(), false, 500*time.Millisecond, s.Visits())
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	// Tighten the sampler far below its default cadence: more snapshot
	// reads, more chances to perturb something if the discipline leaks.
	extra := window.New(s.Telemetry().Metrics, time.Second)
	extra.Start(2 * time.Millisecond)
	defer extra.Stop()

	stopScrape := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		paths := []string{"/metrics.prom", "/red", "/statusz", "/metrics", "/healthz", "/readyz", "/"}
		for i := 0; ; i++ {
			select {
			case <-stopScrape:
				return
			default:
			}
			res, err := http.Get(plane.URL() + paths[i%len(paths)])
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
			t.Errorf("%s changed by the live ops plane (%d vs %d bytes); first divergence at byte %d",
				name, len(got), len(want), firstDiff(got, want))
		}
	}
}

// TestStatuszLiveIntegration runs a study with the ops plane bound to
// :0 and polls /statusz over real HTTP while the pipeline executes:
// the crawl frontier must advance through the live view, the phase
// ledger must show activity, the exposition endpoint must stay valid,
// and after completion /statusz reports done with every crawl
// finished and /readyz stays 200.
func TestStatuszLiveIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline over live HTTP")
	}
	s := New(Options{Seed: 1, Scale: 0.05, Workers: 2})
	// Assemble the plane by hand so the sampler ticks far faster than
	// the production default — the visit rate (and thus the ETA) must
	// be available within this short crawl.
	view := window.New(s.Telemetry().Metrics, 10*time.Second)
	srv := httptest.NewServer(ops.NewMux(s.Telemetry(), false, view, s.Visits()))
	defer srv.Close()
	view.Start(2 * time.Millisecond)
	defer view.Stop()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunControl()
		s.Analyze()
		s.Telemetry().Status.MarkDone()
	}()

	getStatus := func() ops.Statusz {
		t.Helper()
		res, err := http.Get(srv.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var st ops.Statusz
		if err := json.NewDecoder(res.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Poll until the crawl is visibly in flight — running state, a
	// control crawl with a nonzero committed frontier — and the
	// windowed visit rate has produced an ETA for it.
	sawProgress, sawETA := false, false
	deadline := time.After(60 * time.Second)
poll:
	for !(sawProgress && sawETA) {
		select {
		case <-deadline:
			t.Fatalf("statusz never showed a crawl in flight (progress=%v eta=%v)", sawProgress, sawETA)
		case <-done:
			break poll
		default:
		}
		st := getStatus()
		for _, c := range st.Crawls {
			if c.Condition == "control" && c.Frontier > 0 && !c.Done && st.State == obs.StateRunning {
				sawProgress = true
			}
		}
		if st.ETACondition == "control" && st.ETASeconds > 0 && st.VisitRatePerSec > 0 {
			sawETA = true
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !sawProgress || !sawETA {
		// The pipeline finished before a poll caught it mid-crawl; at
		// 0.05 scale with 2 workers that means the poll loop is broken,
		// not the plane.
		t.Fatalf("crawl completed before /statusz showed it live (progress=%v eta=%v)", sawProgress, sawETA)
	}

	// The exposition endpoint must serve valid text while the crawl is
	// mutating the registry underneath it.
	res, err := http.Get(srv.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if err := prom.ValidateExposition(string(body)); err != nil {
		t.Fatalf("mid-run /metrics.prom invalid: %v", err)
	}

	<-done

	st := getStatus()
	if st.State != obs.StateDone {
		t.Fatalf("final state = %q, want done", st.State)
	}
	for _, c := range st.Crawls {
		if !c.Done || c.Frontier != c.Total {
			t.Fatalf("crawl %q not complete in final status: %+v", c.Condition, c)
		}
	}
	if len(st.Phases) == 0 {
		t.Fatal("phase ledger empty after the run")
	}
	probe, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	probe.Body.Close()
	if probe.StatusCode != 200 {
		t.Fatalf("readyz after completion = %d", probe.StatusCode)
	}
}
