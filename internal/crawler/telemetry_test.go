package crawler

import (
	"testing"

	"canvassing/internal/obs"
	"canvassing/internal/web"
)

// TestCrawlTelemetry checks the instrumented crawl reports consistent
// totals: every page lands in a latency bucket, counters match the
// result, and step usage is visible.
func TestCrawlTelemetry(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)
	cfg := DefaultConfig()
	cfg.Telemetry = obs.NewTelemetry()
	res := Crawl(w, sites, cfg)

	snap := cfg.Telemetry.Metrics.Snapshot()
	st := res.Stats()
	lat := snap.Histograms["crawl.visit.seconds"]
	if lat.Count != int64(len(sites)) {
		t.Fatalf("visit latency count = %d, want %d", lat.Count, len(sites))
	}
	if snap.Histograms["crawl.queue.wait.seconds"].Count != int64(len(sites)) {
		t.Fatal("every job must record its queue wait")
	}
	if got := snap.Counters["crawl.visits.ok"]; got != int64(st.Total.OK) {
		t.Fatalf("visits.ok = %d, want %d", got, st.Total.OK)
	}
	if got := snap.Counters["crawl.visits.failed"]; got != int64(st.Total.Failed) {
		t.Fatalf("visits.failed = %d, want %d", got, st.Total.Failed)
	}
	if got := snap.Counters["crawl.extractions"]; got != int64(st.Total.Extractions) {
		t.Fatalf("extractions = %d, want %d", got, st.Total.Extractions)
	}
	if snap.Counters["crawl.scripts.executed"] == 0 {
		t.Fatal("no script executions recorded")
	}
	steps := snap.Histograms["jsvm.script.steps"]
	if steps.Count == 0 || steps.Max <= 0 {
		t.Fatal("jsvm step usage must be recorded per script")
	}
	util := snap.Histograms["crawl.worker.utilization"]
	if util.Count != int64(cfg.Workers) {
		t.Fatalf("worker utilization samples = %d, want %d", util.Count, cfg.Workers)
	}
	if snap.Gauges["crawl.workers"] != int64(cfg.Workers) {
		t.Fatal("worker gauge not set")
	}
}

// TestCrawlTelemetryOptional: the bare path must not require a
// registry and must produce identical results.
func TestCrawlTelemetryOptional(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)[:60]
	bare := Crawl(w, sites, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Telemetry = obs.NewTelemetry()
	instr := Crawl(w, sites, cfg)
	for i := range bare.Pages {
		a, b := bare.Pages[i], instr.Pages[i]
		if len(a.Extractions) != len(b.Extractions) {
			t.Fatalf("page %s: telemetry changed crawl behavior", a.Domain)
		}
		for j := range a.Extractions {
			if a.Extractions[j].DataURL != b.Extractions[j].DataURL {
				t.Fatalf("page %s extraction %d differs under telemetry", a.Domain, j)
			}
		}
	}
}

func TestResultStats(t *testing.T) {
	w := testWeb(t)
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	res := Crawl(w, sites, DefaultConfig())
	st := res.Stats()
	if st.Total.Visited != len(sites) {
		t.Fatalf("visited = %d, want %d", st.Total.Visited, len(sites))
	}
	if st.Total.OK != len(res.SuccessfulPages()) {
		t.Fatal("OK count disagrees with SuccessfulPages")
	}
	if st.Total.OK+st.Total.Failed != st.Total.Visited {
		t.Fatal("ok+failed must equal visited")
	}
	pop, tail := st.PerCohort[web.Popular], st.PerCohort[web.Tail]
	if pop.Visited+tail.Visited != st.Total.Visited {
		t.Fatal("cohorts must partition the crawl")
	}
	if pop.Extractions+tail.Extractions != st.Total.Extractions {
		t.Fatal("extraction totals must agree")
	}
	if s := st.String(); s == "" {
		t.Fatal("summary must render")
	}
}
