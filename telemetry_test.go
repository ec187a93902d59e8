package canvassing

import (
	"strings"
	"testing"
)

// TestStudyTelemetry is the acceptance check for the observability
// layer: a full Run yields non-zero visit-latency histogram counts and
// spans covering every executed phase.
func TestStudyTelemetry(t *testing.T) {
	s := Run(Options{Seed: 7, Scale: 0.01, WithAdblock: true, WithM1: true})
	tel := s.Telemetry()
	if tel == nil {
		t.Fatal("study must expose telemetry")
	}

	snap := tel.Metrics.Snapshot()
	lat := snap.Histograms["crawl.visit.seconds"]
	if lat.Count == 0 {
		t.Fatal("visit latency histogram is empty after a full run")
	}
	// Control + 2 ground-truth-ish + ABP + UBO + M1 crawls all visit
	// every cohort site, so latency samples far exceed one crawl.
	if lat.Count < int64(4*len(s.crawlSites)) {
		t.Fatalf("latency samples = %d, want at least %d (all crawls instrumented)",
			lat.Count, 4*len(s.crawlSites))
	}
	phases := map[string]bool{}
	for _, r := range tel.Tracer.Records() {
		phases[r.Name] = true
	}
	for _, want := range []string{
		"webgen", "crawl.control", "analyze.control", "cluster", "attrib",
		"groundtruth", "crawl.adblock", "abp", "analyze.abp", "ubo",
		"analyze.ubo", "crawl.m1", "analyze.m1",
	} {
		if !phases[want] {
			t.Fatalf("phase %q has no span; got %v", want, phases)
		}
	}
}

func TestPhaseTimingsRender(t *testing.T) {
	s := Run(Options{Seed: 7, Scale: 0.01})
	text := s.PhaseTimings()
	for _, want := range []string{"Phase timings", "webgen", "crawl.control", "analyze.control", "total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("phase table missing %q:\n%s", want, text)
		}
	}
	// Phases that did not run must not appear.
	if strings.Contains(text, "crawl.m1") {
		t.Fatalf("phase table lists a crawl that never ran:\n%s", text)
	}

	full := s.TelemetryReport()
	for _, want := range []string{"Control crawl", "Checkpoint", "Metrics", "analysis.canvases", "crawl.visit.seconds"} {
		if !strings.Contains(full, want) {
			t.Fatalf("telemetry report missing %q:\n%s", want, full)
		}
	}
}
