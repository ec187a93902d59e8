package window

import (
	"testing"
	"time"

	"canvassing/internal/obs"
)

func TestREDRatesAndRatios(t *testing.T) {
	r := obs.NewRegistry()
	v := New(r, 10*time.Second)
	t0 := time.Unix(1000, 0)
	v.SampleAt(t0)

	r.Counter("crawl.visits.ok").Add(90)
	r.Counter("crawl.visits.failed").Add(10)
	r.Counter("crawl.retry").Add(25)
	r.Counter("crawl.timeout").Add(5)
	r.Counter("crawl.visits.degraded").Add(4)
	v.SampleAt(t0.Add(10 * time.Second))

	red := v.RED()
	if red.Samples != 2 || red.SpanSeconds != 10 {
		t.Fatalf("samples=%d span=%v, want 2 / 10s", red.Samples, red.SpanSeconds)
	}
	if got := red.Rates["crawl.visits.ok"]; got != 9 {
		t.Fatalf("visits.ok rate = %v, want 9/s", got)
	}
	if got := red.Ratios["crawl.error_ratio"]; got != 0.10 {
		t.Fatalf("error ratio = %v, want 0.10", got)
	}
	if got := red.Ratios["crawl.retry_ratio"]; got != 0.25 {
		t.Fatalf("retry ratio = %v, want 0.25", got)
	}
	if got := red.Ratios["crawl.timeout_ratio"]; got != 0.05 {
		t.Fatalf("timeout ratio = %v, want 0.05", got)
	}
	if got := red.Ratios["crawl.degraded_ratio"]; got != 0.04 {
		t.Fatalf("degraded ratio = %v, want 0.04", got)
	}
	if got := v.VisitRate(); got != 10 {
		t.Fatalf("VisitRate = %v, want 10/s", got)
	}

	// A ratio whose denominator did not move in the window is absent.
	idle := obs.NewRegistry()
	iv := New(idle, 10*time.Second)
	iv.SampleAt(t0)
	idle.Counter("crawl.retry").Add(5)
	iv.SampleAt(t0.Add(10 * time.Second))
	if _, ok := iv.RED().Ratios["crawl.retry_ratio"]; ok {
		t.Fatal("retry ratio reported with no visits in the window")
	}
}

// TestWindowedDurations checks that histogram percentiles cover ONLY
// the window: old observations outside the delta must not move p95.
func TestWindowedDurations(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("crawl.visit.seconds", []float64{0.1, 0.5, 1, 5})
	// Pre-window history: a hundred slow observations.
	for i := 0; i < 100; i++ {
		h.Observe(4)
	}
	v := New(r, 10*time.Second)
	t0 := time.Unix(2000, 0)
	v.SampleAt(t0)

	// In-window: all fast.
	for i := 0; i < 50; i++ {
		h.Observe(0.05)
	}
	v.SampleAt(t0.Add(10 * time.Second))

	red := v.RED()
	d, ok := red.Durations["crawl.visit.seconds"]
	if !ok {
		t.Fatal("no windowed durations for crawl.visit.seconds")
	}
	if d.Count != 50 {
		t.Fatalf("windowed count = %d, want 50", d.Count)
	}
	if d.P95 > 0.1 {
		t.Fatalf("windowed p95 = %v; pre-window slow observations leaked in", d.P95)
	}
	if d.PerSec != 5 {
		t.Fatalf("per-sec = %v, want 5", d.PerSec)
	}
}

// TestPruning keeps one pre-edge sample so deltas span the full window.
func TestPruning(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("crawl.visits.ok")
	v := New(r, 10*time.Second)
	t0 := time.Unix(3000, 0)
	for i := 0; i <= 30; i++ { // 31 samples over 30s at 1s cadence
		c.Add(1)
		v.SampleAt(t0.Add(time.Duration(i) * time.Second))
	}
	v.mu.Lock()
	n := len(v.samples)
	v.mu.Unlock()
	// window 10s at 1s cadence → 11 in-window + 1 pre-edge baseline.
	if n > 12 {
		t.Fatalf("retained %d samples, want <= 12", n)
	}
	red := v.RED()
	if red.SpanSeconds < 10 {
		t.Fatalf("span %.1fs shorter than the window; baseline sample was pruned", red.SpanSeconds)
	}
}

func TestEmptyAndSingleSample(t *testing.T) {
	v := New(obs.NewRegistry(), time.Second)
	if red := v.RED(); red.Samples != 0 || red.Rates != nil {
		t.Fatalf("empty view RED = %+v", red)
	}
	v.SampleAt(time.Unix(1, 0))
	if red := v.RED(); red.Samples != 1 || red.SpanSeconds != 0 {
		t.Fatalf("single-sample RED = %+v", red)
	}
}

func TestDefaultWindow(t *testing.T) {
	if w := New(obs.NewRegistry(), 0).Window(); w != DefaultWindow {
		t.Fatalf("default window = %v", w)
	}
}

// TestStartStop exercises the background sampler lifecycle, including
// double Stop and Stop-without-Start.
func TestStartStop(t *testing.T) {
	r := obs.NewRegistry()
	v := New(r, time.Second)
	v.Start(5 * time.Millisecond)
	r.Counter("crawl.visits.ok").Add(1)
	deadline := time.After(2 * time.Second)
	for {
		if red := v.RED(); red.Samples >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sampler never accumulated two samples")
		case <-time.After(5 * time.Millisecond):
		}
	}
	v.Stop()
	v.Stop() // idempotent

	unstarted := New(r, time.Second)
	unstarted.Stop() // must not hang
}

// TestHistogramCreatedMidWindow: a histogram absent from the old
// sample falls back to its full cumulative state.
func TestHistogramCreatedMidWindow(t *testing.T) {
	r := obs.NewRegistry()
	v := New(r, 10*time.Second)
	t0 := time.Unix(4000, 0)
	v.SampleAt(t0)
	h := r.Histogram("late.seconds", []float64{1})
	h.Observe(0.5)
	v.SampleAt(t0.Add(time.Second))
	d, ok := v.RED().Durations["late.seconds"]
	if !ok || d.Count != 1 {
		t.Fatalf("mid-window histogram: %+v ok=%v", d, ok)
	}
}
