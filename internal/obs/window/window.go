// Package window derives live RED metrics (Rate / Errors / Duration)
// from the deterministic obs registry by sampling its cumulative
// snapshots over a sliding wall-clock window.
//
// The registry itself is part of the run's deterministic artifact
// surface — bundles serialize it byte-for-byte, and the determinism
// oracle diffs it across worker widths. Rates, ratios, and windowed
// percentiles are inherently wall-clock quantities, so they must live
// OUTSIDE that surface. A View therefore only *reads* snapshots: it
// keeps a short ring of (time, Snapshot) samples and computes deltas
// between the oldest and newest, never writing anything back. Enabling
// or disabling a View cannot change a single bundle byte.
package window

import (
	"sync"
	"time"

	"canvassing/internal/obs"
)

// DefaultWindow is the sliding-window width used when a View is built
// with a non-positive window.
const DefaultWindow = time.Minute

// sample is one timestamped registry snapshot.
type sample struct {
	t time.Time
	s obs.Snapshot
}

// View computes sliding-window deltas over a registry. Safe for
// concurrent use; one background sampler plus any number of readers.
type View struct {
	src    func() obs.Snapshot
	window time.Duration

	mu      sync.Mutex
	samples []sample

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a view over reg with the given window width (<=0 selects
// DefaultWindow). The view holds no samples until Sample or Start.
func New(reg *obs.Registry, window time.Duration) *View {
	return NewFunc(reg.Snapshot, window)
}

// NewFunc is New with an arbitrary snapshot source — the test seam,
// and the hook for wrapping sources that aren't a bare registry.
func NewFunc(src func() obs.Snapshot, window time.Duration) *View {
	if window <= 0 {
		window = DefaultWindow
	}
	return &View{
		src:    src,
		window: window,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Window reports the configured window width.
func (v *View) Window() time.Duration { return v.window }

// Sample takes one snapshot now. Exposed so tests (and callers without
// a background goroutine) can drive the clock themselves.
func (v *View) Sample() { v.SampleAt(time.Now()) }

// SampleAt records a snapshot stamped with the given time and prunes
// samples that have slid out of the window. One sample older than the
// window edge is retained so deltas always span at least the full
// window once enough history exists.
func (v *View) SampleAt(now time.Time) {
	snap := v.src()
	v.mu.Lock()
	defer v.mu.Unlock()
	v.samples = append(v.samples, sample{t: now, s: snap})
	edge := now.Add(-v.window)
	cut := 0
	for i, s := range v.samples {
		if !s.t.Before(edge) {
			break
		}
		cut = i // keep one pre-edge sample as the delta baseline
	}
	if cut > 0 {
		v.samples = append(v.samples[:0], v.samples[cut:]...)
	}
}

// Start launches a background sampler ticking at interval (<=0 picks
// window/30, clamped to [100ms, 2s]). Call Stop to halt it; Start may
// be called at most once per View.
func (v *View) Start(interval time.Duration) {
	v.mu.Lock()
	if v.started {
		v.mu.Unlock()
		return
	}
	v.started = true
	v.mu.Unlock()
	if interval <= 0 {
		interval = v.window / 30
		if interval < 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		if interval > 2*time.Second {
			interval = 2 * time.Second
		}
	}
	go func() {
		defer close(v.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		v.Sample()
		for {
			select {
			case <-v.stop:
				return
			case <-tick.C:
				v.Sample()
			}
		}
	}()
}

// Stop halts the background sampler and waits for it to exit. Safe to
// call multiple times, and a no-op if Start was never called.
func (v *View) Stop() {
	v.stopOnce.Do(func() { close(v.stop) })
	v.mu.Lock()
	started := v.started
	v.mu.Unlock()
	if started {
		<-v.done
	}
}

// DurationStats summarizes one latency histogram over the window.
type DurationStats struct {
	// Count is the number of observations inside the window.
	Count int64 `json:"count"`
	// PerSec is Count divided by the sampled span.
	PerSec float64 `json:"per_sec"`
	// Mean, P50, and P95 are computed from the windowed bucket deltas.
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
}

// Snapshot is one RED view over the sliding window. All quantities are
// deltas between the oldest and newest retained samples.
type Snapshot struct {
	// WindowSeconds is the configured window width.
	WindowSeconds float64 `json:"window_seconds"`
	// SpanSeconds is the actual elapsed time the deltas cover (shorter
	// than the window early in a run).
	SpanSeconds float64 `json:"span_seconds"`
	// Samples is the number of retained samples.
	Samples int `json:"samples"`
	// Rates maps counter name to per-second increase over the window.
	// Counters with zero delta are omitted.
	Rates map[string]float64 `json:"rates,omitempty"`
	// Ratios are named ratios derived from counter deltas (error,
	// retry, timeout and degraded ratios).
	Ratios map[string]float64 `json:"ratios,omitempty"`
	// Durations maps histogram name to windowed latency stats.
	// Histograms with no window observations are omitted.
	Durations map[string]DurationStats `json:"durations,omitempty"`
}

// RED computes the current windowed view. With fewer than two samples
// (or zero elapsed span) it reports only the window configuration.
func (v *View) RED() Snapshot {
	v.mu.Lock()
	samples := v.samples
	var oldest, newest sample
	if n := len(samples); n > 0 {
		oldest, newest = samples[0], samples[n-1]
	}
	n := len(samples)
	v.mu.Unlock()

	out := Snapshot{WindowSeconds: v.window.Seconds(), Samples: n}
	if n < 2 {
		return out
	}
	span := newest.t.Sub(oldest.t).Seconds()
	if span <= 0 {
		return out
	}
	out.SpanSeconds = span

	deltas := map[string]int64{}
	out.Rates = map[string]float64{}
	for name, cur := range newest.s.Counters {
		d := cur - oldest.s.Counters[name]
		deltas[name] = d
		if d != 0 {
			out.Rates[name] = float64(d) / span
		}
	}
	out.Ratios = ratios(deltas)

	out.Durations = map[string]DurationStats{}
	for name, cur := range newest.s.Histograms {
		dh := histDelta(oldest.s.Histograms[name], cur)
		if dh.Count <= 0 {
			continue
		}
		out.Durations[name] = DurationStats{
			Count:  dh.Count,
			PerSec: float64(dh.Count) / span,
			Mean:   dh.Mean(),
			P50:    dh.Quantile(0.50),
			P95:    dh.Quantile(0.95),
		}
	}
	return out
}

// histDelta subtracts an earlier cumulative histogram snapshot from a
// later one, producing a histogram of just the window's observations.
// A bucket-layout mismatch (histogram created mid-window) falls back
// to the newer snapshot whole.
func histDelta(old, cur obs.HistogramSnapshot) obs.HistogramSnapshot {
	if len(old.Buckets) != len(cur.Buckets) {
		return cur
	}
	d := obs.HistogramSnapshot{
		Count:   cur.Count - old.Count,
		Sum:     cur.Sum - old.Sum,
		Buckets: make([]obs.BucketSnapshot, len(cur.Buckets)),
	}
	for i := range cur.Buckets {
		d.Buckets[i] = obs.BucketSnapshot{
			UpperBound: cur.Buckets[i].UpperBound,
			Count:      cur.Buckets[i].Count - old.Buckets[i].Count,
		}
	}
	return d
}

// ratios derives the named RED error/hit ratios from counter deltas.
// Each ratio appears only when its denominator is non-zero in the
// window, so an idle pipeline reports an empty map rather than NaNs.
func ratios(d map[string]int64) map[string]float64 {
	out := map[string]float64{}
	frac := func(name string, num, den int64) {
		if den > 0 {
			out[name] = float64(num) / float64(den)
		}
	}
	visits := d["crawl.visits.ok"] + d["crawl.visits.failed"]
	frac("crawl.error_ratio", d["crawl.visits.failed"], visits)
	frac("crawl.retry_ratio", d["crawl.retry"], visits)
	frac("crawl.timeout_ratio", d["crawl.timeout"], visits)
	frac("crawl.degraded_ratio", d["crawl.visits.degraded"], visits)
	if len(out) == 0 {
		return nil
	}
	return out
}

// VisitRate reports the windowed page visit rate (ok + failed, per
// second) — the /statusz ETA numerator.
func (v *View) VisitRate() float64 {
	red := v.RED()
	return red.Rates["crawl.visits.ok"] + red.Rates["crawl.visits.failed"]
}
