package serve

import (
	"sync"
	"time"
)

// DefaultWindow is the batching window when Config.Window <= 0: long
// enough that a hot key arriving at production rates coalesces into
// one index probe per window, short enough to be invisible next to
// network latency.
const DefaultWindow = 2 * time.Millisecond

// flight is one in-window computation of a response. Joiners wait on
// done and read the immutable value the winner stored.
type flight struct {
	done   chan struct{}
	body   []byte
	status int
}

// Batcher coalesces concurrent identical lookups: all requests for the
// same key inside one time window share a single probe (singleflight),
// and the winner's response is reused for the rest of the window
// (batching). Responses must be immutable once produced: handlers
// store rendered bytes that nothing writes again, either their own or
// a canvas record's stored answer.
//
// Rotation is lazy: the first Do after the window elapses clears the
// flight table under the mutex. No background goroutine, so an idle
// server costs nothing and tests can spin the window as fast as they
// like.
type Batcher struct {
	window time.Duration

	mu        sync.Mutex
	epoch     time.Time
	flights   map[string]*flight
	probes    uint64
	coalesced uint64
}

// NewBatcher returns a batcher with the given window (DefaultWindow
// when window <= 0).
func NewBatcher(window time.Duration) *Batcher {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Batcher{window: window, flights: map[string]*flight{}}
}

// Window returns the configured batching window.
func (b *Batcher) Window() time.Duration { return b.window }

// Do returns probe()'s response for key, coalescing with any other Do
// of the same key in the current window. Exactly one caller per
// (key, window) runs probe; everyone else waits for (or immediately
// reads) its result.
func (b *Batcher) Do(key string, probe func() (body []byte, status int)) ([]byte, int) {
	now := time.Now()
	b.mu.Lock()
	if now.Sub(b.epoch) >= b.window {
		b.epoch = now
		b.flights = map[string]*flight{}
	}
	if f, ok := b.flights[key]; ok {
		b.coalesced++
		b.mu.Unlock()
		<-f.done
		return f.body, f.status
	}
	f := &flight{done: make(chan struct{})}
	b.flights[key] = f
	b.probes++
	b.mu.Unlock()
	f.body, f.status = probe()
	close(f.done)
	return f.body, f.status
}

// Counts reports how many Do calls probed and how many coalesced onto
// another caller's probe.
func (b *Batcher) Counts() (probes, coalesced uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probes, b.coalesced
}
