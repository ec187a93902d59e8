package crawler

import (
	"time"

	"canvassing/internal/stats"
)

// Failure reasons recorded in PageResult.FailReason when a visit does
// not survive. FailUnreachable also covers the webgen-level hard
// failures (CrawlOK == false) that exist without fault injection.
const (
	FailUnreachable = "unreachable"
	FailRefused     = "refused"
	FailTimeout     = "timeout"
	FailCircuitOpen = "circuit-open"
)

// The retry backoff starts at backoffBase and doubles up to backoffCap.
// Time is virtual: connect records each delay and never sleeps it, so
// faulted crawls run at full speed.
const (
	backoffBase = 500 * time.Millisecond
	backoffCap  = 8 * time.Second
)

// backoff computes capped exponential retry delays with deterministic
// jitter: delay(n) is uniform in [d/2, d] where d = min(base<<n, cap).
// Keeping the lower half of the window (AWS-style "equal jitter")
// guarantees retries never stampede immediately while the cap bounds
// the total visit budget.
type backoff struct {
	base, cap time.Duration
	rng       *stats.RNG
}

// delay returns the wait before the n-th (0-based) retry.
func (b *backoff) delay(n int) time.Duration {
	if b.base <= 0 {
		return 0
	}
	d := b.cap
	// base<<n overflows for absurd n; treat anything past the cap's
	// doubling horizon as capped.
	if n < 32 {
		if exp := b.base << uint(n); exp > 0 && exp < b.cap {
			d = exp
		}
	}
	half := d / 2
	return half + time.Duration(b.rng.Float64()*float64(half))
}

// breaker is a consecutive-failure circuit breaker. Once a site fails
// threshold attempts in a row the circuit opens and further attempts
// are skipped — the graceful-degradation valve that stops a crawl from
// burning its retry budget on a site that is simply down. A threshold
// of 0 disables the breaker.
type breaker struct {
	threshold int
	fails     int
}

// open reports whether the circuit has tripped.
func (b *breaker) open() bool { return b.threshold > 0 && b.fails >= b.threshold }

// fail records one failed attempt.
func (b *breaker) fail() { b.fails++ }

// ok resets the consecutive-failure count after a success.
func (b *breaker) ok() { b.fails = 0 }

// connect drives the fault-injected connection phase of one visit: up
// to Retries+1 attempts, each under the virtual VisitTimeout deadline,
// with capped jittered exponential backoff between attempts and a
// per-site circuit breaker short-circuiting hopeless retries. It
// returns the fraction of the page served (1 for a clean load), the
// failure reason ("" on success), and the number of attempts made.
//
// Attempt-count semantics (pinned by TestConnectAttemptSemantics):
// attempts counts TRIES, not retries. A success on the n-th 0-based
// try reports n+1 (first-try success = 1); exhausting the budget
// reports Retries+1 (every try was made); a circuit opening before the
// n-th try reports n (the tries actually made — the skipped try is not
// counted). The crawl.retry counter, by contrast, counts RETRIES:
// attempts-1 for any visit that got past its first try, because the
// first try of a visit is never a retry.
func connect(site string, cfg *Config, mx *crawlMetrics, pd *pageDelta) (truncate float64, reason string, attempts int) {
	bo := backoff{base: backoffBase, cap: backoffCap,
		rng: stats.NewRNG(cfg.Seed).Fork("backoff:" + site)}
	br := breaker{threshold: cfg.BreakerThreshold}
	max := cfg.Retries + 1
	for n := 0; n < max; n++ {
		if br.open() {
			if mx != nil && mx.faults != nil {
				pd.inc(mx.faults.circuitOpen)
			}
			return 0, FailCircuitOpen, n
		}
		if n > 0 {
			d := bo.delay(n - 1)
			if mx != nil && mx.faults != nil {
				pd.inc(mx.faults.retries)
				pd.observeDuration(mx.faults.backoff, d)
			}
		}
		at := cfg.Faults.Attempt(site, n)
		if mx != nil && mx.faults != nil {
			pd.observeDuration(mx.faults.virtual, at.Latency)
		}
		if at.Err != nil {
			reason = FailRefused
			if mx != nil && mx.faults != nil {
				pd.inc(mx.faults.refused)
			}
			br.fail()
			continue
		}
		if at.Latency > cfg.VisitTimeout {
			reason = FailTimeout
			if mx != nil && mx.faults != nil {
				pd.inc(mx.faults.timeouts)
			}
			br.fail()
			continue
		}
		return at.Truncate, "", n + 1
	}
	return 0, reason, max
}
