package crawler

import (
	"encoding/json"
	"testing"
	"time"

	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/web"
)

// deterministicTelemetry projects a registry snapshot down to its
// scheduling-independent parts: counters, gauges (minus the pool-size
// gauge), and histogram observation counts (minus worker utilization,
// whose sample count is one per worker by design). Histogram sums and
// extremes carry wall-clock timings and differ between any two runs.
func deterministicTelemetry(t *testing.T, tel *obs.Telemetry) []byte {
	t.Helper()
	snap := tel.Metrics.Snapshot()
	proj := struct {
		Counters   map[string]int64 `json:"counters"`
		Gauges     map[string]int64 `json:"gauges"`
		HistCounts map[string]int64 `json:"hist_counts"`
	}{snap.Counters, map[string]int64{}, map[string]int64{}}
	for n, g := range snap.Gauges {
		if n != "crawl.workers" {
			proj.Gauges[n] = g
		}
	}
	for n, h := range snap.Histograms {
		if n != "crawl.worker.utilization" {
			proj.HistCounts[n] = h.Count
		}
	}
	b, err := json.Marshal(proj)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrawlTelemetryWidthInvariant is the crawl-side determinism
// oracle: the ordered-commit pipeline must make every deterministic
// telemetry artifact — counters, evidence events with their sequence
// numbers, and the page results themselves — byte-identical at any
// worker-pool width. The golden telemetry report and the resume
// machinery both lean on this invariance.
func TestCrawlTelemetryWidthInvariant(t *testing.T) {
	w := testWeb(t)
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)

	type run struct {
		pages, telemetry, events []byte
	}
	exec := func(workers int) run {
		tel := obs.NewTelemetry()
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Telemetry = tel
		cfg.Condition = "control"
		cfg.Faults = netsim.NewFaultModel(5, 0.25)
		res := Crawl(w, sites, cfg)
		evs, err := json.Marshal(tel.Events.Events())
		if err != nil {
			t.Fatal(err)
		}
		return run{
			pages:     marshalPages(t, res),
			telemetry: deterministicTelemetry(t, tel),
			events:    evs,
		}
	}

	ref := exec(1)
	for _, workers := range []int{8, 32} {
		got := exec(workers)
		if string(got.pages) != string(ref.pages) {
			t.Errorf("width %d: page results differ from serial", workers)
		}
		if string(got.telemetry) != string(ref.telemetry) {
			t.Errorf("width %d: deterministic telemetry differs from serial\n got: %s\nwant: %s",
				workers, got.telemetry, ref.telemetry)
		}
		if string(got.events) != string(ref.events) {
			t.Errorf("width %d: evidence events differ from serial", workers)
		}
	}
}

// connectMetrics builds a live metric set and a delta buffer for
// driving connect directly.
func connectMetrics() (*crawlMetrics, *pageDelta, *obs.Registry) {
	reg := obs.NewRegistry()
	mx := newCrawlMetrics(reg)
	mx.faults = newFaultMetrics(reg)
	return mx, &pageDelta{}, reg
}

// TestConnectAttemptSemantics pins the tries-vs-retries contract the
// visit.outcome evidence and the crawl.retry counter rely on (see the
// connect doc comment): attempts counts TRIES — a success on the n-th
// 0-based try is n+1, an exhausted budget is Retries+1, a circuit
// opening before the n-th try is n — while crawl.retry counts RETRIES,
// which is attempts-1 for every connect outcome, because a visit's
// first try is never a retry.
func TestConnectAttemptSemantics(t *testing.T) {
	const site = "pinned.example"
	cases := []struct {
		name         string
		plan         netsim.FaultPlan
		breaker      int // breaker threshold; connect sees it verbatim
		wantReason   string
		wantAttempts int
	}{
		{name: "first-try success",
			plan:         netsim.FaultPlan{Kind: netsim.FaultNone, Truncate: 1},
			breaker:      3,
			wantAttempts: 1},
		{name: "second-try success after one refusal",
			plan:         netsim.FaultPlan{Kind: netsim.FaultFlaky, FailCount: 1, Truncate: 1},
			breaker:      3,
			wantAttempts: 2},
		{name: "last-try success uses the whole budget",
			plan:         netsim.FaultPlan{Kind: netsim.FaultFlaky, FailCount: 3, Truncate: 1},
			breaker:      100,
			wantAttempts: 4}, // Retries+1 tries, the final one succeeds
		{name: "latency spikes retry like refusals",
			plan:         netsim.FaultPlan{Kind: netsim.FaultLatency, FailCount: 2, Truncate: 1},
			breaker:      3,
			wantAttempts: 3},
		{name: "exhausted budget reports Retries+1",
			plan:         netsim.FaultPlan{Kind: netsim.FaultOutage, Truncate: 1},
			breaker:      100,
			wantReason:   FailRefused,
			wantAttempts: 4},
		{name: "circuit opens before the fourth try",
			plan:         netsim.FaultPlan{Kind: netsim.FaultOutage, Truncate: 1},
			breaker:      3,
			wantReason:   FailCircuitOpen,
			wantAttempts: 3}, // three tries made; the skipped one is not counted
		{name: "circuit beats a would-be recovery",
			plan:         netsim.FaultPlan{Kind: netsim.FaultFlaky, FailCount: 3, Truncate: 1},
			breaker:      3,
			wantReason:   FailCircuitOpen,
			wantAttempts: 3}, // the site would recover on try 3, but the breaker is already open
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Faults = netsim.NewFaultModel(cfg.Seed, 0)
			cfg.Faults.Force(site, tc.plan)
			cfg.Retries = 3
			cfg.VisitTimeout = 5 * time.Second
			cfg.BackoffBase = 500 * time.Millisecond
			cfg.BackoffCap = 8 * time.Second
			cfg.BreakerThreshold = tc.breaker

			mx, pd, reg := connectMetrics()
			_, reason, attempts := connect(site, &cfg, mx, pd)
			if reason != tc.wantReason {
				t.Fatalf("reason = %q, want %q", reason, tc.wantReason)
			}
			if attempts != tc.wantAttempts {
				t.Fatalf("attempts = %d, want %d", attempts, tc.wantAttempts)
			}
			// Apply the buffered delta and check the retry counter obeys
			// retries == attempts-1 in every row of the table.
			pd.apply(nil)
			if got, want := reg.Counter("crawl.retry").Value(), int64(attempts-1); got != want {
				t.Fatalf("crawl.retry = %d, want attempts-1 = %d", got, want)
			}
		})
	}
}

// TestCommitCadenceAndStop pins the OnCommit contract: the hook fires
// every CommitEvery committed pages with an exact, strictly growing
// frontier, fires exactly once more with Final when the crawl
// completes, and stops the crawl when it returns true — leaving the
// uncommitted tail nil and the result marked Interrupted.
func TestCommitCadenceAndStop(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)

	var frontiers []int
	finals := 0
	cfg := DefaultConfig()
	cfg.CommitEvery = 10
	cfg.OnCommit = func(st CommitState) bool {
		if st.Final {
			finals++
			if st.Frontier != len(sites) {
				t.Errorf("final commit frontier = %d, want %d", st.Frontier, len(sites))
			}
			return false
		}
		frontiers = append(frontiers, st.Frontier)
		return false
	}
	res := Crawl(w, sites, cfg)
	if res.Interrupted {
		t.Fatal("uninterrupted crawl marked Interrupted")
	}
	if res.Frontier != len(sites) {
		t.Fatalf("frontier = %d, want %d", res.Frontier, len(sites))
	}
	if finals != 1 {
		t.Fatalf("final commits = %d, want 1", finals)
	}
	if len(frontiers) == 0 {
		t.Fatal("no periodic commits at CommitEvery=10")
	}
	for i, f := range frontiers {
		if f != (i+1)*cfg.CommitEvery {
			t.Fatalf("commit %d at frontier %d, want %d", i, f, (i+1)*cfg.CommitEvery)
		}
	}

	// Stop at the third periodic commit.
	stopAt := 3 * cfg.CommitEvery
	cfg.OnCommit = func(st CommitState) bool { return !st.Final && st.Frontier >= stopAt }
	res = Crawl(w, sites, cfg)
	if !res.Interrupted {
		t.Fatal("stop request did not mark the crawl Interrupted")
	}
	if res.Frontier != stopAt {
		t.Fatalf("interrupted frontier = %d, want %d", res.Frontier, stopAt)
	}
	for i, p := range res.Pages {
		if i < stopAt && p == nil {
			t.Fatalf("committed page %d is nil", i)
		}
		if i >= stopAt && p != nil {
			t.Fatalf("uncommitted page %d leaked into the result", i)
		}
	}
	// Stats must tolerate the nil tail of an interrupted crawl.
	if st := res.Stats(); st.Total.Visited != stopAt {
		t.Fatalf("interrupted Stats().Visited = %d, want %d", st.Total.Visited, stopAt)
	}
}

// TestCrawlResumePrefixReplay is the crawler-level resume contract: an
// interrupted crawl continued via Config.Resume must end with the same
// pages as an uninterrupted run, and the two halves' telemetry must
// ADD UP to the uninterrupted run's — counters and evidence events
// split exactly at the cut, because the committer applies nothing beyond the frontier.
func TestCrawlResumePrefixReplay(t *testing.T) {
	w := testWeb(t)
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)

	mkCfg := func(tel *obs.Telemetry) Config {
		cfg := DefaultConfig()
		cfg.Workers = 4
		cfg.Telemetry = tel
		cfg.Condition = "control"
		cfg.Faults = netsim.NewFaultModel(5, 0.25)
		return cfg
	}

	// Reference: one uninterrupted run.
	refTel := obs.NewTelemetry()
	refRes := Crawl(w, sites, mkCfg(refTel))
	refSnap := refTel.Metrics.Snapshot()
	refEvents := refTel.Events.Events()

	// Interrupted run: stop at the fourth commit and capture the cut.
	var cut CommitState
	tel1 := obs.NewTelemetry()
	cfg := mkCfg(tel1)
	cfg.CommitEvery = 64
	cfg.OnCommit = func(st CommitState) bool {
		if st.Final || st.Frontier < 4*64 {
			return false
		}
		cut = CommitState{
			Frontier: st.Frontier,
			Pages:    append([]*PageResult(nil), st.Pages...),
		}
		return true
	}
	res1 := Crawl(w, sites, cfg)
	if !res1.Interrupted || res1.Frontier != cut.Frontier {
		t.Fatalf("interrupt malfunction: interrupted=%v frontier=%d cut=%d",
			res1.Interrupted, res1.Frontier, cut.Frontier)
	}

	// Resumed run: fresh telemetry, continue from the cut.
	tel2 := obs.NewTelemetry()
	cfg2 := mkCfg(tel2)
	cfg2.Resume = &ResumeState{Pages: cut.Pages}
	res2 := Crawl(w, sites, cfg2)
	if res2.Interrupted {
		t.Fatal("resumed crawl reported Interrupted")
	}
	if string(marshalPages(t, res2)) != string(marshalPages(t, refRes)) {
		t.Fatal("resumed pages differ from the uninterrupted run")
	}

	// The halves' counters must sum to the reference exactly.
	snap1, snap2 := tel1.Metrics.Snapshot(), tel2.Metrics.Snapshot()
	names := map[string]bool{}
	for n := range refSnap.Counters {
		names[n] = true
	}
	for n := range snap1.Counters {
		names[n] = true
	}
	for n := range snap2.Counters {
		names[n] = true
	}
	for n := range names {
		if got, want := snap1.Counters[n]+snap2.Counters[n], refSnap.Counters[n]; got != want {
			t.Errorf("counter %s: prefix %d + continuation %d = %d, want %d",
				n, snap1.Counters[n], snap2.Counters[n], got, want)
		}
	}

	// And the event streams must concatenate to the reference stream
	// (ignoring Seq, which each sink numbers from zero).
	evs := append(append([]eventKey(nil), eventKeys(tel1.Events.Events())...), eventKeys(tel2.Events.Events())...)
	want := eventKeys(refEvents)
	if len(evs) != len(want) {
		t.Fatalf("event count: prefix+continuation = %d, want %d", len(evs), len(want))
	}
	for i := range evs {
		if evs[i] != want[i] {
			t.Fatalf("event %d differs: got %+v, want %+v", i, evs[i], want[i])
		}
	}
}

// eventKey is an event minus its sink-assigned sequence number.
type eventKey struct {
	Kind, Crawl, Site, Subject, Verdict, Evidence, Detail string
}

func eventKeys(evs []event.Event) []eventKey {
	out := make([]eventKey, len(evs))
	for i, e := range evs {
		out[i] = eventKey{string(e.Kind), e.Crawl, e.Site, e.Subject, e.Verdict, e.Evidence, e.Detail}
	}
	return out
}
