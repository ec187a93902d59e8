// Package crawler is the instrumented crawler (the Tracker Radar
// Collector analog, §3.1): it visits pages with a worker pool, executes
// their scripts in the jsvm against an instrumented DOM, simulates
// consent-banner acceptance and scrolling, supports ad-blocker
// extensions, and records every Canvas API interaction with script
// attribution.
package crawler

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"canvassing/internal/blocklist"
	"canvassing/internal/canvas"
	"canvassing/internal/dom"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

// Extraction is one canvas extraction event (a toDataURL return).
type Extraction struct {
	// ScriptURL is the page script whose execution produced the
	// extraction (a first-party bundle attributes to the bundle URL,
	// exactly as a real crawler would see it).
	ScriptURL string
	// DataURL is the full extracted value.
	DataURL string
	// Seq orders events within the page visit.
	Seq int
}

// Record is one raw Canvas API call record (optional, Config.KeepRecords).
type Record struct {
	ScriptURL string
	Iface     string
	Member    string
	Args      []string
	Ret       string
	Seq       int
}

// PageResult is the outcome of one page visit.
type PageResult struct {
	Domain string
	Rank   int
	Cohort web.Cohort
	// OK is false when the site could not be crawled.
	OK bool
	// FailReason explains OK == false: "unreachable" (the site was
	// never servable), "refused", "timeout", or "circuit-open" (see the
	// Fail* constants). Empty for successful visits.
	FailReason string `json:",omitempty"`
	// Degraded marks a partially loaded page: fault injection truncated
	// the resource stream, but the canvas calls the surviving scripts
	// made are still recorded instead of the page being dropped.
	Degraded bool `json:",omitempty"`
	// Extractions lists canvas extraction events in order.
	Extractions []Extraction
	// ScriptMethods maps script URL → set of context/canvas members the
	// script invoked (the detection heuristics consume this).
	ScriptMethods map[string]map[string]bool
	// BlockedScripts lists script URLs an extension blocked.
	BlockedScripts []string
	// ScriptErrors maps script URL → error text for scripts that failed.
	ScriptErrors map[string]string
	// Records holds raw API records when Config.KeepRecords is set.
	Records []Record
}

// Result is a whole crawl.
type Result struct {
	// Pages are per-site results in input order. For an interrupted
	// crawl only Pages[:Frontier] are populated; the rest are nil.
	Pages []*PageResult
	// Machine names the profile the crawl ran on.
	Machine string
	// Extension names the ad blocker in use ("" for control).
	Extension string
	// Frontier is the number of leading pages the crawl committed
	// (== len(Pages) for a completed crawl).
	Frontier int `json:",omitempty"`
	// Interrupted reports that Config.OnCommit stopped the crawl early;
	// the checkpoint written by the final commit hook is the authority
	// on what completed.
	Interrupted bool `json:",omitempty"`
}

// SuccessfulPages returns pages that crawled OK. Uncommitted (nil)
// pages of an interrupted crawl are skipped.
func (r *Result) SuccessfulPages() []*PageResult {
	var out []*PageResult
	for _, p := range r.Pages {
		if p != nil && p.OK {
			out = append(out, p)
		}
	}
	return out
}

// Extension is an ad-blocker browser extension observing requests.
type Extension interface {
	// Name identifies the extension for reports.
	Name() string
	// BlockScript decides whether a script request is blocked. The
	// extension sees the request URL as the page references it (CNAME
	// cloaking is invisible here, as in a real browser).
	BlockScript(req blocklist.Request) bool
}

// BlockExplainer is an optional Extension capability: after BlockScript
// returns true, ExplainBlock names the filter list and the matching
// rule so block decisions carry evidence in the event log. Extensions
// without it still work; their block events just lack the rule.
type BlockExplainer interface {
	ExplainBlock(req blocklist.Request) (list, rule string)
}

// Config controls a crawl.
type Config struct {
	// Workers sets the worker-pool width; <=0 selects 8.
	Workers int
	// Profile is the machine the crawl renders on (nil → Intel).
	Profile *machine.Profile
	// Extension is the installed ad blocker (nil → control crawl).
	Extension Extension
	// ExtractHookFor, when non-nil, installs a canvas-randomization
	// defense (§5.3 experiments) by building a hook for each visited
	// domain. Page scoping keeps per-render noise a pure function of
	// (seed, domain), independent of worker scheduling, so traced visit
	// costs stay width- and run-invariant under a defense.
	ExtractHookFor func(domain string) canvas.ExtractHook
	// AutoConsent opts into consent banners, as the paper's crawler does
	// with the autoconsent library. When false, consent-gated scripts
	// never run.
	AutoConsent bool
	// Scroll simulates scrolling, triggering lazy scripts. The paper's
	// crawler scrolls and waits five seconds.
	Scroll bool
	// VisitInnerPages also follows the site's /login inner page after
	// the homepage — the paper's crawler deliberately does NOT (§3.2
	// limitation); the EX2 extension experiment flips this on.
	VisitInnerPages bool
	// Interact turns on the interaction engine: after the page settles,
	// the crawler drives a seeded per-site user-behaviour profile
	// (click/scroll/focus/idle) against the page's event-handler
	// registry, surfacing fingerprinting deferred behind handlers and
	// idle callbacks ("Beyond the Crawl"). Off, the crawl sees only
	// load-time behaviour plus the settle-time timer drain.
	Interact bool
	// Behavior, when non-nil with Interact, replaces the seeded
	// per-site profile with a fixed action script for every page.
	Behavior *BehaviorProfile
	// KeepRecords retains raw API call records (memory-heavy).
	KeepRecords bool
	// MaxStepsPerScript bounds each script's execution; <=0 → 20M
	// (hashing sixty data URLs in script, as the heaviest audit pages
	// do, costs several million interpreter steps).
	MaxStepsPerScript int
	// Seed decorrelates Math.random across crawls.
	Seed uint64
	// Telemetry, when non-nil, receives crawl metrics: visit latency,
	// queue wait, worker utilization, script outcome counters, parse
	// time, and jsvm step usage. Nil runs the bare, uninstrumented path.
	Telemetry *obs.Telemetry
	// Condition labels this crawl in the evidence event log ("control",
	// "abp", "demo", ...) so bundle diffs can align per-condition
	// decisions across runs. Empty is fine for unlabeled crawls.
	Condition string
	// Faults injects deterministic network failures into every visit
	// (nil disables injection; the crawl then behaves exactly as it did
	// before the resilience engine existed).
	Faults *netsim.FaultModel
	// Retries caps re-attempts after a failed visit attempt
	// (<=0 selects 3 when Faults is set).
	Retries int
	// VisitTimeout is the virtual per-attempt deadline an attempt's
	// simulated latency is compared against (<=0 selects 5s).
	VisitTimeout time.Duration
	// BackoffBase and BackoffCap bound the exponential retry backoff
	// (<=0 selects 500ms and 8s).
	BackoffBase, BackoffCap time.Duration
	// BreakerThreshold opens the per-site circuit after that many
	// consecutive failed attempts (<=0 selects 3; set above Retries to
	// effectively disable the breaker).
	BreakerThreshold int
	// Sleep, when non-nil, receives each computed backoff delay. The
	// simulation keeps time virtual by default (nil: delays are only
	// recorded, never slept), so faulted crawls run at full speed; a
	// real deployment would pass time.Sleep.
	Sleep func(time.Duration)
	// Memo, when non-nil, is the display-list memo every page's
	// canvases share: a drawing one page has extracted with a hook-free
	// toDataURL is served to the next without rasterising or encoding
	// it, and hooked pixels one page has encoded are not encoded again.
	// DefaultConfig makes a fresh one; nil shares nothing across pages.
	// It changes no extracted byte.
	Memo *canvas.Memo
	// Calls, when non-nil, is the call memo every page's interpreter
	// shares: a pure script function called with the same arguments on
	// an earlier page (the copy-pasted hash over a data URL the memo
	// above served) returns its result without running again, and a
	// script body an earlier page parsed is not parsed again.
	// DefaultConfig makes a fresh one; nil shares nothing. It changes
	// no value and no step count.
	Calls *jsvm.CallMemo
	// CommitEvery is how many committed pages separate OnCommit calls
	// (<=0 selects 64). The final commit always fires regardless.
	CommitEvery int
	// Visits, when non-nil, receives one per-visit span tree per
	// committed page — connect/fetch/parse/exec/canvas children with
	// retry/fault/degraded labels. Trees are offered from the committer
	// in page order, so the reservoir's deterministic selection is
	// identical at any worker width. Lives entirely outside the metrics
	// registry and event sink: enabling it changes zero bundle bytes.
	Visits *tracez.Reservoir
	// OnCommit, when non-nil, observes the crawl's committed frontier:
	// it is called from the committer goroutine every CommitEvery pages
	// and once more when the crawl completes. All metric and event
	// writes for pages [0, Frontier) — and nothing beyond — have been
	// applied when it runs, so a checkpoint taken inside the hook is an
	// exact cut. Returning true stops the crawl: in-flight pages are
	// discarded uncommitted and Result.Interrupted is set.
	OnCommit func(CommitState) (stop bool)
	// Resume continues a previous crawl from checkpoint state: the
	// committed page prefix is replayed into the result verbatim and
	// the worker pool starts at the frontier. Metrics and events for
	// the prefix are NOT re-applied — the caller restores those from
	// the same checkpoint.
	Resume *ResumeState
	// PageIndexOffset shifts the page-index identity handed to exemplar
	// span trees (tracez.NewVisit). A distributed work-unit crawling
	// sites [Start, End) of a larger frontier passes Start here, so its
	// visit traces carry the same global page ordinal — and therefore
	// the same deterministic sampling hash and tie-break rank — as the
	// single-process crawl. Zero for ordinary crawls.
	PageIndexOffset int
}

// CommitState is the snapshot-able progress of a crawl, handed to
// Config.OnCommit from the committer goroutine.
type CommitState struct {
	// Condition is Config.Condition, for hooks shared across crawls.
	Condition string
	// Frontier counts committed leading pages; Total is len(sites).
	Frontier, Total int
	// Pages is the committed prefix (aliases the result slice — copy
	// before retaining past the hook call).
	Pages []*PageResult
	// Final marks the crawl-completion commit.
	Final bool
}

// ResumeState is the crawl-continuation half of a checkpoint.
type ResumeState struct {
	// Pages is the committed prefix (indices [0, len(Pages))).
	Pages []*PageResult
}

// DefaultConfig returns the paper's crawl configuration: consent
// acceptance, scrolling, no extension, Intel machine, and a fresh
// display-list memo and call memo that the crawls run with it (or a
// copy) share.
func DefaultConfig() Config {
	return Config{
		Workers:     8,
		Profile:     machine.Intel(),
		AutoConsent: true,
		Scroll:      true,
		Seed:        1,
		Memo:        canvas.NewMemo(),
		Calls:       jsvm.NewCallMemo(),
	}
}

// crawlMetrics holds the pre-resolved metric handles for one crawl.
// A nil *crawlMetrics is the uninstrumented path; every use is
// guarded, so the bare crawl pays nothing.
type crawlMetrics struct {
	visitsOK, visitsFailed     *obs.Counter
	extractions                *obs.Counter
	scriptsRun, scriptsBlocked *obs.Counter
	scriptErrors, consentSkip  *obs.Counter
	visitLatency, queueWait    *obs.Histogram
	parseTime, vmSteps         *obs.Histogram
	workerUtil                 *obs.Histogram
	workers                    *obs.Gauge
	// faults holds the resilience-engine metrics; nil unless the crawl
	// runs with a FaultModel, so fault-free runs leave the registry —
	// and therefore run bundles — byte-identical to earlier builds.
	faults *faultMetrics
	// interact holds the interaction-engine counters; nil unless the
	// crawl runs with Config.Interact, under the same bundle-stability
	// contract as faults.
	interact *interactMetrics
}

// faultMetrics are the retry/timeout/circuit-breaker counters the
// resilience engine emits (crawl.retry, crawl.timeout, ...).
type faultMetrics struct {
	retries, timeouts, refused *obs.Counter
	circuitOpen, degraded      *obs.Counter
	backoff, virtual           *obs.Histogram
}

func newFaultMetrics(reg *obs.Registry) *faultMetrics {
	return &faultMetrics{
		retries:     reg.Counter("crawl.retry"),
		timeouts:    reg.Counter("crawl.timeout"),
		refused:     reg.Counter("crawl.refused"),
		circuitOpen: reg.Counter("crawl.circuit-open"),
		degraded:    reg.Counter("crawl.visits.degraded"),
		backoff:     reg.Histogram("crawl.backoff.seconds", obs.LatencyBuckets()),
		virtual:     reg.Histogram("crawl.visit.virtual.seconds", obs.LatencyBuckets()),
	}
}

func newCrawlMetrics(reg *obs.Registry) *crawlMetrics {
	return &crawlMetrics{
		visitsOK:       reg.Counter("crawl.visits.ok"),
		visitsFailed:   reg.Counter("crawl.visits.failed"),
		extractions:    reg.Counter("crawl.extractions"),
		scriptsRun:     reg.Counter("crawl.scripts.executed"),
		scriptsBlocked: reg.Counter("crawl.scripts.blocked"),
		scriptErrors:   reg.Counter("crawl.scripts.errors"),
		consentSkip:    reg.Counter("crawl.scripts.consent_skipped"),
		visitLatency:   reg.Histogram("crawl.visit.seconds", obs.LatencyBuckets()),
		queueWait:      reg.Histogram("crawl.queue.wait.seconds", obs.LatencyBuckets()),
		parseTime:      reg.Histogram("crawl.parse.seconds", obs.LatencyBuckets()),
		vmSteps:        reg.Histogram("jsvm.script.steps", obs.StepBuckets()),
		workerUtil:     reg.Histogram("crawl.worker.utilization", obs.RatioBuckets()),
		workers:        reg.Gauge("crawl.workers"),
	}
}

// pageDelta is everything one page visit wants to write to shared
// telemetry, buffered privately in the visiting worker and applied by
// the committer in page-index order. The indirection is what makes
// crawl-side metrics and evidence events byte-identical at any worker
// width — and gives checkpoints an exact cut: at a commit boundary the
// registry and sink contain page [0, n)'s writes, all of them, and
// nothing else.
type pageDelta struct {
	counts []counterDelta
	obsv   []histObs
	events []event.Event
	// trace is the visit's span tree when Config.Visits is set; the
	// committer offers it to the reservoir in page order.
	trace *tracez.VisitTrace
}

type counterDelta struct {
	c *obs.Counter
	n int64
}

type histObs struct {
	h *obs.Histogram
	v float64
}

func (d *pageDelta) inc(c *obs.Counter) { d.counts = append(d.counts, counterDelta{c, 1}) }

func (d *pageDelta) add(c *obs.Counter, n int64) {
	if n > 0 {
		d.counts = append(d.counts, counterDelta{c, n})
	}
}

func (d *pageDelta) observe(h *obs.Histogram, v float64) {
	d.obsv = append(d.obsv, histObs{h, v})
}

func (d *pageDelta) observeDuration(h *obs.Histogram, dur time.Duration) {
	d.observe(h, dur.Seconds())
}

func (d *pageDelta) record(e event.Event) { d.events = append(d.events, e) }

// apply replays the delta into the shared telemetry. Runs only on the
// committer goroutine, one page at a time, in page order.
func (d *pageDelta) apply(evs *event.Sink) {
	for _, cd := range d.counts {
		cd.c.Add(cd.n)
	}
	for _, ob := range d.obsv {
		ob.h.Observe(ob.v)
	}
	for _, e := range d.events {
		evs.Record(e)
	}
}

// job is one queued page visit; At carries the enqueue time when the
// crawl is instrumented (zero otherwise).
type job struct {
	i  int
	at time.Time
}

// visitDone carries one finished visit from a worker to the committer.
type visitDone struct {
	i  int
	pr *PageResult
	d  *pageDelta
}

// Crawl visits the given sites of w and returns per-page results.
//
// Workers only compute: each visit buffers its telemetry into a
// private pageDelta. A single committer goroutine applies results in
// page-index order — metrics and evidence events all land as if the
// crawl had run serially, at any pool width.
// Config.OnCommit observes the committed frontier for checkpointing
// and may stop the crawl; Config.Resume restarts one from a committed
// prefix.
func Crawl(w *web.Web, sites []*web.Site, cfg Config) *Result {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Profile == nil {
		cfg.Profile = machine.Intel()
	}
	if cfg.MaxStepsPerScript <= 0 {
		cfg.MaxStepsPerScript = 20_000_000
	}
	if cfg.CommitEvery <= 0 {
		cfg.CommitEvery = 64
	}
	if cfg.Faults != nil {
		if cfg.Retries <= 0 {
			cfg.Retries = 3
		}
		if cfg.VisitTimeout <= 0 {
			cfg.VisitTimeout = 5 * time.Second
		}
		if cfg.BackoffBase <= 0 {
			cfg.BackoffBase = 500 * time.Millisecond
		}
		if cfg.BackoffCap <= 0 {
			cfg.BackoffCap = 8 * time.Second
		}
		if cfg.BreakerThreshold <= 0 {
			cfg.BreakerThreshold = 3
		}
	}
	res := &Result{
		Pages:   make([]*PageResult, len(sites)),
		Machine: cfg.Profile.Name,
	}
	if cfg.Extension != nil {
		res.Extension = cfg.Extension.Name()
	}
	var mx *crawlMetrics
	var evs *event.Sink
	var st *obs.Status // live frontier for /statusz; nil-safe, outside the registry
	if cfg.Telemetry != nil {
		mx = newCrawlMetrics(cfg.Telemetry.Metrics)
		mx.workers.Set(int64(cfg.Workers))
		if cfg.Faults != nil {
			mx.faults = newFaultMetrics(cfg.Telemetry.Metrics)
		}
		if cfg.Interact {
			mx.interact = newInteractMetrics(cfg.Telemetry.Metrics)
		}
		evs = cfg.Telemetry.Events
		st = cfg.Telemetry.Status
	}

	// Resume: replay the committed prefix verbatim and start the pool
	// at the frontier. The prefix's metrics/events live in the
	// checkpoint the caller restored.
	frontier := 0
	if cfg.Resume != nil {
		frontier = len(cfg.Resume.Pages)
		if frontier > len(sites) {
			frontier = len(sites)
		}
		copy(res.Pages, cfg.Resume.Pages[:frontier])
	}
	st.CrawlProgress(cfg.Condition, frontier, len(sites), false)

	jobs := make(chan job)
	results := make(chan visitDone, cfg.Workers)
	// stop is closed by the committer when OnCommit asks to halt; the
	// feeder drains out and the pool winds down normally.
	stop := make(chan struct{})

	var commitWG sync.WaitGroup
	commitWG.Add(1)
	go func() {
		defer commitWG.Done()
		pending := map[int]visitDone{}
		next := frontier
		sinceCommit := 0
		stopped := false
		commitState := func(final bool) CommitState {
			return CommitState{
				Condition: cfg.Condition,
				Frontier:  next,
				Total:     len(sites),
				Pages:     res.Pages[:next],
				Final:     final,
			}
		}
		for r := range results {
			if stopped {
				continue // drain; post-stop pages are discarded uncommitted
			}
			pending[r.i] = r
			for {
				nr, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				res.Pages[next] = nr.pr
				nr.d.apply(evs)
				// Exemplar offers ride the ordered-commit point too, so
				// the reservoir sees visits in page order at any width.
				if cfg.Visits != nil && nr.d.trace != nil {
					cfg.Visits.Offer(nr.d.trace)
				}
				next++
				sinceCommit++
				st.CrawlProgress(cfg.Condition, next, len(sites), false)
				if cfg.OnCommit != nil && sinceCommit >= cfg.CommitEvery && next < len(sites) {
					sinceCommit = 0
					if cfg.OnCommit(commitState(false)) {
						stopped = true
						close(stop)
						break
					}
				}
			}
		}
		res.Frontier = next
		res.Interrupted = stopped
		st.CrawlProgress(cfg.Condition, next, len(sites), !stopped)
		if cfg.OnCommit != nil && !stopped {
			// The completion commit runs after every worker has exited
			// (results is closed post wg.Wait), so pool-level metrics
			// like worker utilization are in the registry by now.
			cfg.OnCommit(commitState(next == len(sites)))
		}
	}()

	var wg sync.WaitGroup
	crawlStart := time.Now()
	for k := 0; k < cfg.Workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var busy time.Duration
			for j := range jobs {
				var t0 time.Time
				if mx != nil {
					t0 = time.Now()
				}
				pr, d := visit(w, sites[j.i], j.i+cfg.PageIndexOffset, cfg, mx, evs)
				if mx != nil {
					el := time.Since(t0)
					busy += el
					d.observe(mx.queueWait, t0.Sub(j.at).Seconds())
					d.observeDuration(mx.visitLatency, el)
				}
				results <- visitDone{i: j.i, pr: pr, d: d}
			}
			if mx != nil {
				// Utilization is observed directly: its sample count is
				// deterministic (one per worker) and it must not wait on
				// the page-commit order — a worker's last page may still
				// be pending when the worker exits.
				if wall := time.Since(crawlStart); wall > 0 {
					mx.workerUtil.Observe(busy.Seconds() / wall.Seconds())
				}
			}
		}()
	}
feed:
	for i := frontier; i < len(sites); i++ {
		j := job{i: i}
		if mx != nil {
			j.at = time.Now()
		}
		select {
		case jobs <- j:
		case <-stop:
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	close(results)
	commitWG.Wait()
	return res
}

// visit performs one page load. All shared-telemetry writes are
// buffered into the returned pageDelta; the committer applies them in
// page-index order. idx is the page index within the crawl — the
// deterministic identity exemplar span trees carry.
func visit(w *web.Web, site *web.Site, idx int, cfg Config, mx *crawlMetrics, evs *event.Sink) (*PageResult, *pageDelta) {
	d := &pageDelta{}
	pr := &PageResult{
		Domain:        site.Domain,
		Rank:          site.Rank,
		Cohort:        site.Cohort,
		OK:            site.CrawlOK,
		ScriptMethods: map[string]map[string]bool{},
		ScriptErrors:  map[string]string{},
	}
	// vb builds the visit's span tree when exemplar capture is on. It
	// buffers into the delta like everything else a worker observes;
	// the committer offers the finished tree in page order.
	var vb *tracez.Builder
	finishTrace := func(outcome string) {
		if vb != nil {
			d.trace = vb.Finish(outcome)
		}
	}
	if cfg.Visits != nil {
		vb = tracez.NewVisit(cfg.Condition, site.Domain, site.Rank, idx)
	}
	if !site.CrawlOK {
		pr.FailReason = FailUnreachable
		if mx != nil {
			d.inc(mx.visitsFailed)
		}
		if cfg.Faults != nil {
			recordVisitOutcome(d, evs, &cfg, site, FailUnreachable, netsim.FaultNone, 0)
		}
		finishTrace(FailUnreachable)
		return pr, d
	}
	// The connection phase: under fault injection the visit must first
	// survive the network — retries, timeouts, and the circuit breaker
	// all happen here, before any script runs.
	truncate := 1.0
	attempts := 1
	planKind := netsim.FaultNone
	if cfg.Faults != nil {
		planKind = cfg.Faults.PlanFor(site.Domain).Kind
		var connSp *tracez.Span
		if vb != nil {
			connSp = vb.Open(vb.Root(), "connect")
		}
		var reason string
		truncate, reason, attempts = connect(site.Domain, &cfg, mx, d)
		if connSp != nil {
			// Attempts are the connection phase's deterministic cost:
			// a function of (seed, site), never of scheduling.
			connSp.Cost = int64(attempts)
			if planKind != netsim.FaultNone {
				connSp.SetLabel("fault", planKind.String())
			}
			if attempts > 1 {
				connSp.SetLabel("retries", fmt.Sprint(attempts-1))
			}
			vb.Close(connSp)
		}
		if reason != "" {
			pr.OK = false
			pr.FailReason = reason
			if mx != nil {
				d.inc(mx.visitsFailed)
			}
			recordVisitOutcome(d, evs, &cfg, site, reason, planKind, attempts)
			finishTrace(reason)
			return pr, d
		}
	}
	if mx != nil {
		d.inc(mx.visitsOK)
	}
	// The page's interpreter is built, and the document installed in
	// it, just before its first script runs: most pages run none (no
	// tags, or every tag blocked, gated, truncated or unparsable), and
	// with no interpreter their event loop runs no callbacks, as it
	// would with one, since no script registered any.
	var in *jsvm.Interp
	doc := dom.NewDocument(cfg.Profile, site.Domain)
	doc.Memo = cfg.Memo
	if cfg.ExtractHookFor != nil {
		doc.ExtractHook = cfg.ExtractHookFor(site.Domain)
	}

	seq := 0
	currentScript := ""
	doc.Tracer = canvas.TracerFunc(func(iface, member string, args []string, ret string) {
		seq++
		ms := pr.ScriptMethods[currentScript]
		if ms == nil {
			ms = map[string]bool{}
			pr.ScriptMethods[currentScript] = ms
		}
		ms[member] = true
		if member == "toDataURL" && ret != "" {
			pr.Extractions = append(pr.Extractions, Extraction{
				ScriptURL: currentScript,
				DataURL:   ret,
				Seq:       seq,
			})
		}
		if cfg.KeepRecords {
			pr.Records = append(pr.Records, Record{
				ScriptURL: currentScript,
				Iface:     iface,
				Member:    member,
				Args:      args,
				Ret:       ret,
				Seq:       seq,
			})
		}
	})

	// A truncated load serves only the first `served` of the page's
	// script tags; the rest never arrive. The page is NOT dropped — the
	// canvas calls its surviving scripts make are recorded as usual
	// (graceful degradation), with the missing tags noted as errors.
	served := len(site.Scripts)
	if truncate < 1 {
		served = int(math.Ceil(truncate * float64(len(site.Scripts))))
		if served < len(site.Scripts) {
			pr.Degraded = true
		}
	}

	runScript := func(ps web.PageScript, truncated bool) {
		// Per-script span: fetch → parse → exec children, with a
		// virtual canvas child accounting the script's canvas calls.
		var ssp *tracez.Span
		closeScript := func() {
			if ssp != nil {
				vb.Close(ssp)
			}
		}
		if vb != nil {
			ssp = vb.Open(vb.Root(), "script")
			ssp.SetLabel("url", ps.URL.String())
		}
		if truncated {
			pr.ScriptErrors[ps.URL.String()] = "fetch: truncated response"
			if mx != nil {
				d.inc(mx.scriptErrors)
			}
			if ssp != nil {
				ssp.SetLabel("truncated", "true")
			}
			closeScript()
			return
		}
		if ps.NeedsConsent && !cfg.AutoConsent {
			if mx != nil {
				d.inc(mx.consentSkip)
			}
			if ssp != nil {
				ssp.SetLabel("consent", "skipped")
			}
			closeScript()
			return // banner never accepted: gated tag stays dormant
		}
		req := blocklist.Request{
			URL:        ps.URL.String(),
			Type:       blocklist.TypeScript,
			PageHost:   site.Domain,
			ThirdParty: !netsim.SameSite(ps.URL.Host, site.Domain),
		}
		if cfg.Extension != nil && cfg.Extension.BlockScript(req) {
			pr.BlockedScripts = append(pr.BlockedScripts, req.URL)
			if mx != nil {
				d.inc(mx.scriptsBlocked)
			}
			if evs != nil {
				list, rule := "", ""
				if ex, ok := cfg.Extension.(BlockExplainer); ok {
					list, rule = ex.ExplainBlock(req)
				}
				d.record(event.Event{
					Kind:     event.BlocklistMatch,
					Crawl:    cfg.Condition,
					Site:     site.Domain,
					Subject:  req.URL,
					Verdict:  "blocked",
					Evidence: rule,
					Detail:   list,
				})
			}
			if ssp != nil {
				ssp.SetLabel("blocked", "true")
			}
			closeScript()
			return
		}
		var fetchSp *tracez.Span
		if ssp != nil {
			fetchSp = vb.Open(ssp, "fetch")
		}
		r, err := w.Store.Fetch(ps.URL)
		if fetchSp != nil {
			// Body bytes are the fetch's deterministic cost.
			if err == nil {
				fetchSp.Cost = int64(len(r.Body))
			}
			vb.Close(fetchSp)
		}
		if err != nil {
			pr.ScriptErrors[req.URL] = fmt.Sprintf("fetch: %v", err)
			if mx != nil {
				d.inc(mx.scriptErrors)
			}
			if ssp != nil {
				ssp.SetLabel("error", "fetch")
			}
			closeScript()
			return
		}
		body := r.Body
		var parseStart time.Time
		if mx != nil {
			parseStart = time.Now()
		}
		var parseSp *tracez.Span
		if ssp != nil {
			parseSp = vb.Open(ssp, "parse")
			parseSp.Cost = int64(len(body))
		}
		prog, err := cfg.Calls.Parse(body)
		if parseSp != nil {
			vb.Close(parseSp)
		}
		if mx != nil {
			d.observeDuration(mx.parseTime, time.Since(parseStart))
		}
		if err != nil {
			pr.ScriptErrors[req.URL] = err.Error()
			if ssp != nil {
				ssp.SetLabel("error", "parse")
			}
			closeScript()
			return
		}
		prev := currentScript
		currentScript = req.URL
		// Handlers and timers this script registers attribute back to
		// it when they fire at settle or under interaction.
		doc.SetScriptOwner(req.URL)
		if in == nil {
			in = jsvm.New(jsvm.Options{
				MaxSteps: cfg.MaxStepsPerScript,
				RandSeed: cfg.Seed ^ stats.HashString("page:"+site.Domain),
				Calls:    cfg.Calls,
			})
			doc.Install(in)
		}
		in.ResetSteps()
		seqBefore := seq
		var execSp *tracez.Span
		if ssp != nil {
			execSp = vb.Open(ssp, "exec")
		}
		if _, err := in.Run(prog); err != nil {
			pr.ScriptErrors[req.URL] = err.Error()
			if mx != nil {
				d.inc(mx.scriptErrors)
			}
			if execSp != nil {
				execSp.SetLabel("error", "exec")
			}
		}
		if execSp != nil {
			// Interpreter steps are the dominant deterministic cost.
			execSp.Cost = int64(in.Steps())
			vb.Close(execSp)
			if calls := seq - seqBefore; calls > 0 {
				// Virtual child: canvas-call accounting. Wall stays zero
				// (calls happen inside exec); cost carries the weight.
				canvasSp := vb.Open(execSp, "canvas")
				canvasSp.Cost = int64(calls)
				canvasSp.Off = execSp.Off
			}
		}
		if mx != nil {
			d.inc(mx.scriptsRun)
			d.observe(mx.vmSteps, float64(in.Steps()))
		}
		currentScript = prev
		doc.SetScriptOwner(prev)
		closeScript()
	}

	// First pass: immediate scripts; second pass: scroll-gated scripts.
	for i, ps := range site.Scripts {
		if !ps.OnScroll {
			runScript(ps, i >= served)
		}
	}
	if cfg.Scroll {
		for i, ps := range site.Scripts {
			if ps.OnScroll {
				runScript(ps, i >= served)
			}
		}
	}
	if cfg.VisitInnerPages {
		for _, ps := range site.InnerScripts {
			runScript(ps, false)
		}
	}
	// Page-settle: drain queued timers (always), then drive the site's
	// behaviour profile against the handler registry (Interact only).
	var interactSp *tracez.Span
	if vb != nil && cfg.Interact {
		interactSp = vb.Open(vb.Root(), "interact")
	}
	var imx *interactMetrics
	if mx != nil {
		imx = mx.interact
	}
	callbacks := settlePage(doc, in, site, &cfg, d, evs, imx, func(u string) { currentScript = u })
	if interactSp != nil {
		// Callback count is the phase's deterministic cost: a function
		// of (seed, site, web), never of scheduling.
		interactSp.Cost = int64(callbacks)
		interactSp.SetLabel("callbacks", fmt.Sprint(callbacks))
		vb.Close(interactSp)
	}
	sort.Slice(pr.Extractions, func(i, j int) bool { return pr.Extractions[i].Seq < pr.Extractions[j].Seq })
	if mx != nil {
		d.add(mx.extractions, int64(len(pr.Extractions)))
	}
	outcome := "ok"
	if pr.Degraded {
		outcome = "degraded"
	}
	if cfg.Faults != nil {
		if pr.Degraded && mx != nil && mx.faults != nil {
			d.inc(mx.faults.degraded)
		}
		recordVisitOutcome(d, evs, &cfg, site, outcome, planKind, attempts)
	}
	if vb != nil {
		root := vb.Root()
		if pr.Degraded {
			root.SetLabel("degraded", "true")
		}
		if n := len(pr.Extractions); n > 0 {
			root.SetLabel("extractions", fmt.Sprint(n))
		}
		root.SetLabel("scripts", fmt.Sprint(len(site.Scripts)))
	}
	finishTrace(outcome)
	return pr, d
}

// recordVisitOutcome buffers the visit.outcome evidence event: how the
// visit ended, under which fault plan, after how many attempts. The
// attempts value counts tries, not retries: a first-try success is
// attempts=1, and attempts=0 appears only when no connection was ever
// tried (unreachable site, or a circuit that was already open). Only
// fault-injected crawls record these, so fault-free bundles stay
// identical to pre-resilience builds.
func recordVisitOutcome(d *pageDelta, evs *event.Sink, cfg *Config, site *web.Site, verdict string, kind netsim.FaultKind, attempts int) {
	if evs == nil {
		return
	}
	d.record(event.Event{
		Kind:     event.VisitOutcome,
		Crawl:    cfg.Condition,
		Site:     site.Domain,
		Verdict:  verdict,
		Evidence: kind.String(),
		Detail:   fmt.Sprintf("attempts=%d", attempts),
	})
}
