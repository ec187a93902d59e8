// Package canvassing reproduces "Canvassing the Fingerprinters:
// Characterizing Canvas Fingerprinting Use Across the Web" (IMC 2025) as
// a self-contained simulation study.
//
// A Study bundles the full pipeline: synthetic-web generation, the
// instrumented control crawl, fingerprintability detection, canvas
// clustering, vendor attribution, blocklist analyses, ad-blocker
// re-crawls, and the cross-machine validation crawl. Each experiment of
// the paper (tables, figures, and headline statistics) is exposed as a
// method returning a typed result with a Render() string form.
//
// Minimal use:
//
//	study := canvassing.Run(canvassing.Options{Seed: 1, Scale: 0.05})
//	fmt.Println(study.Prevalence().Render())
package canvassing

import (
	"fmt"
	"os"
	"time"

	"canvassing/internal/adblock"
	"canvassing/internal/attrib"
	"canvassing/internal/blocklist"
	"canvassing/internal/canvas"
	"canvassing/internal/checkpoint"
	"canvassing/internal/cluster"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

// Options configures a study run.
type Options struct {
	// Seed drives every random choice; equal seeds reproduce the study
	// bit for bit.
	Seed uint64
	// Scale shrinks the web: 1.0 is the paper's 20k+20k crawl, 0.05 a
	// laptop-quick 1k+1k run. Values <=0 select 1.0.
	Scale float64
	// Workers is the crawler pool width (<=0 selects 8). Bundles differ
	// across widths only in the width they record — the determinism
	// oracle in determinism_test.go enforces it.
	Workers int
	// WithAdblock adds the Adblock Plus and uBlock Origin re-crawls
	// (Table 2 / E5).
	WithAdblock bool
	// WithM1 adds the Apple-silicon validation crawl (§3.1 / E9).
	WithM1 bool
	// FaultRate enables deterministic fault injection on every cohort
	// crawl: the fraction of sites given a seeded fault plan (0
	// disables, reproducing the pre-resilience pipeline exactly). The
	// demo ground-truth crawl is exempt — harvesting vendor demo pages
	// is the researcher's controlled environment, not the open Web.
	FaultRate float64
	// Retries and VisitTimeout tune the crawler's resilience engine
	// under FaultRate (zero selects the crawler defaults).
	Retries      int
	VisitTimeout time.Duration
	// CheckpointDir enables periodic checkpointing: at every commit
	// boundary one frame with the progress since the previous one is
	// appended to the journal <dir>/checkpoint.json, and Resume(dir)
	// continues an interrupted run from it. Empty disables
	// checkpointing.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in committed pages
	// (<=0 selects 256).
	CheckpointEvery int
	// TraceVisits captures per-visit span trees from every crawl into
	// a bounded deterministic exemplar reservoir (internal/obs/tracez).
	// The reservoir lives outside the metrics registry and event sink, so
	// enabling it changes zero bundle bytes; WriteBundle adds a
	// trace_exemplars.jsonl sidecar next to the bundle, and the ops
	// plane serves the live view at /tracez.
	TraceVisits bool
	// Interact enables the interaction-triggered fingerprinting
	// workload ("Beyond the Crawl"): the generated web additionally
	// carries interaction-gated vendor deployments, and the EX3
	// crawl-vs-interaction experiment re-crawls it with the crawler's
	// interaction engine driving seeded per-site behaviour profiles.
	// The load-time cohort crawls themselves stay interaction-free, so
	// the paper-faithful numbers keep their meaning; with Interact off
	// the study is byte-identical to builds without the engine.
	Interact bool
}

// Crawl condition labels used in the evidence event log. Bundle diffs
// align events across runs by (condition, site), so the labels are part
// of the bundle contract.
const (
	CondControl  = "control"
	CondABP      = "abp"
	CondUBO      = "ubo"
	CondM1       = "m1"
	CondDemo     = "demo"
	CondInner    = "inner"
	CondInteract = "interact"
)

// Study holds all crawl and analysis artifacts.
type Study struct {
	Options Options
	// Web is the generated world.
	Web *web.Web
	// Lists are the synthetic EasyList/EasyPrivacy/Disconnect lists.
	Lists *blocklist.StandardLists
	// Control is the extension-free crawl over both cohorts.
	Control *crawler.Result
	// Sites are the analyzed (detection-classified) control pages.
	Sites []detect.SiteCanvases
	// Clustering groups identical canvases across sites.
	Clustering *cluster.Clustering
	// GroundTruth holds per-vendor canvas hashes from demo/customer
	// crawls.
	GroundTruth *attrib.GroundTruth
	// Attribution is the Table 1 attribution result.
	Attribution *attrib.Result
	// ABP and UBO are the ad-blocker re-crawls (nil unless WithAdblock).
	ABP, UBO *crawler.Result
	// ABPSites and UBOSites are the analyzed re-crawl pages (cached so
	// Table 2 and run bundles share one evented analysis).
	ABPSites, UBOSites []detect.SiteCanvases
	// M1 is the validation crawl (nil unless WithM1).
	M1 *crawler.Result
	// M1Sites are the analyzed validation pages (cached like ABPSites).
	M1Sites []detect.SiteCanvases
	// Faults is the study's fault model (nil unless Options.FaultRate
	// is positive); every cohort crawl shares it so conditions see the
	// same per-site fault plans and stay comparable.
	Faults *netsim.FaultModel
	// Halted reports that the checkpoint writer interrupted the run
	// (its StopAfter fired): later phases were skipped, and the
	// checkpoint on disk holds the committed progress for Resume.
	Halted bool

	crawlSites []*web.Site // cohort sites in crawl order
	tel        *obs.Telemetry
	ckpt       *checkpoint.Writer
	visits     *tracez.Reservoir // exemplar reservoir (nil unless TraceVisits)
	memo       *canvas.Memo      // display-list memo every crawl shares
	calls      *jsvm.CallMemo    // pure-call memo every crawl shares
	randCache  map[int]RandomizationResult
	// interactCache memoizes the EX3 interaction re-crawl (randCache
	// pattern): the report and the repro CLI share one re-crawl.
	interactCache *InteractionGapResult
}

// Checkpointer exposes the study's checkpoint writer (nil unless
// Options.CheckpointDir is set) — tests and binaries use it to arm
// StopAfter interruption.
func (s *Study) Checkpointer() *checkpoint.Writer { return s.ckpt }

// Telemetry exposes the study's metrics registry and span tracer.
// Every crawl and analysis phase accumulates into it; inspect it with
// Telemetry().Metrics.RenderText(), the PhaseTimings table, or the
// obs HTTP mux.
func (s *Study) Telemetry() *obs.Telemetry { return s.tel }

// Visits exposes the study's exemplar reservoir (nil unless
// Options.TraceVisits) — the /tracez payload and the
// trace_exemplars.jsonl source.
func (s *Study) Visits() *tracez.Reservoir { return s.visits }

// New generates the web and lists without crawling. Use Run for the
// whole pipeline.
func New(opts Options) *Study {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	tel := obs.NewTelemetry()
	sp := tel.Tracer.Start("webgen")
	w := web.Generate(web.Config{Seed: opts.Seed, Scale: opts.Scale, TrancoMax: 1_000_000, Interact: opts.Interact})
	sp.End()
	s := &Study{
		Options: opts,
		Web:     w,
		Lists:   ListsForSeed(opts.Seed),
		tel:     tel,
		memo:    canvas.NewMemo(),
		calls:   jsvm.NewCallMemo(),
	}
	if opts.FaultRate > 0 {
		s.Faults = netsim.NewFaultModel(opts.Seed, opts.FaultRate)
	}
	if opts.CheckpointDir != "" {
		s.ckpt = checkpoint.NewWriter(opts.CheckpointDir, opts.CheckpointEvery)
		s.ckpt.Metrics = tel.Metrics
		s.ckpt.Events = tel.Events
		s.ckpt.Faults = s.Faults
		s.ckpt.Status = tel.Status
		if err := s.ckpt.SetOpts(opts); err != nil {
			panic(err) // Options is a plain struct; marshal cannot fail
		}
	}
	if opts.TraceVisits {
		s.visits = tracez.NewReservoir(opts.Seed, 0, 0)
	}
	s.crawlSites = append(s.crawlSites, w.CohortSites(web.Popular)...)
	s.crawlSites = append(s.crawlSites, w.CohortSites(web.Tail)...)
	tel.Status.MarkRunning()
	return s
}

// Run executes the full pipeline for opts: New, then Study.Run.
func Run(opts Options) *Study {
	s := New(opts)
	s.Run()
	return s
}

// Run executes the crawls and analyses of a study New built:
// RunControl and Analyze, then RunAdblock under Options.WithAdblock and
// RunM1 under Options.WithM1, the crawls Resume and RunDistributed walk
// in the same order. If a checkpoint writer with an armed StopAfter
// interrupts a crawl, the remaining phases are skipped (Study.Halted)
// and the checkpoint holds the progress.
func (s *Study) Run() {
	s.RunControl()
	if !s.Halted {
		s.Analyze()
	}
	if s.Options.WithAdblock && !s.Halted {
		s.RunAdblock()
	}
	if s.Options.WithM1 && !s.Halted {
		s.RunM1()
	}
}

// cohortCrawls lists the cohort crawls opts asks for, in pipeline
// order: the control crawl, the Adblock Plus and uBlock Origin
// re-crawls (Table 2) under WithAdblock, and the Apple M1 validation
// crawl (§3.1) under WithM1. Resume and RunDistributed walk it.
func cohortCrawls(opts Options) []string {
	conds := []string{CondControl}
	if opts.WithAdblock {
		conds = append(conds, CondABP, CondUBO)
	}
	if opts.WithM1 {
		conds = append(conds, CondM1)
	}
	return conds
}

// cohort maps a cohort crawl's condition to its crawler configuration
// (the extension or machine that sets a re-crawl apart from the control
// crawl) and to the study fields its crawl result and analysed sites
// go in. ok is false for a condition that is not a cohort crawl.
func (s *Study) cohort(cond string) (cfg crawler.Config, res **crawler.Result, sites *[]detect.SiteCanvases, ok bool) {
	cfg = s.crawlConfig(cond)
	switch cond {
	case CondControl:
		return cfg, &s.Control, &s.Sites, true
	case CondABP:
		cfg.Extension = adblock.NewAdblockPlus(s.Lists)
		return cfg, &s.ABP, &s.ABPSites, true
	case CondUBO:
		cfg.Extension = adblock.NewUBlockOrigin(s.Lists)
		return cfg, &s.UBO, &s.UBOSites, true
	case CondM1:
		cfg.Profile = machine.AppleM1()
		return cfg, &s.M1, &s.M1Sites, true
	}
	return cfg, nil, nil, false
}

// crawl runs one cohort crawl, continuing from rs when it is non-nil,
// and finishes its crawl.<cond> phase. A crawl the checkpoint writer
// interrupts halts the study instead.
func (s *Study) crawl(cond string, rs *crawler.ResumeState) {
	cfg, res, _, _ := s.cohort(cond)
	s.attachCheckpoint(&cfg, rs)
	*res = crawler.Crawl(s.Web, s.crawlSites, cfg)
	if (*res).Interrupted {
		s.Halted = true
		return
	}
	s.finishPhase("crawl." + cond)
}

// analyze runs one cohort crawl's analysis: Analyze for the control
// crawl; a re-crawl's pages are classified under its own condition
// label into its sites field, finishing the analyze.<cond> phase.
func (s *Study) analyze(cond string) {
	if cond == CondControl {
		s.Analyze()
		return
	}
	_, res, sites, _ := s.cohort(cond)
	*sites = s.analyzeAll((*res).Pages, cond)
	s.finishPhase(analyzePhase(cond))
}

// analyzePhase names a cohort crawl's analysis phase in checkpoints.
func analyzePhase(cond string) string {
	if cond == CondControl {
		return "analyze"
	}
	return "analyze." + cond
}

// crawlConfig builds the shared crawler configuration. Every crawl a
// study launches (control, ground truth, re-crawls, defenses) feeds
// the same telemetry registry; condition labels the crawl's decisions
// in the evidence event log.
func (s *Study) crawlConfig(condition string) crawler.Config {
	cfg := crawler.DefaultConfig()
	cfg.Workers = s.Options.Workers
	cfg.Seed = s.Options.Seed
	cfg.Telemetry = s.tel
	cfg.Condition = condition
	// Every cohort crawl contends with the same fault plans; the demo
	// ground-truth harvest runs fault-free (see Options.FaultRate).
	if condition != CondDemo {
		cfg.Faults = s.Faults
		cfg.Retries = s.Options.Retries
		cfg.VisitTimeout = s.Options.VisitTimeout
	}
	// Every crawl — including the demo harvest — feeds the exemplar
	// reservoir; it lives outside the registry, so this is invisible
	// to bundles.
	cfg.Visits = s.visits
	// Every crawl shares the memos: control, ABP, uBO and the demo
	// harvest draw the same vendor canvases on the same profile, and
	// hash the same data URLs with the same copy-pasted helper.
	cfg.Memo = s.memo
	cfg.Calls = s.calls
	return cfg
}

// attachCheckpoint arms one cohort crawl with the study's checkpoint
// hook. The demo ground-truth harvest is never checkpointed — it runs
// inside the analyze phase, whose checkpoints are phase-boundary only.
func (s *Study) attachCheckpoint(cfg *crawler.Config, rs *crawler.ResumeState) {
	cfg.Resume = rs
	if s.ckpt == nil {
		return
	}
	cfg.CommitEvery = s.ckpt.Every()
	ext := ""
	if cfg.Extension != nil {
		ext = cfg.Extension.Name()
	}
	cfg.OnCommit = s.ckpt.Hook(cfg.Profile.Name, ext)
}

// finishPhase checkpoints a completed pipeline phase.
func (s *Study) finishPhase(name string) {
	if s.ckpt == nil || s.Halted {
		return
	}
	if err := s.ckpt.FinishPhase(name); err != nil {
		fmt.Fprintln(os.Stderr, "canvassing:", err)
	}
}

// events returns the study's evidence event sink (nil-safe for
// analyses that run without telemetry).
func (s *Study) events() *event.Sink {
	if s.tel == nil {
		return nil
	}
	return s.tel.Events
}

// analyzeAll classifies one crawl's pages under the given condition
// label, recording a verdict event per extraction, and accounts for
// the pass: the analyze.<cond> span, the analysis.pages and
// analysis.canvases counters and the /statusz analyses entry.
func (s *Study) analyzeAll(pages []*crawler.PageResult, cond string) []detect.SiteCanvases {
	sp := s.tel.Tracer.Start("analyze."+cond, "pages", fmt.Sprint(len(pages)))
	sites := detect.AnalyzeAllEvents(pages, s.events(), cond)
	canvases := 0
	for i := range sites {
		canvases += len(sites[i].All)
	}
	s.tel.Metrics.Counter("analysis.pages").Add(int64(len(pages)))
	s.tel.Metrics.Counter("analysis.canvases").Add(int64(canvases))
	sp.End()
	s.tel.Status.RecordAnalysis(cond, len(pages), canvases)
	return sites
}

// RunControl performs the control crawl over both cohorts.
func (s *Study) RunControl() {
	defer s.tel.Tracer.Start("crawl.control", "sites", fmt.Sprint(len(s.crawlSites))).End()
	s.crawl(CondControl, nil)
}

// Analyze runs detection, clustering, ground truth and attribution over
// the control crawl, recording every verdict to the evidence log.
// RunControl must have been called.
func (s *Study) Analyze() {
	evs := s.events()
	s.Sites = s.analyzeAll(s.Control.Pages, CondControl)
	sp := s.tel.Tracer.Start("cluster")
	s.Clustering = cluster.BuildEvents(s.Sites, evs)
	sp.End()
	sp = s.tel.Tracer.Start("attrib")
	gt := sp.StartChild("groundtruth")
	s.GroundTruth = attrib.BuildGroundTruthEvents(s.Web, s.Sites, s.crawlConfig(CondDemo), evs)
	gt.End()
	s.Attribution = attrib.AttributeEvents(s.Clustering, s.GroundTruth, s.Sites, evs)
	sp.End()
	s.finishPhase(analyzePhase(CondControl))
}

// RunAdblock performs the two ad-blocker re-crawls (Table 2) and
// analyzes their pages under the "abp"/"ubo" condition labels.
func (s *Study) RunAdblock() {
	sp := s.tel.Tracer.Start("crawl.adblock")
	defer sp.End()
	for _, cond := range []string{CondABP, CondUBO} {
		child := sp.StartChild(cond)
		s.crawl(cond, nil)
		if !s.Halted {
			s.analyze(cond)
		}
		child.End()
		if s.Halted {
			return
		}
	}
}

// RunM1 performs the Apple-silicon validation crawl (§3.1).
func (s *Study) RunM1() {
	defer s.tel.Tracer.Start("crawl.m1").End()
	s.crawl(CondM1, nil)
	if !s.Halted {
		s.analyze(CondM1)
	}
}

// ListsForSeed reconstructs the exact blocklists a study with the
// given seed used — standard lists plus the longtail tracker coverage.
// The verdict service uses it to answer /v1/block queries for a loaded
// bundle with the same rules the original run matched against.
func ListsForSeed(seed uint64) *blocklist.StandardLists {
	return blocklist.NewStandardListsWithTrackers(seed, longtailTrackerCoverage())
}

// longtailTrackerCoverage decides which boutique fingerprinting hosts the
// crowdsourced lists know about. Coverage is nested the way real lists
// correlate: the notorious 15% sit in all three lists, a further slice in
// EasyPrivacy+Disconnect, and EasyPrivacy alone catches most of the rest.
func longtailTrackerCoverage() []blocklist.TrackerHost {
	var out []blocklist.TrackerHost
	for _, id := range web.LongtailActorIDs() {
		host := web.ActorHost(id)
		r := stats.HashString("coverage:"+host) % 100
		t := blocklist.TrackerHost{Host: host}
		switch {
		case r < 10:
			t.EL, t.EP, t.Disc = true, true, true
		case r < 35:
			t.EP, t.Disc = true, true
		case r < 50:
			t.EP = true
		default:
			// ~15% of boutique trackers fly under every list's radar.
			continue
		}
		out = append(out, t)
	}
	return out
}

// cohortSites filters the analyzed sites of one cohort.
func (s *Study) cohortSites(c web.Cohort) []detect.SiteCanvases {
	var out []detect.SiteCanvases
	for i := range s.Sites {
		if s.Sites[i].Cohort == c {
			out = append(out, s.Sites[i])
		}
	}
	return out
}
