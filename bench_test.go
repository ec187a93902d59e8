package canvassing

// Benchmark harness: one benchmark per table and figure of the paper
// (E1–E12), plus ablation benches for the design choices DESIGN.md calls
// out. Analysis benches share a single pre-built study so they measure
// the experiment computation, not the crawl; the crawl itself is
// measured by BenchmarkControlCrawl and the ablations.

import (
	"crypto/sha256"
	"sync"
	"testing"

	"canvassing/internal/adblock"
	"canvassing/internal/blocklist"
	"canvassing/internal/canvas"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/obs"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// benchSetup builds one shared study at 2% scale (400+400 sites).
func benchSetup(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = Run(Options{Seed: 3, Scale: 0.02, WithAdblock: true, WithM1: true})
	})
	return benchStudy
}

func BenchmarkE1Prevalence(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var fp int
	for i := 0; i < b.N; i++ {
		r := s.Prevalence()
		fp = r.Rows[0].FPSites
	}
	b.ReportMetric(float64(fp), "fp-sites")
}

func BenchmarkE2Figure1(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		r := s.Figure1(50)
		rows = len(r.Rows)
	}
	b.ReportMetric(float64(rows), "canvas-groups")
}

func BenchmarkE3Reach(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var unique int
	for i := 0; i < b.N; i++ {
		r := s.Reach()
		unique = r.UniquePopular
	}
	b.ReportMetric(float64(unique), "unique-canvases")
}

func BenchmarkE4Table1(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var attributed int
	for i := 0; i < b.N; i++ {
		r := s.Table1()
		attributed = r.AttributedPop
	}
	b.ReportMetric(float64(attributed), "attributed-sites")
}

func BenchmarkE5Table2(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var blocked int
	for i := 0; i < b.N; i++ {
		r, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		blocked = r.Rows[0].CanvasesPop - r.Rows[1].CanvasesPop
	}
	b.ReportMetric(float64(blocked), "canvases-blocked")
}

func BenchmarkE6Table4(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var any int
	for i := 0; i < b.N; i++ {
		r := s.Table4()
		any = r.Counts["Any"][0]
	}
	b.ReportMetric(float64(any), "any-list-canvases")
}

func BenchmarkE7Evasion(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var firstParty int
	for i := 0; i < b.N; i++ {
		r := s.Evasion()
		firstParty = r.Rows[0].FirstPartySites
	}
	b.ReportMetric(float64(firstParty), "first-party-sites")
}

func BenchmarkE8Randomization(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var checking int
	for i := 0; i < b.N; i++ {
		// Sample size 5 keeps the defense re-crawls proportionate for a
		// benchmark loop.
		r := s.Randomization(5)
		checking = r.CheckingPop
	}
	b.ReportMetric(float64(checking), "checking-sites")
}

func BenchmarkE9CrossMachine(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var diff int
	for i := 0; i < b.N; i++ {
		r, err := s.CrossMachine()
		if err != nil {
			b.Fatal(err)
		}
		diff = r.BytesDifferEvents
	}
	b.ReportMetric(float64(diff), "byte-diff-events")
}

func BenchmarkE10Filters(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var yield float64
	for i := 0; i < b.N; i++ {
		r := s.Filters()
		st := r.PerCohort[web.Popular]
		yield = st.FingerprintableFraction()
	}
	b.ReportMetric(yield*100, "yield-pct")
}

func BenchmarkE11Table3(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Table3()
	}
}

func BenchmarkE12RuleContext(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	var rules int
	for i := 0; i < b.N; i++ {
		r := s.RuleContext()
		rules = r.DocumentOnlyRules
	}
	b.ReportMetric(float64(rules), "document-rules")
}

// --- end-to-end and ablation benches ---------------------------------------

// BenchmarkControlCrawl measures a full control crawl of a 1% web.
func BenchmarkControlCrawl(b *testing.B) {
	w := web.Generate(web.Config{Seed: 5, Scale: 0.01, TrancoMax: 1_000_000})
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	cfg := crawler.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crawler.Crawl(w, sites, cfg)
	}
}

// BenchmarkCrawlWithTelemetry is BenchmarkControlCrawl with the obs
// registry attached — the instrumented path must stay within ~5% of
// the bare path (see DESIGN.md §5).
func BenchmarkCrawlWithTelemetry(b *testing.B) {
	w := web.Generate(web.Config{Seed: 5, Scale: 0.01, TrancoMax: 1_000_000})
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	cfg := crawler.DefaultConfig()
	cfg.Telemetry = obs.NewTelemetry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crawler.Crawl(w, sites, cfg)
	}
	b.ReportMetric(float64(cfg.Telemetry.Metrics.Counter("crawl.visits.ok").Value())/float64(b.N), "pages-ok")
}

// BenchmarkCrawlWithEvents is BenchmarkCrawlWithTelemetry plus an
// ad-blocker extension, so the evidence event log receives
// blocklist.match events on the hot path. A nil event sink must keep
// BenchmarkControlCrawl allocation-free; this bench bounds the cost
// when the sink is live.
func BenchmarkCrawlWithEvents(b *testing.B) {
	w := web.Generate(web.Config{Seed: 5, Scale: 0.01, TrancoMax: 1_000_000})
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	cfg := crawler.DefaultConfig()
	cfg.Telemetry = obs.NewTelemetry()
	cfg.Condition = "bench"
	cfg.Extension = adblock.NewUBlockOrigin(blocklist.NewStandardListsWithTrackers(5, longtailTrackerCoverage()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crawler.Crawl(w, sites, cfg)
	}
	b.ReportMetric(float64(cfg.Telemetry.Events.Total())/float64(b.N), "events")
}

// BenchmarkAblationDisplayList compares a crawl with its own
// display-list memo, which serves a repeated drawing's data URL without
// rasterising or encoding it again, against the same crawl without one.
func BenchmarkAblationDisplayList(b *testing.B) {
	w := web.Generate(web.Config{Seed: 5, Scale: 0.01, TrancoMax: 1_000_000})
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	for _, name := range []string{"memo", "nomemo"} {
		b.Run(name, func(b *testing.B) {
			cfg := crawler.DefaultConfig()
			for i := 0; i < b.N; i++ {
				cfg.Memo = nil
				if name == "memo" {
					cfg.Memo = canvas.NewMemo()
				}
				crawler.Crawl(w, sites, cfg)
			}
		})
	}
}

// BenchmarkAblationCrawlWorkers sweeps the crawler worker-pool width.
func BenchmarkAblationCrawlWorkers(b *testing.B) {
	w := web.Generate(web.Config{Seed: 5, Scale: 0.01, TrancoMax: 1_000_000})
	sites := append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	for _, workers := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "w1", 4: "w4", 16: "w16"}[workers], func(b *testing.B) {
			cfg := crawler.DefaultConfig()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				crawler.Crawl(w, sites, cfg)
			}
		})
	}
}

// BenchmarkAblationHashing compares the canvas identity function used by
// clustering: SHA-256 over the data URL (collision-proof, what we ship)
// vs 64-bit FNV-1a (faster, collision risk at web scale).
func BenchmarkAblationHashing(b *testing.B) {
	s := benchSetup(b)
	var urls []string
	for i := range s.Sites {
		for _, c := range s.Sites[i].All {
			urls = append(urls, c.DataURL)
		}
	}
	if len(urls) == 0 {
		b.Fatal("no canvases")
	}
	b.Run("sha256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range urls {
				_ = sha256.Sum256([]byte(u))
			}
		}
	})
	b.Run("fnv64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range urls {
				_ = stats.HashString(u)
			}
		}
	})
	b.Run("sha256-via-detect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, u := range urls {
				_ = detect.HashDataURL(u)
			}
		}
	})
}

// BenchmarkAblationBlocklistScan measures full-list matching for a hit
// near the front, a hit after the filler rules, and a complete miss —
// the cost profile that would motivate a compiled matcher.
func BenchmarkAblationBlocklistScan(b *testing.B) {
	lists := blocklist.NewStandardListsWithTrackers(3, longtailTrackerCoverage())
	reqs := map[string]blocklist.Request{
		"early-hit": {URL: "https://bank.com/akam/13/abc", Type: blocklist.TypeScript, ThirdParty: true},
		"late-hit":  {URL: "https://" + web.ActorHost(7) + "/beacon.js", Type: blocklist.TypeScript, ThirdParty: true},
		"miss":      {URL: "https://plain-site.example/js/app.js", Type: blocklist.TypeScript, ThirdParty: true},
	}
	for name, req := range reqs {
		req := req
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lists.EasyList.Match(req)
				lists.EasyPrivacy.Match(req)
			}
		})
	}
}

// BenchmarkFullStudyTiny measures the entire pipeline end to end on the
// smallest meaningful web.
func BenchmarkFullStudyTiny(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Run(Options{Seed: uint64(i) + 1, Scale: 0.005})
	}
}

// BenchmarkVisitSpanOverhead measures what per-visit span trees cost
// the crawl: the same control crawl with the exemplar reservoir off
// and on. The delta is the price of building a tree per visit and
// offering it to the reservoir from the committer.
func BenchmarkVisitSpanOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "off"
		if traced {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := New(Options{Seed: 3, Scale: 0.02, Workers: 4, TraceVisits: traced})
				s.RunControl()
			}
		})
	}
}

// BenchmarkCriticalPath measures the tracescope analyzer over a forest
// the size of a fully-loaded reservoir (every condition at the default
// slow+head bounds).
func BenchmarkCriticalPath(b *testing.B) {
	r := tracez.NewReservoir(3, 0, 0)
	for _, cond := range []string{"control", "abp", "ubo"} {
		for i := 0; i < 400; i++ {
			vb := tracez.NewVisit(cond, web.ActorHost(i), i+1, i)
			conn := vb.Open(vb.Root(), "connect")
			conn.Cost = int64(1 + i%3)
			vb.Close(conn)
			sc := vb.Open(vb.Root(), "script")
			for _, ph := range []string{"fetch", "parse", "exec"} {
				sp := vb.Open(sc, ph)
				sp.Cost = int64(512 + 97*i)
				vb.Close(sp)
			}
			vb.Close(sc)
			r.Offer(vb.Finish("ok"))
		}
	}
	var forest []*tracez.Span
	for _, ce := range r.Snapshot() {
		for _, vt := range append(ce.Slow, ce.Head...) {
			forest = append(forest, vt.Root)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := tracez.Analyze(forest)
		if rep.Roots != len(forest) {
			b.Fatal("analyzer lost roots")
		}
	}
}
