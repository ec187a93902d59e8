package canvassing

import (
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"canvassing/internal/web"
)

// sharedStudy runs the full pipeline once (expensive) and is reused by
// every test in this package.
var (
	studyOnce sync.Once
	study     *Study
)

func getStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		study = Run(Options{Seed: 7, Scale: 0.05, WithAdblock: true, WithM1: true})
	})
	return study
}

func TestPrevalenceMatchesPaperShape(t *testing.T) {
	s := getStudy(t)
	prev := s.Prevalence()
	if len(prev.Rows) != 2 {
		t.Fatal("two cohorts")
	}
	pop, tail := prev.Rows[0], prev.Rows[1]
	popPct := float64(pop.FPSites) / float64(pop.CrawledOK)
	tailPct := float64(tail.FPSites) / float64(tail.CrawledOK)
	if popPct < 0.09 || popPct > 0.17 {
		t.Fatalf("popular prevalence %.3f, want ~0.127", popPct)
	}
	if tailPct < 0.06 || tailPct > 0.14 {
		t.Fatalf("tail prevalence %.3f, want ~0.099", tailPct)
	}
	if popPct <= tailPct {
		t.Fatal("popular prevalence should exceed tail (paper: 12.7% vs 9.9%)")
	}
	if pop.Max < 30 {
		t.Fatalf("max canvases = %.0f, want the 60-canvas outlier", pop.Max)
	}
	if pop.Median < 1 || pop.Median > 3 {
		t.Fatalf("median = %.1f, want ~2", pop.Median)
	}
}

func TestFigure1Shape(t *testing.T) {
	s := getStudy(t)
	fig := s.Figure1(50)
	if len(fig.Rows) < 20 {
		t.Fatalf("only %d canvas groups", len(fig.Rows))
	}
	// Long-tailed: the first bar dwarfs the last.
	if fig.Rows[0].PopularSites < 5*maxInt(fig.Rows[len(fig.Rows)-1].PopularSites, 1) {
		t.Fatalf("distribution not long-tailed: first=%d last=%d",
			fig.Rows[0].PopularSites, fig.Rows[len(fig.Rows)-1].PopularSites)
	}
	// The Shopify outlier exists: much more tail than popular.
	if fig.ShopifyOutlier < 0 {
		t.Fatal("no tail outlier found")
	}
	out := fig.Rows[fig.ShopifyOutlier]
	if out.TailSites <= 2*out.PopularSites {
		t.Fatalf("outlier not pronounced: pop=%d tail=%d", out.PopularSites, out.TailSites)
	}
	if out.Vendor != "shopify" {
		t.Fatalf("outlier attributed to %q, want shopify", out.Vendor)
	}
	// Rendering works and marks the outlier.
	text := fig.Render()
	if !strings.Contains(text, "tail outlier") {
		t.Fatal("render should mark the outlier")
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestReachShape(t *testing.T) {
	s := getStudy(t)
	r := s.Reach()
	if r.UniquePopular <= r.UniqueTail {
		t.Fatalf("popular cohort should have more unique canvases: %d vs %d",
			r.UniquePopular, r.UniqueTail)
	}
	top6Pop := float64(r.Top6CoveredPop) / float64(r.TotalFPPop)
	top6Tail := float64(r.Top6CoveredTail) / float64(r.TotalFPTail)
	if top6Pop < 0.5 || top6Pop > 0.85 {
		t.Fatalf("top-6 popular coverage %.2f, want ~0.70", top6Pop)
	}
	if top6Tail >= top6Pop {
		t.Fatal("top-6 coverage should be lower among tail sites (47.1% vs 70.1%)")
	}
	overlap := float64(r.Overlap.TailSharingWithTop) / float64(r.Overlap.TailFPSites)
	if overlap < 0.75 {
		t.Fatalf("tail-popular canvas overlap %.2f, want ~0.91", overlap)
	}
	// Single-vendor reach bounded around 3% of the full cohort
	// (23% of fp sites ≈ 3% of crawled sites).
	prev := s.Prevalence()
	reachOfCohort := float64(r.TopGroupPopularSites) / float64(prev.Rows[0].CrawledOK)
	if reachOfCohort > 0.06 {
		t.Fatalf("single canvas reach %.3f of cohort, paper bound ~0.03", reachOfCohort)
	}
}

func TestTable1Shape(t *testing.T) {
	s := getStudy(t)
	t1 := s.Table1()
	rows := map[string]VendorRow{}
	for _, r := range t1.Rows {
		rows[r.Vendor] = r
	}
	ak, fp := rows["Akamai"], rows["FingerprintJS"]
	// Akamai and FingerprintJS dominate the popular cohort (~23%/~22%).
	if ak.Popular < t1.FPPop/8 {
		t.Fatalf("akamai popular share too low: %d of %d", ak.Popular, t1.FPPop)
	}
	if fp.Popular < t1.FPPop/8 {
		t.Fatalf("fpjs popular share too low: %d of %d", fp.Popular, t1.FPPop)
	}
	// Shopify dominates the tail (27% tail vs 2% popular).
	sh := rows["Shopify"]
	if sh.Tail <= sh.Popular {
		t.Fatal("shopify must skew tail-ward")
	}
	// Attribution covers roughly 73%/71% of fingerprinting sites.
	popShare := float64(t1.AttributedPop) / float64(t1.FPPop)
	tailShare := float64(t1.AttributedTail) / float64(t1.FPTail)
	if popShare < 0.55 || popShare > 0.9 {
		t.Fatalf("popular attribution share %.2f, want ~0.73", popShare)
	}
	if tailShare < 0.55 || tailShare > 0.9 {
		t.Fatalf("tail attribution share %.2f, want ~0.71", tailShare)
	}
	// mail.ru reach: a third of .ru popular sites — proxy check: nonzero
	// and concentrated.
	if rows["mail.ru"].Popular == 0 {
		t.Fatal("mail.ru missing")
	}
}

func TestTable2Shape(t *testing.T) {
	s := getStudy(t)
	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 3 {
		t.Fatal("three conditions")
	}
	control, abp, ubo := t2.Rows[0], t2.Rows[1], t2.Rows[2]
	for _, blocked := range []Table2Row{abp, ubo} {
		if blocked.CanvasesPop > control.CanvasesPop || blocked.SitesPop > control.SitesPop {
			t.Fatal("blocking cannot increase counts")
		}
		drop := float64(control.CanvasesPop-blocked.CanvasesPop) / float64(control.CanvasesPop)
		// §5.2: "only decreased by about 5%".
		if drop > 0.15 {
			t.Fatalf("%s canvas drop %.2f, want ~0.05", blocked.Condition, drop)
		}
		if drop == 0 {
			t.Fatalf("%s blocked nothing", blocked.Condition)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	s := getStudy(t)
	t4 := s.Table4()
	if t4.Totals[0] == 0 || t4.Totals[1] == 0 {
		t.Fatal("no canvases")
	}
	pct := func(name string, idx int) float64 {
		return float64(t4.Counts[name][idx]) / float64(t4.Totals[idx])
	}
	// Ordering: EasyPrivacy > EasyList > Disconnect (36% > 31% > 21%).
	if !(pct("EasyPrivacy", 0) > pct("Disconnect", 0)) {
		t.Fatalf("EP (%.2f) should exceed Disconnect (%.2f)", pct("EasyPrivacy", 0), pct("Disconnect", 0))
	}
	// Any-list coverage is a large minority (paper 45%/37%).
	if pct("Any", 0) < 0.25 || pct("Any", 0) > 0.6 {
		t.Fatalf("Any coverage %.2f, want ~0.45", pct("Any", 0))
	}
	if pct("Any", 1) >= pct("Any", 0) {
		t.Fatal("tail coverage should be below popular (37% vs 45%)")
	}
	// All-three coverage is a meaningful but small slice.
	if t4.Counts["All"][0] == 0 {
		t.Fatal("some canvases must be covered by all three lists")
	}
	if pct("All", 0) >= pct("Disconnect", 0) {
		t.Fatal("All must be below each individual list")
	}
}

// TestTable4MatchesPerCanvasMatching: Table4 matches each distinct
// script URL against the lists once, and must count exactly what
// matching every fingerprintable canvas's script URL counts.
func TestTable4MatchesPerCanvasMatching(t *testing.T) {
	for _, seed := range []uint64{3, 11} {
		s := New(Options{Seed: seed, Scale: 0.02})
		s.RunControl()
		s.Analyze()
		want := Table4Result{Counts: map[string][2]int{}}
		for i := range s.Sites {
			st := &s.Sites[i]
			if !st.OK || st.Cohort == web.Demo {
				continue
			}
			idx := 0
			if st.Cohort == web.Tail {
				idx = 1
			}
			for _, c := range st.Fingerprintable() {
				want.Totals[idx]++
				el, ep, disc := s.Lists.CoverageOf(c.ScriptURL, scriptHost(c.ScriptURL))
				for name, in := range map[string]bool{"EasyList": el, "EasyPrivacy": ep, "Disconnect": disc,
					"Any": el || ep || disc, "All": el && ep && disc} {
					if in {
						bump(want.Counts, name, idx)
					}
				}
			}
		}
		if got := s.Table4(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Table4 = %+v, per-canvas matching gives %+v", seed, got, want)
		}
		if want.Totals[0] == 0 || len(want.Counts) != 5 {
			t.Fatalf("seed %d: too few canvases to compare: %+v", seed, want)
		}
	}
}

func TestEvasionShape(t *testing.T) {
	s := getStudy(t)
	ev := s.Evasion()
	pop, tail := ev.Rows[0], ev.Rows[1]
	fpPop := float64(pop.FirstPartySites) / float64(pop.FPSites)
	fpTail := float64(tail.FirstPartySites) / float64(tail.FPSites)
	if fpPop < 0.35 || fpPop > 0.65 {
		t.Fatalf("popular first-party share %.2f, want ~0.49", fpPop)
	}
	if fpTail < 0.35 || fpTail > 0.68 {
		t.Fatalf("tail first-party share %.2f, want ~0.52", fpTail)
	}
	subPop := float64(pop.SubdomainSites) / float64(pop.FPSites)
	subTail := float64(tail.SubdomainSites) / float64(tail.FPSites)
	if subPop < 0.04 || subPop > 0.18 {
		t.Fatalf("popular subdomain share %.2f, want ~0.095", subPop)
	}
	if subTail >= subPop {
		t.Fatal("subdomain routing should skew popular (9.5% vs 2.1%)")
	}
	if pop.CDNSites == 0 {
		t.Fatal("some CDN-served scripts expected")
	}
}

func TestRandomizationShape(t *testing.T) {
	s := getStudy(t)
	r := s.Randomization(30)
	frac := float64(r.CheckingPop+r.CheckingTail) / float64(r.FPPop+r.FPTail)
	if frac < 0.3 || frac > 0.65 {
		t.Fatalf("double-render check fraction %.2f, want ~0.45", frac)
	}
	if r.SampleSites == 0 {
		t.Fatal("no double-rendering sites sampled")
	}
	if r.PerRenderDetected != r.SampleSites {
		t.Fatalf("per-render noise detected on %d/%d sites, want all", r.PerRenderDetected, r.SampleSites)
	}
	if r.PerSessionDetected != 0 {
		t.Fatalf("per-session noise detected on %d sites, want 0 (footnote 7)", r.PerSessionDetected)
	}
}

func TestCrossMachineShape(t *testing.T) {
	s := getStudy(t)
	cm, err := s.CrossMachine()
	if err != nil {
		t.Fatal(err)
	}
	if !cm.GroupingConsistent {
		t.Fatal("grouping must be invariant across machines (§3.1)")
	}
	if cm.BytesDifferEvents == 0 {
		t.Fatal("canvas bytes must differ across machines")
	}
	if cm.BytesDifferEvents < cm.EventsCompared/2 {
		t.Fatalf("too few byte differences: %d of %d", cm.BytesDifferEvents, cm.EventsCompared)
	}
}

func TestFiltersShape(t *testing.T) {
	s := getStudy(t)
	f := s.Filters()
	pop := f.PerCohort[web.Popular]
	yield := float64(pop.Fingerprintable) / float64(pop.TotalExtractions)
	if yield < 0.7 || yield > 0.95 {
		t.Fatalf("fingerprintable yield %.2f, want ~0.83", yield)
	}
	if pop.SitesFullyExcluded == 0 {
		t.Fatal("fully-excluded sites expected (A.2: 155)")
	}
}

func TestTable3AndRuleContext(t *testing.T) {
	s := getStudy(t)
	t3 := s.Table3()
	if len(t3.Rows) != 13 {
		t.Fatalf("Table 3 rows = %d", len(t3.Rows))
	}
	methods := map[string]string{}
	for _, r := range t3.Rows {
		methods[r.Vendor] = r.Method
	}
	if methods["Akamai"] != "demo" || methods["Imperva"] != "url-regexp" {
		t.Fatalf("methods: %v", methods)
	}
	rc := s.RuleContext()
	if rc.DocumentOnlyRules != 828 {
		t.Fatalf("document-only rules = %d, want 828", rc.DocumentOnlyRules)
	}
	if !rc.MgidListed || rc.MgidMatchesScript || rc.MgidBlockedLive {
		t.Fatalf("mgid gap not reproduced: %+v", rc)
	}
	if !rc.BlockedByEasyPriv {
		t.Fatal("EasyPrivacy should cover mgid scripts")
	}
}

func TestRenderAllComplete(t *testing.T) {
	s := getStudy(t)
	text := s.RenderAll()
	for _, want := range []string{
		"E1 —", "E2 —", "E3 —", "E4 —", "E5 —", "E6 —",
		"E7 —", "E8 —", "E9 —", "E10 —", "E11 —", "E12 —",
		"Akamai", "FingerprintJS", "Shopify",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	cmp := s.PaperComparison()
	if !strings.Contains(cmp, "paper: 12.7%") {
		t.Fatal("comparison missing paper baselines")
	}
}

func TestMissingCrawlErrors(t *testing.T) {
	s := New(Options{Seed: 3, Scale: 0.01})
	s.RunControl()
	s.Analyze()
	if _, err := s.Table2(); err == nil {
		t.Fatal("Table2 must require WithAdblock")
	}
	if _, err := s.CrossMachine(); err == nil {
		t.Fatal("CrossMachine must require WithM1")
	}
	// RenderAll still works, skipping those sections.
	text := s.RenderAll()
	if !strings.Contains(text, "skipped") {
		t.Fatal("render should note skipped experiments")
	}

	// A study its checkpoint writer halted mid-crawl holds that crawl's
	// interrupted result but no analysis of it: the experiments reading
	// it must say so instead of analysing the uncommitted pages.
	halted := func(stopAfter int) *Study {
		s := New(Options{Seed: 11, Scale: 0.02, WithAdblock: true, WithM1: true,
			CheckpointDir: t.TempDir(), CheckpointEvery: 100})
		s.Checkpointer().StopAfter = stopAfter
		s.Run()
		return s
	}
	midUBO := halted(18)
	if !midUBO.Halted || midUBO.UBO == nil || !midUBO.UBO.Interrupted {
		t.Fatal("StopAfter 18 must halt the study inside the uBO re-crawl")
	}
	if _, err := midUBO.Table2(); err == nil {
		t.Fatal("Table2 must fail on a study halted mid-uBO")
	}
	midM1 := halted(28)
	if !midM1.Halted || midM1.M1 == nil || !midM1.M1.Interrupted {
		t.Fatal("StopAfter 28 must halt the study inside the M1 crawl")
	}
	if _, err := midM1.Table2(); err != nil {
		t.Fatalf("Table2 on a study halted after both ad-blocker crawls: %v", err)
	}
	for _, h := range []*Study{midUBO, midM1} {
		if _, err := h.CrossMachine(); err == nil {
			t.Fatal("CrossMachine must fail on a study halted before its M1 analysis")
		}
		h.RenderAll()
		h.PaperComparison()
	}
}

// TestControlCrawlSuffices pins the crawl selection of `repro -exp`:
// every experiment it runs on the control crawl alone renders the same
// bytes as on a study with all four crawls.
func TestControlCrawlSuffices(t *testing.T) {
	full := getStudy(t)
	control := Run(Options{Seed: full.Options.Seed, Scale: full.Options.Scale})
	for _, e := range []struct {
		id     string
		render func(*Study) string
	}{
		{"e1", func(s *Study) string { return s.Prevalence().Render() }},
		{"e2", func(s *Study) string { return s.Figure1(50).Render() }},
		{"e3", func(s *Study) string { return s.Reach().Render() }},
		{"e4", func(s *Study) string { return s.Table1().Render() }},
		{"e6", func(s *Study) string { return s.Table4().Render() }},
		{"e7", func(s *Study) string { return s.Evasion().Render() }},
		{"e8", func(s *Study) string { return s.Randomization(40).Render() }},
		{"e10", func(s *Study) string { return s.Filters().Render() }},
		{"e11", func(s *Study) string { return s.Table3().Render() }},
		{"e12", func(s *Study) string { return s.RuleContext().Render() }},
	} {
		if got, want := e.render(control), e.render(full); got != want {
			t.Errorf("%s on the control crawl alone:\n%s\nwith every crawl:\n%s", e.id, got, want)
		}
	}
}

func TestDumpSampleCanvases(t *testing.T) {
	s := getStudy(t)
	dir := t.TempDir()
	files, err := s.DumpSampleCanvases(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no files written")
	}
	kinds := map[string]bool{}
	for _, f := range files {
		for _, kind := range []string{"fingerprintable", "lossy-format", "small-canvas", "animation-script"} {
			if strings.HasPrefix(f, kind) {
				kinds[kind] = true
			}
		}
		if _, err := os.Stat(dir + "/" + f); err != nil {
			t.Fatalf("missing artifact %s: %v", f, err)
		}
	}
	for _, want := range []string{"fingerprintable", "lossy-format", "small-canvas"} {
		if !kinds[want] {
			t.Fatalf("missing artifact kind %s (got %v)", want, kinds)
		}
	}
}

func TestInnerPagesExtension(t *testing.T) {
	s := getStudy(t)
	r := s.InnerPages()
	if r.CrawledPop == 0 || r.CrawledTail == 0 {
		t.Fatal("no crawled sites")
	}
	// Following inner pages can only reveal MORE fingerprinting.
	if r.InnerFPPop < r.HomepageFPPop || r.InnerFPTail < r.HomepageFPTail {
		t.Fatalf("inner crawl lost sites: %d→%d / %d→%d",
			r.HomepageFPPop, r.InnerFPPop, r.HomepageFPTail, r.InnerFPTail)
	}
	// And it should reveal a measurable amount (login-page security
	// deployments were planted).
	if r.InnerFPPop == r.HomepageFPPop {
		t.Fatal("inner pages should add fingerprinting sites")
	}
	if !strings.Contains(r.Render(), "EX2") {
		t.Fatal("render")
	}
}

func TestEntropyAnalysisPublicAPI(t *testing.T) {
	r := EntropyAnalysis(12, 3)
	if r.Machines != 12 || len(r.Results) != 13 {
		t.Fatalf("machines=%d vendors=%d", r.Machines, len(r.Results))
	}
	// Ranked descending.
	for i := 1; i < len(r.Results); i++ {
		if r.Results[i].EntropyBits > r.Results[i-1].EntropyBits {
			t.Fatal("results not ranked")
		}
	}
	if !strings.Contains(r.Render(), "EX1") {
		t.Fatal("render")
	}
}

func TestPaperComparisonCoversAllMetrics(t *testing.T) {
	s := getStudy(t)
	cmp := s.PaperComparison()
	for _, metric := range []string{
		"prevalence", "canvases per fp site", "unique canvases",
		"top-6 canvas coverage", "sharing canvases with popular",
		"tail-only canvas group", "attributed share",
		"EasyList coverage", "EasyPrivacy coverage", "Disconnect coverage",
		"any-list coverage", "all-three coverage",
		"first-party canvas", "subdomain-served", "CDN-served",
		"double-render check", "fingerprintable share",
		"Adblock Plus", "uBlock Origin", "cross-machine grouping",
	} {
		if !strings.Contains(cmp, metric) {
			t.Fatalf("comparison ledger missing metric %q", metric)
		}
	}
}

func TestStudyDeterminism(t *testing.T) {
	a := Run(Options{Seed: 9, Scale: 0.01})
	b := Run(Options{Seed: 9, Scale: 0.01})
	if a.RenderAll() != b.RenderAll() {
		t.Fatal("identical options must reproduce the identical report")
	}
}
