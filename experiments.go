package canvassing

import (
	"fmt"
	"sort"
	"strings"

	"canvassing/internal/adblock"
	"canvassing/internal/blocklist"
	"canvassing/internal/cluster"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/netsim"
	"canvassing/internal/randomize"
	"canvassing/internal/report"
	"canvassing/internal/services"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

// --- E1: prevalence (§4.1) ------------------------------------------------

// PrevalenceRow summarizes one cohort.
type PrevalenceRow struct {
	Cohort      web.Cohort
	CrawledOK   int
	FPSites     int
	MeanPerSite float64
	Median      float64
	Max         float64
}

// PrevalenceResult is experiment E1.
type PrevalenceResult struct {
	Rows []PrevalenceRow
}

// Prevalence computes E1 from the control crawl.
func (s *Study) Prevalence() PrevalenceResult {
	var res PrevalenceResult
	for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
		sites := s.cohortSites(cohort)
		st := detect.ComputeStats(sites)
		counts := cluster.PerSiteCounts(sites, cohort)
		sum := stats.Summarize(counts)
		res.Rows = append(res.Rows, PrevalenceRow{
			Cohort:      cohort,
			CrawledOK:   st.SitesCrawledOK,
			FPSites:     st.SitesFingerprinting,
			MeanPerSite: sum.Mean,
			Median:      sum.Median,
			Max:         sum.Max,
		})
	}
	return res
}

// Render formats E1.
func (r PrevalenceResult) Render() string {
	t := report.NewTable("E1 — Canvas fingerprinting prevalence (§4.1)",
		"cohort", "crawled-ok", "fp-sites", "prevalence", "mean/site", "median", "max")
	for _, row := range r.Rows {
		t.AddRow(row.Cohort, row.CrawledOK, row.FPSites,
			report.Pct(row.FPSites, row.CrawledOK),
			fmt.Sprintf("%.2f", row.MeanPerSite), row.Median, row.Max)
	}
	return t.String()
}

// --- E2: Figure 1 ------------------------------------------------------------

// Figure1Row is one bar of Figure 1.
type Figure1Row struct {
	Rank         int
	PopularSites int
	TailSites    int
	Vendor       string // attributed vendor slug, "" if unknown
}

// Figure1Result is experiment E2.
type Figure1Result struct {
	Rows []Figure1Row
	// ShopifyOutlier is the index (0-based) of the canvas whose tail
	// count most exceeds its popular count, the paper's Shopify bar;
	// -1 if none.
	ShopifyOutlier int
}

// Figure1 computes the top-k canvas popularity distribution.
func (s *Study) Figure1(k int) Figure1Result {
	res := Figure1Result{ShopifyOutlier: -1}
	groupVendor := s.groupVendorMap()
	best := 0
	for i, g := range s.Clustering.TopK(k) {
		row := Figure1Row{
			Rank:         i + 1,
			PopularSites: g.SiteCount(web.Popular),
			TailSites:    g.SiteCount(web.Tail),
			Vendor:       groupVendor[g.Hash],
		}
		res.Rows = append(res.Rows, row)
		if d := row.TailSites - row.PopularSites; d > best {
			best = d
			res.ShopifyOutlier = i
		}
	}
	return res
}

// groupVendorMap attributes each group hash to a vendor slug using the
// study's attribution ground truth.
func (s *Study) groupVendorMap() map[string]string {
	out := map[string]string{}
	for _, g := range s.Clustering.Groups {
		for slug, hashes := range s.GroundTruth.Hashes {
			if hashes[g.Hash] {
				out[g.Hash] = slug
				break
			}
		}
	}
	return out
}

// Render formats E2 as an ASCII Figure 1.
func (r Figure1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("E2 — Figure 1: sites per top test canvas (popular # / tail ~)\n")
	maxV := 1
	for _, row := range r.Rows {
		if row.PopularSites > maxV {
			maxV = row.PopularSites
		}
		if row.TailSites > maxV {
			maxV = row.TailSites
		}
	}
	for i, row := range r.Rows {
		marker := ""
		if i == r.ShopifyOutlier {
			marker = "  <-- tail outlier (Shopify)"
		}
		vendor := row.Vendor
		if vendor == "" {
			vendor = "-"
		}
		sb.WriteString(fmt.Sprintf("%3d %-22s pop %4d %-30s tail %4d %-30s%s\n",
			row.Rank, vendor, row.PopularSites,
			report.Bar(float64(row.PopularSites), float64(maxV), 30),
			row.TailSites,
			strings.ReplaceAll(report.Bar(float64(row.TailSites), float64(maxV), 30), "#", "~"),
			marker))
	}
	return sb.String()
}

// --- E3: reach (§4.2) -----------------------------------------------------------

// ReachResult is experiment E3.
type ReachResult struct {
	UniquePopular   int
	UniqueTail      int
	Top6CoveredPop  int
	TotalFPPop      int
	Top6CoveredTail int
	TotalFPTail     int
	Overlap         cluster.OverlapStats
	// TopGroupPopularShare is the largest single-canvas reach as a
	// fraction of popular fingerprinting sites (the "at most 3%" bound).
	TopGroupPopularSites int
}

// Reach computes E3.
func (s *Study) Reach() ReachResult {
	var r ReachResult
	r.UniquePopular = s.Clustering.UniqueCanvases(web.Popular)
	r.UniqueTail = s.Clustering.UniqueCanvases(web.Tail)
	r.Top6CoveredPop, r.TotalFPPop = s.Clustering.SitesCoveredByTop(6, web.Popular)
	r.Top6CoveredTail, r.TotalFPTail = s.Clustering.SitesCoveredByTop(6, web.Tail)
	r.Overlap = s.Clustering.Overlap()
	if len(s.Clustering.Groups) > 0 {
		r.TopGroupPopularSites = s.Clustering.Groups[0].SiteCount(web.Popular)
	}
	return r
}

// Render formats E3.
func (r ReachResult) Render() string {
	var sb strings.Builder
	sb.WriteString("E3 — Reach and canvas sharing (§4.2)\n")
	fmt.Fprintf(&sb, "  unique fingerprinting canvases: popular %d, tail %d\n", r.UniquePopular, r.UniqueTail)
	fmt.Fprintf(&sb, "  six most-frequent canvases cover: popular %s, tail %s of fp sites\n",
		report.Pct(r.Top6CoveredPop, r.TotalFPPop), report.Pct(r.Top6CoveredTail, r.TotalFPTail))
	fmt.Fprintf(&sb, "  tail fp sites sharing a canvas with a popular site: %s\n",
		report.Pct(r.Overlap.TailSharingWithTop, r.Overlap.TailFPSites))
	fmt.Fprintf(&sb, "  largest tail-only canvas group: %d sites (next: %d)\n",
		r.Overlap.LargestTailOnlyGroup, r.Overlap.SecondTailOnlyGroup)
	fmt.Fprintf(&sb, "  single-canvas max reach: %d popular sites (%s of the cohort's fp sites)\n",
		r.TopGroupPopularSites, report.Pct(r.TopGroupPopularSites, r.TotalFPPop))
	return sb.String()
}

// --- E4: Table 1 --------------------------------------------------------------------

// Table1Result is experiment E4.
type Table1Result struct {
	Rows            []VendorRow
	AttributedPop   int
	AttributedTail  int
	FPPop           int
	FPTail          int
	CommercialFPJS  [2]int
	RebranderCounts map[string][2]int
}

// VendorRow is one vendor's attribution outcome.
type VendorRow struct {
	Vendor        string
	Security      bool
	Popular, Tail int
	Method        string
}

// Table1 computes E4 from the attribution pass.
func (s *Study) Table1() Table1Result {
	a := s.Attribution
	res := Table1Result{
		AttributedPop:   a.AttributedSites[web.Popular],
		AttributedTail:  a.AttributedSites[web.Tail],
		FPPop:           a.FPSites[web.Popular],
		FPTail:          a.FPSites[web.Tail],
		CommercialFPJS:  [2]int{a.FPJS.CommercialPopular, a.FPJS.CommercialTail},
		RebranderCounts: a.FPJS.Rebranders,
	}
	for _, row := range a.Rows {
		res.Rows = append(res.Rows, VendorRow{
			Vendor:   row.Vendor,
			Security: row.Security,
			Popular:  row.Popular,
			Tail:     row.Tail,
			Method:   string(row.Method),
		})
	}
	return res
}

// Render formats E4 like Table 1.
func (r Table1Result) Render() string {
	t := report.NewTable("E4 — Table 1: sites linked to each fingerprinting vendor",
		"service", "category", "top", "top%", "tail", "tail%", "method")
	for _, row := range r.Rows {
		cat := "other"
		if row.Security {
			cat = "security"
		}
		t.AddRow(row.Vendor, cat, row.Popular, report.Pct(row.Popular, r.FPPop),
			row.Tail, report.Pct(row.Tail, r.FPTail), row.Method)
	}
	t.AddRow("Total attributed", "", r.AttributedPop, report.Pct(r.AttributedPop, r.FPPop),
		r.AttributedTail, report.Pct(r.AttributedTail, r.FPTail), "")
	out := t.String()
	out += fmt.Sprintf("  FingerprintJS commercial tier: %d popular, %d tail\n",
		r.CommercialFPJS[0], r.CommercialFPJS[1])
	var slugs []string
	for slug := range r.RebranderCounts {
		slugs = append(slugs, slug)
	}
	sort.Strings(slugs)
	for _, slug := range slugs {
		c := r.RebranderCounts[slug]
		out += fmt.Sprintf("  FPJS-OSS rebrander %-14s %d popular, %d tail\n", slug+":", c[0], c[1])
	}
	return out
}

// --- E5: Table 2 -----------------------------------------------------------------------

// Table2Row is one crawl condition's outcome.
type Table2Row struct {
	Condition    string
	CanvasesPop  int
	CanvasesTail int
	SitesPop     int
	SitesTail    int
}

// Table2Result is experiment E5.
type Table2Result struct {
	Rows []Table2Row
}

// Table2 computes E5 from the analysed control and ad-blocker crawls
// (RunAdblock, or Options.WithAdblock). It errors when an analysis it
// reads is absent, as on a study halted mid-crawl.
func (s *Study) Table2() (Table2Result, error) {
	if s.Sites == nil || s.ABPSites == nil || s.UBOSites == nil {
		return Table2Result{}, fmt.Errorf("canvassing: Table2 requires the analysed ad-blocker re-crawls (set Options.WithAdblock)")
	}
	var res Table2Result
	for _, cond := range []struct {
		name  string
		sites []detect.SiteCanvases
	}{
		{"Control", s.Sites},
		{"Adblock Plus", s.ABPSites},
		{"uBlock Origin", s.UBOSites},
	} {
		sites := cond.sites
		row := Table2Row{Condition: cond.name}
		for i := range sites {
			st := &sites[i]
			if !st.OK {
				continue
			}
			n := len(st.Fingerprintable())
			switch st.Cohort {
			case web.Popular:
				row.CanvasesPop += n
				if n > 0 {
					row.SitesPop++
				}
			case web.Tail:
				row.CanvasesTail += n
				if n > 0 {
					row.SitesTail++
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats E5 like Table 2.
func (r Table2Result) Render() string {
	t := report.NewTable("E5 — Table 2: effect of ad blockers on observed test canvases",
		"condition", "canvases-top", "canvases-tail", "sites-top", "sites-tail")
	for _, row := range r.Rows {
		t.AddRow(row.Condition, row.CanvasesPop, row.CanvasesTail, row.SitesPop, row.SitesTail)
	}
	return t.String()
}

// --- E6: Table 4 ------------------------------------------------------------------------

// Table4Result is experiment E6: per-cohort counts of test canvases
// generated by scripts covered by each blocklist.
type Table4Result struct {
	// Counts maps list name → [popular, tail] covered canvas counts.
	Counts map[string][2]int
	// Totals holds the fingerprintable canvas totals per cohort.
	Totals [2]int
}

// Table4 computes E6 with the paper's §5.1 methodology: EasyList and
// EasyPrivacy rules are applied to the script URL with resource type
// script and no dynamic context; Disconnect by script domain. Coverage
// depends only on the URL, so each distinct URL is matched once.
func (s *Study) Table4() Table4Result {
	res := Table4Result{Counts: map[string][2]int{}}
	coverage := map[string][3]bool{}
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
			res.Totals[idx]++
			cov, ok := coverage[c.ScriptURL]
			if !ok {
				cov[0], cov[1], cov[2] = s.Lists.CoverageOf(c.ScriptURL, scriptHost(c.ScriptURL))
				coverage[c.ScriptURL] = cov
			}
			el, ep, disc := cov[0], cov[1], cov[2]
			if el {
				bump(res.Counts, "EasyList", idx)
			}
			if ep {
				bump(res.Counts, "EasyPrivacy", idx)
			}
			if disc {
				bump(res.Counts, "Disconnect", idx)
			}
			if el || ep || disc {
				bump(res.Counts, "Any", idx)
			}
			if el && ep && disc {
				bump(res.Counts, "All", idx)
			}
		}
	}
	return res
}

func bump(m map[string][2]int, key string, idx int) {
	v := m[key]
	v[idx]++
	m[key] = v
}

func scriptHost(rawURL string) string {
	u, err := netsim.ParseURL(rawURL)
	if err != nil {
		return ""
	}
	return u.Host
}

// Render formats E6 like Table 4.
func (r Table4Result) Render() string {
	t := report.NewTable("E6 — Table 4: test canvases from scripts on crowdsourced blocklists",
		"blocklist", "top-20k", "top%", "tail-20k", "tail%")
	for _, name := range []string{"EasyList", "EasyPrivacy", "Disconnect", "Any", "All"} {
		c := r.Counts[name]
		t.AddRow(name, c[0], report.Pct(c[0], r.Totals[0]), c[1], report.Pct(c[1], r.Totals[1]))
	}
	t.AddRow("Total canvases", r.Totals[0], "", r.Totals[1], "")
	return t.String()
}

// --- E7: evasion (§5.2) ---------------------------------------------------------------------

// EvasionRow summarizes serving-mode evasion for one cohort.
type EvasionRow struct {
	Cohort          web.Cohort
	FPSites         int
	FirstPartySites int // ≥1 canvas from a same-site script URL
	SubdomainSites  int // ≥1 canvas from a strict subdomain of the site
	CDNSites        int // ≥1 canvas from a popular shared CDN
	CNAMESites      int // ≥1 canvas from a CNAME-cloaked first-party host
}

// EvasionResult is experiment E7.
type EvasionResult struct {
	Rows []EvasionRow
}

// Evasion computes E7 from script URLs and DNS.
func (s *Study) Evasion() EvasionResult {
	var res EvasionResult
	for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
		row := EvasionRow{Cohort: cohort}
		for i := range s.Sites {
			st := &s.Sites[i]
			if !st.OK || st.Cohort != cohort || !st.HasFingerprinting() {
				continue
			}
			row.FPSites++
			var fp, sub, cdn, cname bool
			for _, c := range st.Fingerprintable() {
				host := scriptHost(c.ScriptURL)
				if host == "" {
					continue
				}
				if netsim.SameSite(host, st.Domain) {
					switch {
					case s.Web.DNS.IsCloaked(host):
						cname = true
					case netsim.IsSubdomainOf(host, st.Domain):
						sub = true
					default:
						// Served from the site's own apex/www host.
						fp = true
					}
				}
				if netsim.ServedFromPopularCDN(host) {
					cdn = true
				}
			}
			if fp {
				row.FirstPartySites++
			}
			if sub {
				row.SubdomainSites++
			}
			if cdn {
				row.CDNSites++
			}
			if cname {
				row.CNAMESites++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// Render formats E7.
func (r EvasionResult) Render() string {
	t := report.NewTable("E7 — Blocklist evasion: how fingerprinting scripts are served (§5.2)",
		"cohort", "fp-sites", "first-party", "subdomain", "cdn", "cname-cloaked")
	for _, row := range r.Rows {
		t.AddRow(row.Cohort, row.FPSites,
			fmt.Sprintf("%d (%s)", row.FirstPartySites, report.Pct(row.FirstPartySites, row.FPSites)),
			fmt.Sprintf("%d (%s)", row.SubdomainSites, report.Pct(row.SubdomainSites, row.FPSites)),
			fmt.Sprintf("%d (%s)", row.CDNSites, report.Pct(row.CDNSites, row.FPSites)),
			fmt.Sprintf("%d (%s)", row.CNAMESites, report.Pct(row.CNAMESites, row.FPSites)))
	}
	return t.String()
}

// --- E8: randomization (§5.3) -------------------------------------------------------------------

// RandomizationResult is experiment E8.
type RandomizationResult struct {
	// CheckingSites / FPSites per cohort: sites performing the
	// double-render inconsistency check.
	CheckingPop, FPPop   int
	CheckingTail, FPTail int
	// Defense outcomes on a sample re-crawl of checking sites.
	SampleSites        int
	PerRenderDetected  int // sites whose double-render pairs now differ
	PerSessionDetected int // should stay 0 (footnote 7)
}

// Randomization computes E8: the prevalence of Algorithm-1 checks, and
// re-crawls a sample of fingerprinting sites under the two defense
// disciplines to show which one the check catches. Results are cached
// per sample size: the defense re-crawls are expensive and several
// reports request the same sample, and caching also keeps the evidence
// log free of duplicate verdict events. The re-crawls share the study's
// canvas memo, so each distinct drawing of the sample is rasterised once
// and every later hooked element copies its pixels from the memo. The
// defense's hook still runs on every extraction, and hooked pixels the
// study has already encoded are not encoded again, which per-session
// noise, keyed by canvas content, makes common.
func (s *Study) Randomization(sampleSize int) RandomizationResult {
	if r, ok := s.randCache[sampleSize]; ok {
		return r
	}
	var r RandomizationResult
	r.CheckingPop, r.FPPop = cluster.InconsistencyCheckStats(s.Sites, web.Popular)
	r.CheckingTail, r.FPTail = cluster.InconsistencyCheckStats(s.Sites, web.Tail)

	// Sample sites that double-render in the control crawl.
	var sample []*web.Site
	for i := range s.Sites {
		st := &s.Sites[i]
		if !st.OK || st.Cohort == web.Demo {
			continue
		}
		counts := map[string]int{}
		doubles := false
		for _, c := range st.Fingerprintable() {
			counts[c.Hash]++
			if counts[c.Hash] >= 2 {
				doubles = true
				break
			}
		}
		if doubles {
			if site := s.Web.SiteByDomain(st.Domain); site != nil {
				sample = append(sample, site)
			}
		}
		if len(sample) >= sampleSize {
			break
		}
	}
	r.SampleSites = len(sample)
	if len(sample) == 0 {
		s.cacheRandomization(sampleSize, r)
		return r
	}
	// detectBroken re-crawls the sample under a defense and runs the
	// Algorithm-1 inconsistency check on each page, recording one
	// randomize.verdict event per site under the defense's condition
	// label.
	detectBroken := func(d *randomize.Defense) int {
		condition := "defense-" + d.Mode().String()
		cfg := s.crawlConfig(condition)
		cfg.ExtractHookFor = d.PageHook
		res := crawler.Crawl(s.Web, sample, cfg)
		broken := 0
		for _, p := range res.SuccessfulPages() {
			urls := make([]string, 0, len(p.Extractions))
			for _, e := range p.Extractions {
				urls = append(urls, e.DataURL)
			}
			if randomize.CheckInconsistency(s.events(), condition, p.Domain, d.Mode().String(), urls) {
				broken++
			}
		}
		return broken
	}
	r.PerRenderDetected = detectBroken(randomize.NewDefense(randomize.PerRender, s.Options.Seed))
	r.PerSessionDetected = detectBroken(randomize.NewDefense(randomize.PerSession, s.Options.Seed))
	s.cacheRandomization(sampleSize, r)
	return r
}

// cacheRandomization memoizes an E8 result by sample size.
func (s *Study) cacheRandomization(sampleSize int, r RandomizationResult) {
	if s.randCache == nil {
		s.randCache = map[int]RandomizationResult{}
	}
	s.randCache[sampleSize] = r
}

// Render formats E8.
func (r RandomizationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("E8 — Canvas randomization and the double-render check (§5.3, Algorithm 1)\n")
	fmt.Fprintf(&sb, "  fp sites performing the inconsistency check: popular %s, tail %s\n",
		report.Pct(r.CheckingPop, r.FPPop), report.Pct(r.CheckingTail, r.FPTail))
	fmt.Fprintf(&sb, "  defense re-crawl over %d double-rendering sites:\n", r.SampleSites)
	fmt.Fprintf(&sb, "    per-render noise:  detected on %d/%d sites (check fires)\n", r.PerRenderDetected, r.SampleSites)
	fmt.Fprintf(&sb, "    per-session noise: detected on %d/%d sites (check blind, Firefox-style)\n", r.PerSessionDetected, r.SampleSites)
	return sb.String()
}

// --- E9: cross-machine validation (§3.1) -----------------------------------------------------------

// CrossMachineResult is experiment E9.
type CrossMachineResult struct {
	SitesCompared      int
	EventsCompared     int
	BytesDifferEvents  int
	GroupingConsistent bool
}

// CrossMachine computes E9 from the analysed control and M1 crawls
// (RunM1, or Options.WithM1). It errors when an analysis it reads is
// absent, as on a study halted mid-crawl.
func (s *Study) CrossMachine() (CrossMachineResult, error) {
	if s.Sites == nil || s.M1Sites == nil {
		return CrossMachineResult{}, fmt.Errorf("canvassing: CrossMachine requires the analysed M1 crawl (set Options.WithM1)")
	}
	var r CrossMachineResult
	intelSites, m1Sites := s.Sites, s.M1Sites
	// Assign group labels per machine in first-seen order; the event
	// label sequences must match exactly for grouping to be invariant.
	label := func(sites []detect.SiteCanvases) []int {
		ids := map[string]int{}
		var seq []int
		for i := range sites {
			st := &sites[i]
			if !st.OK {
				continue
			}
			for _, c := range st.Fingerprintable() {
				id, ok := ids[c.Hash]
				if !ok {
					id = len(ids)
					ids[c.Hash] = id
				}
				seq = append(seq, id)
			}
		}
		return seq
	}
	intelSeq := label(intelSites)
	m1Seq := label(m1Sites)
	r.GroupingConsistent = len(intelSeq) == len(m1Seq)
	if r.GroupingConsistent {
		for i := range intelSeq {
			if intelSeq[i] != m1Seq[i] {
				r.GroupingConsistent = false
				break
			}
		}
	}
	r.EventsCompared = len(intelSeq)
	// Byte-level comparison site by site.
	m1ByDomain := map[string]*detect.SiteCanvases{}
	for i := range m1Sites {
		m1ByDomain[m1Sites[i].Domain] = &m1Sites[i]
	}
	for i := range intelSites {
		a := &intelSites[i]
		b := m1ByDomain[a.Domain]
		if !a.OK || b == nil {
			continue
		}
		af, bf := a.Fingerprintable(), b.Fingerprintable()
		if len(af) == 0 {
			continue
		}
		r.SitesCompared++
		for j := range af {
			if j < len(bf) && af[j].Hash != bf[j].Hash {
				r.BytesDifferEvents++
			}
		}
	}
	return r, nil
}

// Render formats E9.
func (r CrossMachineResult) Render() string {
	var sb strings.Builder
	sb.WriteString("E9 — Cross-machine validation: Intel vs Apple M1 (§3.1)\n")
	fmt.Fprintf(&sb, "  fingerprinting sites compared: %d (events: %d)\n", r.SitesCompared, r.EventsCompared)
	fmt.Fprintf(&sb, "  events whose canvas bytes differ across machines: %d (%s)\n",
		r.BytesDifferEvents, report.Pct(r.BytesDifferEvents, r.EventsCompared))
	fmt.Fprintf(&sb, "  cross-site grouping identical on both machines: %v\n", r.GroupingConsistent)
	return sb.String()
}

// --- E10: detection-filter audit (§3.2, A.2) -----------------------------------------------------------

// FiltersResult is experiment E10.
type FiltersResult struct {
	PerCohort map[web.Cohort]detect.Stats
}

// Filters computes E10.
func (s *Study) Filters() FiltersResult {
	res := FiltersResult{PerCohort: map[web.Cohort]detect.Stats{}}
	for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
		res.PerCohort[cohort] = detect.ComputeStats(s.cohortSites(cohort))
	}
	return res
}

// Render formats E10.
func (r FiltersResult) Render() string {
	t := report.NewTable("E10 — Detection-filter audit (§3.2, Appendix A.2)",
		"cohort", "extractions", "fingerprintable", "yield", "lossy", "small", "animation", "fully-excluded-sites")
	for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
		st := r.PerCohort[cohort]
		t.AddRow(cohort, st.TotalExtractions, st.Fingerprintable,
			report.Pct(st.Fingerprintable, st.TotalExtractions),
			st.ByReason[detect.LossyFormat], st.ByReason[detect.SmallCanvas],
			st.ByReason[detect.AnimationScript], st.SitesFullyExcluded)
	}
	return t.String()
}

// --- E11: Table 3 (attribution methods) ---------------------------------------------------------------

// Table3Row is one vendor's attribution bookkeeping row.
type Table3Row struct {
	Vendor  string
	Method  string
	Pattern string
}

// Table3Result is experiment E11.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 computes E11.
func (s *Study) Table3() Table3Result {
	var res Table3Result
	for _, row := range s.Attribution.Rows {
		pattern := vendorPattern(row.Slug)
		res.Rows = append(res.Rows, Table3Row{
			Vendor:  row.Vendor,
			Method:  string(row.Method),
			Pattern: pattern,
		})
	}
	return res
}

func vendorPattern(slug string) string {
	if slug == "imperva" {
		return `regexp: https?://(?:www\.)?[^/]+/([A-Za-z\-]+)`
	}
	if v := services.BySlug(slug); v != nil {
		return v.URLPattern
	}
	return ""
}

// Render formats E11 like Table 3.
func (r Table3Result) Render() string {
	t := report.NewTable("E11 — Table 3: how vendor test canvases were attributed",
		"service", "method", "script pattern")
	for _, row := range r.Rows {
		t.AddRow(row.Vendor, row.Method, row.Pattern)
	}
	return t.String()
}

// --- E12: rule-context failure (A.6) ------------------------------------------------------------------------

// RuleContextResult is experiment E12.
type RuleContextResult struct {
	DocumentOnlyRules int
	MgidListed        bool // a naive domain check finds mgid in EasyList
	MgidMatchesScript bool // adblockparser(type=script) matches
	MgidBlockedLive   bool // the ABP extension blocks the script load
	BlockedByEasyPriv bool // EasyPrivacy's script rule would match
}

// RuleContext computes E12.
func (s *Study) RuleContext() RuleContextResult {
	var r RuleContextResult
	r.DocumentOnlyRules = s.Lists.EasyList.DocumentOnlyRuleCount()
	for _, rule := range s.Lists.EasyList.BlockRules() {
		if strings.Contains(rule.Raw, "mgid.com") {
			r.MgidListed = true
		}
	}
	scriptURL := "https://mgid.com/uid/fp.js"
	req := blocklist.Request{URL: scriptURL, Type: blocklist.TypeScript, PageHost: "news.example", ThirdParty: true}
	r.MgidMatchesScript = s.Lists.EasyList.Match(req) != nil
	r.MgidBlockedLive = adblock.NewAdblockPlus(s.Lists).BlockScript(req)
	r.BlockedByEasyPriv = s.Lists.EasyPrivacy.Match(req) != nil
	return r
}

// Render formats E12.
func (r RuleContextResult) Render() string {
	var sb strings.Builder
	sb.WriteString("E12 — EasyList rule-context failure (Appendix A.6)\n")
	fmt.Fprintf(&sb, "  EasyList rules carrying a lone $document modifier: %d\n", r.DocumentOnlyRules)
	fmt.Fprintf(&sb, "  mgid.com present in EasyList (naive domain check):  %v\n", r.MgidListed)
	fmt.Fprintf(&sb, "  mgid fp script matched with resource type script:   %v\n", r.MgidMatchesScript)
	fmt.Fprintf(&sb, "  mgid fp script blocked by the live ABP extension:   %v\n", r.MgidBlockedLive)
	fmt.Fprintf(&sb, "  (EasyPrivacy would match it: %v — but the paper's extensions use EasyList)\n", r.BlockedByEasyPriv)
	return sb.String()
}

// --- E13: crawl health under fault injection ----------------------------------------------------------------

// CrawlHealthRow summarizes one crawl condition's visit outcomes under
// the study's fault model.
type CrawlHealthRow struct {
	Condition string
	Visited   int
	OK        int
	Degraded  int
	Failed    int
	// Failure-reason splits (subsets of Failed).
	Refused, Timeout, CircuitOpen, Unreachable int
}

// CrawlHealthResult is experiment E13: how the crawl fared against the
// injected faults, per condition plus the engine-level retry counters.
// Prevalence and every downstream experiment compute over the OK
// survivors only, so this table is the denominator audit for a faulted
// run.
type CrawlHealthResult struct {
	// FaultRate echoes the study's per-site fault probability.
	FaultRate float64
	Rows      []CrawlHealthRow
	// Aggregate resilience-engine counters across all crawls, read from
	// the telemetry registry (crawl.retry, crawl.timeout, crawl.refused,
	// crawl.circuit-open).
	RetryTotal, TimeoutTotal, RefusedTotal, CircuitOpenTotal int64
}

// CrawlHealth computes E13 over every crawl the study has run.
func (s *Study) CrawlHealth() CrawlHealthResult {
	res := CrawlHealthResult{}
	if s.Faults != nil {
		res.FaultRate = s.Faults.Rate()
	}
	add := func(cond string, r *crawler.Result) {
		if r == nil {
			return
		}
		st := r.Stats().Total
		res.Rows = append(res.Rows, CrawlHealthRow{
			Condition:   cond,
			Visited:     st.Visited,
			OK:          st.OK,
			Degraded:    st.Degraded,
			Failed:      st.Failed,
			Refused:     st.FailReasons[crawler.FailRefused],
			Timeout:     st.FailReasons[crawler.FailTimeout],
			CircuitOpen: st.FailReasons[crawler.FailCircuitOpen],
			Unreachable: st.FailReasons[crawler.FailUnreachable],
		})
	}
	add(CondControl, s.Control)
	add(CondABP, s.ABP)
	add(CondUBO, s.UBO)
	add(CondM1, s.M1)
	if s.tel != nil {
		// Read through Snapshot: asking the registry for the counters
		// would register them, polluting fault-free runs.
		snap := s.tel.Metrics.Snapshot()
		res.RetryTotal = snap.Counters["crawl.retry"]
		res.TimeoutTotal = snap.Counters["crawl.timeout"]
		res.RefusedTotal = snap.Counters["crawl.refused"]
		res.CircuitOpenTotal = snap.Counters["crawl.circuit-open"]
	}
	return res
}

// Render formats E13.
func (r CrawlHealthResult) Render() string {
	t := report.NewTable(fmt.Sprintf("E13 — crawl health under fault injection (rate %.0f%%)", r.FaultRate*100),
		"condition", "visited", "ok", "degraded", "failed", "refused", "timeout", "circuit-open")
	for _, row := range r.Rows {
		t.AddRow(row.Condition, fmt.Sprint(row.Visited), fmt.Sprint(row.OK), fmt.Sprint(row.Degraded),
			fmt.Sprint(row.Failed), fmt.Sprint(row.Refused), fmt.Sprint(row.Timeout), fmt.Sprint(row.CircuitOpen))
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	fmt.Fprintf(&sb, "  engine: retries %d, timeouts %d, refusals %d, circuit-opens %d\n",
		r.RetryTotal, r.TimeoutTotal, r.RefusedTotal, r.CircuitOpenTotal)
	return sb.String()
}
