package crawler

import (
	"encoding/json"
	"strings"
	"testing"

	"canvassing/internal/adblock"
	"canvassing/internal/blocklist"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/randomize"
	"canvassing/internal/web"
)

func testWeb(t *testing.T) *web.Web {
	t.Helper()
	return web.Generate(web.Config{Seed: 21, Scale: 0.03, TrancoMax: 1_000_000})
}

func TestCrawlBasics(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)
	res := Crawl(w, sites, DefaultConfig())
	if len(res.Pages) != len(sites) {
		t.Fatalf("pages = %d, want %d", len(res.Pages), len(sites))
	}
	okCount := len(res.SuccessfulPages())
	if okCount == 0 || okCount == len(sites) {
		t.Fatalf("success count should reflect crawl failures: %d/%d", okCount, len(sites))
	}
	// Pages stay aligned with their input sites.
	for i, p := range res.Pages {
		if p.Domain != sites[i].Domain {
			t.Fatalf("page %d misaligned", i)
		}
	}
}

func TestCrawlFindsExtractions(t *testing.T) {
	w := testWeb(t)
	res := Crawl(w, w.CohortSites(web.Popular), DefaultConfig())
	total := 0
	sitesWith := 0
	for _, p := range res.SuccessfulPages() {
		if len(p.Extractions) > 0 {
			sitesWith++
			total += len(p.Extractions)
		}
		for _, e := range p.Extractions {
			if !strings.HasPrefix(e.DataURL, "data:image/") {
				t.Fatalf("bad extraction: %.40s", e.DataURL)
			}
			if e.ScriptURL == "" {
				t.Fatal("extraction lacks script attribution")
			}
		}
	}
	if sitesWith == 0 || total == 0 {
		t.Fatal("crawl should observe extractions")
	}
}

func TestCrawlDeterministic(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)[:120]
	a := Crawl(w, sites, DefaultConfig())
	b := Crawl(w, sites, DefaultConfig())
	for i := range a.Pages {
		pa, pb := a.Pages[i], b.Pages[i]
		if len(pa.Extractions) != len(pb.Extractions) {
			t.Fatalf("page %s extraction counts differ", pa.Domain)
		}
		for j := range pa.Extractions {
			if pa.Extractions[j].DataURL != pb.Extractions[j].DataURL {
				t.Fatalf("page %s extraction %d differs", pa.Domain, j)
			}
		}
	}
}

func TestScriptErrorsAreIsolated(t *testing.T) {
	w := testWeb(t)
	res := Crawl(w, w.CohortSites(web.Popular), DefaultConfig())
	// No page visit should be lost to a script error; errors are recorded.
	for _, p := range res.Pages {
		if p.OK {
			continue
		}
		site := w.SiteByDomain(p.Domain)
		if site != nil && site.CrawlOK {
			t.Fatalf("crawlable page %s reported not OK", p.Domain)
		}
	}
	// The vendor scripts in this corpus are all valid; no errors expected.
	for _, p := range res.SuccessfulPages() {
		for url, msg := range p.ScriptErrors {
			t.Fatalf("unexpected script error %s: %s", url, msg)
		}
	}
}

func TestScriptMethodsRecorded(t *testing.T) {
	w := testWeb(t)
	res := Crawl(w, w.CohortSites(web.Popular), DefaultConfig())
	foundFillText := false
	for _, p := range res.SuccessfulPages() {
		for _, methods := range p.ScriptMethods {
			if methods["fillText"] {
				foundFillText = true
			}
		}
	}
	if !foundFillText {
		t.Fatal("method sets should record fillText")
	}
}

func TestMachineProfileChangesBytesNotStructure(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)[:150]
	cfgIntel := DefaultConfig()
	cfgM1 := DefaultConfig()
	cfgM1.Profile = machine.AppleM1()
	intel := Crawl(w, sites, cfgIntel)
	m1 := Crawl(w, sites, cfgM1)
	diffs, sameCounts := 0, true
	for i := range intel.Pages {
		if len(intel.Pages[i].Extractions) != len(m1.Pages[i].Extractions) {
			sameCounts = false
			continue
		}
		for j := range intel.Pages[i].Extractions {
			if intel.Pages[i].Extractions[j].DataURL != m1.Pages[i].Extractions[j].DataURL {
				diffs++
			}
		}
	}
	if !sameCounts {
		t.Fatal("machines must agree on extraction structure")
	}
	if diffs == 0 {
		t.Fatal("machines must disagree on extraction bytes")
	}
}

func TestNoConsentSuppressesGatedScripts(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)
	withConsent := Crawl(w, sites, DefaultConfig())
	noCfg := DefaultConfig()
	noCfg.AutoConsent = false
	without := Crawl(w, sites, noCfg)
	countEx := func(r *Result) int {
		n := 0
		for _, p := range r.Pages {
			n += len(p.Extractions)
		}
		return n
	}
	if countEx(without) >= countEx(withConsent) {
		t.Fatalf("consent refusal should reduce extractions: %d vs %d",
			countEx(without), countEx(withConsent))
	}
}

func TestNoScrollSuppressesLazyScripts(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)
	scroll := Crawl(w, sites, DefaultConfig())
	noCfg := DefaultConfig()
	noCfg.Scroll = false
	noScroll := Crawl(w, sites, noCfg)
	countEx := func(r *Result) int {
		n := 0
		for _, p := range r.Pages {
			n += len(p.Extractions)
		}
		return n
	}
	if countEx(noScroll) >= countEx(scroll) {
		t.Fatal("skipping scroll should miss lazy scripts")
	}
}

func TestAdblockReducesSlightly(t *testing.T) {
	w := testWeb(t)
	lists := blocklist.NewStandardLists(21)
	sites := w.CohortSites(web.Popular)

	control := Crawl(w, sites, DefaultConfig())
	abpCfg := DefaultConfig()
	abpCfg.Extension = adblock.NewAdblockPlus(lists)
	abp := Crawl(w, sites, abpCfg)

	count := func(r *Result) (canvases, fpSites int) {
		for _, p := range r.SuccessfulPages() {
			canvases += len(p.Extractions)
			if len(p.Extractions) > 0 {
				fpSites++
			}
		}
		return
	}
	cCan, cSites := count(control)
	aCan, aSites := count(abp)
	if aCan >= cCan {
		t.Fatalf("ad blocker should block something: %d vs %d", aCan, cCan)
	}
	// §5.2: the drop is small — well under 20% even at tiny scale.
	if float64(cCan-aCan)/float64(cCan) > 0.25 {
		t.Fatalf("ad blocker blocked too much: %d → %d", cCan, aCan)
	}
	if aSites > cSites {
		t.Fatal("site count cannot grow under blocking")
	}
	if abp.Extension != "Adblock Plus" {
		t.Fatal("extension name")
	}
	// Blocked scripts were recorded somewhere.
	blocked := 0
	for _, p := range abp.Pages {
		blocked += len(p.BlockedScripts)
	}
	if blocked == 0 {
		t.Fatal("no scripts were blocked at all")
	}
}

func TestFirstPartyExemptFromBlocking(t *testing.T) {
	w := testWeb(t)
	lists := blocklist.NewStandardLists(21)
	abpCfg := DefaultConfig()
	abpCfg.Extension = adblock.NewAdblockPlus(lists)
	res := Crawl(w, w.CohortSites(web.Popular), abpCfg)
	for _, p := range res.Pages {
		for _, b := range p.BlockedScripts {
			if strings.Contains(b, p.Domain) {
				t.Fatalf("first-party script blocked: %s on %s", b, p.Domain)
			}
		}
	}
	// Akamai sensors (first-party /akam/ URLs) must survive despite the
	// EasyList rule (footnote 5).
	akamaiSeen := false
	for _, p := range res.SuccessfulPages() {
		for _, e := range p.Extractions {
			if strings.Contains(e.ScriptURL, "/akam/") {
				akamaiSeen = true
			}
		}
	}
	if !akamaiSeen {
		t.Fatal("akamai canvases should survive ad blocking")
	}
}

func TestPerRenderDefenseChangesExtractions(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)[:200]
	cfg := DefaultConfig()
	cfg.ExtractHookFor = randomize.NewDefense(randomize.PerRender, 7).PageHook
	res := Crawl(w, sites, cfg)
	// Under per-render noise, double-rendered canvases now differ, so
	// scripts see inconsistency. Confirm some site extracted two
	// different data URLs from the same script where the control crawl
	// had identical pairs.
	control := Crawl(w, sites, DefaultConfig())
	hadIdenticalPair := false
	for _, p := range control.SuccessfulPages() {
		seen := map[string]int{}
		for _, e := range p.Extractions {
			seen[e.DataURL]++
		}
		for _, c := range seen {
			if c >= 2 {
				hadIdenticalPair = true
			}
		}
	}
	if !hadIdenticalPair {
		t.Skip("no double-rendering site in sample")
	}
	brokenPairs := false
	for _, p := range res.SuccessfulPages() {
		seen := map[string]int{}
		for _, e := range p.Extractions {
			seen[e.DataURL]++
		}
		allUnique := true
		for _, c := range seen {
			if c >= 2 {
				allUnique = false
			}
		}
		if allUnique && len(p.Extractions) >= 2 {
			brokenPairs = true
		}
	}
	if !brokenPairs {
		t.Fatal("per-render noise should break double-render identity")
	}
}

func TestKeepRecords(t *testing.T) {
	w := testWeb(t)
	cfg := DefaultConfig()
	cfg.KeepRecords = true
	res := Crawl(w, w.CohortSites(web.Popular)[:100], cfg)
	got := 0
	for _, p := range res.SuccessfulPages() {
		got += len(p.Records)
	}
	if got == 0 {
		t.Fatal("records should be kept when requested")
	}
	cfg.KeepRecords = false
	res2 := Crawl(w, w.CohortSites(web.Popular)[:100], cfg)
	for _, p := range res2.SuccessfulPages() {
		if len(p.Records) != 0 {
			t.Fatal("records kept despite KeepRecords=false")
		}
	}
}

func TestWorkerPoolWidths(t *testing.T) {
	w := testWeb(t)
	sites := w.CohortSites(web.Popular)[:60]
	cfg1 := DefaultConfig()
	cfg1.Workers = 1
	cfg16 := DefaultConfig()
	cfg16.Workers = 16
	a := Crawl(w, sites, cfg1)
	b := Crawl(w, sites, cfg16)
	for i := range a.Pages {
		if len(a.Pages[i].Extractions) != len(b.Pages[i].Extractions) {
			t.Fatal("worker width must not change results")
		}
	}
}

func TestFailureInjectionBrokenScript(t *testing.T) {
	w := testWeb(t)
	// Inject a syntactically broken script and a dead URL into a healthy
	// page; the visit must record both failures and still run the rest.
	var victim *web.Site
	for _, s := range w.CohortSites(web.Popular) {
		if s.CrawlOK && len(s.Scripts) > 0 {
			victim = s
			break
		}
	}
	if victim == nil {
		t.Fatal("no crawlable site")
	}
	brokenURL := netsimURL("https://" + victim.Domain + "/js/broken.js")
	w.Store.Host(brokenURL, "text/javascript", "function ( { nope")
	deadURL := netsimURL("https://gone.example.net/missing.js")
	victim.Scripts = append([]web.PageScript{{URL: brokenURL}, {URL: deadURL}}, victim.Scripts...)

	res := Crawl(w, []*web.Site{victim}, DefaultConfig())
	p := res.Pages[0]
	if !p.OK {
		t.Fatal("page must still count as crawled")
	}
	if _, ok := p.ScriptErrors[brokenURL.String()]; !ok {
		t.Fatalf("broken script error not recorded: %v", p.ScriptErrors)
	}
	if msg, ok := p.ScriptErrors[deadURL.String()]; !ok || !strings.Contains(msg, "fetch") {
		t.Fatalf("dead URL error not recorded: %v", p.ScriptErrors)
	}
	// The page's legitimate scripts still executed.
	if len(p.ScriptMethods) == 0 && len(p.Extractions) == 0 {
		t.Fatal("remaining scripts should still run")
	}
}

func TestRunawayScriptBounded(t *testing.T) {
	w := testWeb(t)
	var victim *web.Site
	for _, s := range w.CohortSites(web.Popular) {
		if s.CrawlOK {
			victim = s
			break
		}
	}
	loopURL := netsimURL("https://" + victim.Domain + "/js/loop.js")
	w.Store.Host(loopURL, "text/javascript", "while (true) { var x = 1; }")
	victim.Scripts = append(victim.Scripts, web.PageScript{URL: loopURL})

	cfg := DefaultConfig()
	cfg.MaxStepsPerScript = 50_000
	res := Crawl(w, []*web.Site{victim}, cfg)
	msg, ok := res.Pages[0].ScriptErrors[loopURL.String()]
	if !ok || !strings.Contains(msg, "step limit") {
		t.Fatalf("runaway script must hit the step limit: %v", res.Pages[0].ScriptErrors)
	}
}

func netsimURL(s string) netsim.URL { return netsim.MustParseURL(s) }

func TestPageResultJSONRoundtrip(t *testing.T) {
	// cmd/crawl writes PageResults as JSONL and cmd/analyze reads them
	// back; the types must survive the trip.
	w := testWeb(t)
	cfg := DefaultConfig()
	res := Crawl(w, w.CohortSites(web.Popular)[:80], cfg)
	var withData *PageResult
	for _, p := range res.SuccessfulPages() {
		if len(p.Extractions) > 0 {
			withData = p
			break
		}
	}
	if withData == nil {
		t.Skip("no extracting page in sample")
	}
	data, err := json.Marshal(withData)
	if err != nil {
		t.Fatal(err)
	}
	var back PageResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Domain != withData.Domain || back.Cohort != withData.Cohort {
		t.Fatal("identity fields lost")
	}
	if len(back.Extractions) != len(withData.Extractions) {
		t.Fatal("extractions lost")
	}
	if back.Extractions[0].DataURL != withData.Extractions[0].DataURL {
		t.Fatal("data URL corrupted")
	}
	if len(back.ScriptMethods) != len(withData.ScriptMethods) {
		t.Fatal("script methods lost")
	}
}

func BenchmarkCrawlPopular(b *testing.B) {
	w := web.Generate(web.Config{Seed: 21, Scale: 0.01, TrancoMax: 1_000_000})
	sites := w.CohortSites(web.Popular)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Crawl(w, sites, cfg)
	}
}
