package detect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"canvassing/internal/canvas"
	"canvassing/internal/crawler"
	"canvassing/internal/imaging"
	"canvassing/internal/machine"
	"canvassing/internal/obs/event"
	"canvassing/internal/web"
)

// makeDataURL renders a simple canvas and returns its data URL.
func makeDataURL(t *testing.T, w, h int, format string) string {
	t.Helper()
	e := canvas.New(machine.Intel())
	e.SetWidth(w)
	e.SetHeight(h)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#a1b2c3")
	ctx.FillRect(0, 0, float64(w), float64(h))
	return e.ToDataURL(format, 0)
}

func pageWith(extractions []crawler.Extraction, methods map[string]map[string]bool) *crawler.PageResult {
	if methods == nil {
		methods = map[string]map[string]bool{}
	}
	return &crawler.PageResult{
		Domain:        "t.example",
		Cohort:        web.Popular,
		OK:            true,
		Extractions:   extractions,
		ScriptMethods: methods,
	}
}

func TestPNGLargeIsFingerprintable(t *testing.T) {
	u := makeDataURL(t, 200, 50, "")
	sc := AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "https://x.com/fp.js", DataURL: u}}, nil))
	if len(sc.All) != 1 {
		t.Fatal("one canvas")
	}
	c := sc.All[0]
	if !c.Fingerprintable || c.Exclude != None {
		t.Fatalf("should be fingerprintable: %+v", c.Exclude)
	}
	if c.W != 200 || c.H != 50 || c.Format != imaging.PNG {
		t.Fatalf("metadata: %+v", c)
	}
	if c.Hash == "" || c.Hash != HashDataURL(u) {
		t.Fatal("hash")
	}
}

func TestLossyFormatsExcluded(t *testing.T) {
	for _, f := range []string{"image/webp", "image/jpeg"} {
		u := makeDataURL(t, 200, 50, f)
		sc := AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "s", DataURL: u}}, nil))
		if sc.All[0].Fingerprintable || sc.All[0].Exclude != LossyFormat {
			t.Fatalf("%s should be lossy-excluded: %+v", f, sc.All[0])
		}
	}
}

func TestSmallCanvasExcluded(t *testing.T) {
	cases := []struct {
		w, h int
		want Reason
	}{
		{15, 100, SmallCanvas},
		{100, 15, SmallCanvas},
		{12, 12, SmallCanvas},
		{16, 16, None},
		{1, 1, SmallCanvas},
	}
	for _, c := range cases {
		u := makeDataURL(t, c.w, c.h, "")
		sc := AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "s", DataURL: u}}, nil))
		if sc.All[0].Exclude != c.want {
			t.Fatalf("%dx%d: got %q want %q", c.w, c.h, sc.All[0].Exclude, c.want)
		}
	}
}

func TestAnimationScriptExcluded(t *testing.T) {
	u := makeDataURL(t, 200, 50, "")
	methods := map[string]map[string]bool{
		"https://x.com/editor.js": {"save": true, "restore": true, "fillRect": true},
		"https://x.com/fp.js":     {"fillText": true, "toDataURL": true},
	}
	sc := AnalyzePage(pageWith([]crawler.Extraction{
		{ScriptURL: "https://x.com/editor.js", DataURL: u},
		{ScriptURL: "https://x.com/fp.js", DataURL: u},
	}, methods))
	if sc.All[0].Exclude != AnimationScript {
		t.Fatalf("editor script canvas: %q", sc.All[0].Exclude)
	}
	if !sc.All[1].Fingerprintable {
		t.Fatal("fp script canvas should survive")
	}
}

func TestUndecodable(t *testing.T) {
	sc := AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "s", DataURL: "data:image/png;base64,!!!"}}, nil))
	if sc.All[0].Exclude != Undecodable {
		t.Fatal("garbage should be undecodable")
	}
	sc = AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "s", DataURL: "nonsense"}}, nil))
	if sc.All[0].Exclude != Undecodable {
		t.Fatal("non-data-url should be undecodable")
	}
}

func TestWebPSimDimensionsRecovered(t *testing.T) {
	u := makeDataURL(t, 40, 30, "image/webp")
	sc := AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "s", DataURL: u}}, nil))
	if sc.All[0].W != 40 || sc.All[0].H != 30 {
		t.Fatalf("webp dims: %dx%d", sc.All[0].W, sc.All[0].H)
	}
}

func TestSiteLevelHelpers(t *testing.T) {
	fpURL := makeDataURL(t, 100, 100, "")
	smallURL := makeDataURL(t, 4, 4, "")
	both := AnalyzePage(pageWith([]crawler.Extraction{
		{ScriptURL: "a", DataURL: fpURL},
		{ScriptURL: "b", DataURL: smallURL},
	}, nil))
	if !both.HasFingerprinting() || both.FullyExcluded() {
		t.Fatal("site with fp canvas")
	}
	if len(both.Fingerprintable()) != 1 {
		t.Fatal("one fingerprintable")
	}
	onlySmall := AnalyzePage(pageWith([]crawler.Extraction{{ScriptURL: "b", DataURL: smallURL}}, nil))
	if onlySmall.HasFingerprinting() || !onlySmall.FullyExcluded() {
		t.Fatal("fully-excluded site")
	}
	empty := AnalyzePage(pageWith(nil, nil))
	if empty.FullyExcluded() || empty.HasFingerprinting() {
		t.Fatal("empty site is neither")
	}
}

func TestEndToEndRealCrawlYield(t *testing.T) {
	w := web.Generate(web.Config{Seed: 31, Scale: 0.03, TrancoMax: 1_000_000})
	res := crawler.Crawl(w, w.CohortSites(web.Popular), crawler.DefaultConfig())
	sites := AnalyzeAll(res.Pages)
	st := ComputeStats(sites)
	if st.SitesCrawledOK == 0 || st.SitesFingerprinting == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	// §3.2: the great majority of extractions are fingerprintable.
	if f := st.FingerprintableFraction(); f < 0.6 || f > 0.98 {
		t.Fatalf("fingerprintable fraction = %.2f, want ~0.83", f)
	}
	// §4.1: prevalence around 12.7% for the popular cohort.
	if p := st.PrevalenceFraction(); p < 0.07 || p > 0.20 {
		t.Fatalf("prevalence = %.3f, want ~0.127", p)
	}
	// Benign probes produced excluded canvases of every flavor.
	if st.ByReason[LossyFormat] == 0 {
		t.Fatal("expected webp/jpeg exclusions")
	}
	if st.ByReason[SmallCanvas] == 0 {
		t.Fatal("expected small-canvas exclusions")
	}
	if st.ByReason[AnimationScript] == 0 {
		t.Fatal("expected animation-script exclusions")
	}
	if st.SitesFullyExcluded == 0 {
		t.Fatal("expected some fully-excluded sites")
	}
}

func TestHashDataURLStable(t *testing.T) {
	if HashDataURL("abc") != HashDataURL("abc") {
		t.Fatal("stable")
	}
	if HashDataURL("abc") == HashDataURL("abd") {
		t.Fatal("distinct")
	}
	if len(HashDataURL("x")) != 64 {
		t.Fatal("sha256 hex length")
	}
}

// TestHashDataURLDigest pins HashDataURL, which hashes the string's
// bytes in place, to the digest of a copy of them.
func TestHashDataURLDigest(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	random := make([]byte, 5000)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	for _, u := range []string{
		"",
		"x",
		strings.Repeat("data:image/png;base64,iVBORw0KGgo", 2048)[:64<<10],
		string(random),
		string(random[:1234]),
	} {
		sum := sha256.Sum256([]byte(u))
		if got, want := HashDataURL(u), hex.EncodeToString(sum[:]); got != want {
			t.Fatalf("HashDataURL of %d bytes = %s, want %s", len(u), got, want)
		}
	}
}

// TestHashDataURLAllocs bounds HashDataURL's allocations: the digest
// string only, however long the URL.
func TestHashDataURLAllocs(t *testing.T) {
	for _, n := range []int{1, 16 << 10, 1 << 20} {
		u := strings.Repeat("a", n)
		if allocs := testing.AllocsPerRun(20, func() { HashDataURL(u) }); allocs > 1 {
			t.Fatalf("HashDataURL of %d bytes: %.0f allocations, want at most 1", n, allocs)
		}
	}
}

func TestFailedPageSkippedInStats(t *testing.T) {
	p := &crawler.PageResult{Domain: "down.example", OK: false}
	st := ComputeStats([]SiteCanvases{AnalyzePage(p)})
	if st.SitesCrawledOK != 0 {
		t.Fatal("failed page must not count")
	}
}

// TestEventDetailRoundTrip pins the detect.classify Detail mini-format:
// what EventDetail writes, ParseEventDetail reads back exactly, and the
// full verdict survives a trip through an event record. The verdict
// service's index builder depends on this.
func TestEventDetailRoundTrip(t *testing.T) {
	cases := []struct {
		script string
		w, h   int
		format imaging.Format
	}{
		{"https://x.com/fp.js", 240, 60, imaging.PNG},
		{"https://y.net/app.js", 12, 12, imaging.JPEG},
		{"s", 0, 0, imaging.Format("")}, // undecodable: no format recorded
	}
	for _, c := range cases {
		d := EventDetail(c.script, c.w, c.h, c.format)
		script, w, h, format, ok := ParseEventDetail(d)
		if !ok {
			t.Fatalf("ParseEventDetail(%q) failed", d)
		}
		if script != c.script || w != c.w || h != c.h || format != c.format {
			t.Fatalf("round trip %q: got (%q,%d,%d,%q)", d, script, w, h, format)
		}
	}
	for _, bad := range []string{"", "noise", "script=x", "script=x WxH image/png", "a b c d"} {
		if _, _, _, _, ok := ParseEventDetail(bad); ok {
			t.Fatalf("ParseEventDetail(%q) should fail", bad)
		}
	}
}

// TestAnalyzeAllClassifiesEachExtraction runs one AnalyzeAllEvents call
// over pages where one payload appears under both animation flags, in
// both orders, and as separate string copies. Every extraction must get
// what HashDataURL and Classify give its own data URL and flag, with
// one event per extraction in page order: a map of verdicts keyed by
// the data URL alone would hand the second flag the first one's
// verdict.
func TestAnalyzeAllClassifiesEachExtraction(t *testing.T) {
	big := makeDataURL(t, 200, 50, "")
	jpeg := makeDataURL(t, 64, 64, "image/jpeg")
	const fp, ed = "https://x.com/fp.js", "https://x.com/ed.js"
	anim := map[string]map[string]bool{ed: {"save": true}}
	pages := []*crawler.PageResult{
		pageWith([]crawler.Extraction{{ScriptURL: fp, DataURL: big}, {ScriptURL: ed, DataURL: strings.Clone(big)}}, anim),
		pageWith([]crawler.Extraction{{ScriptURL: ed, DataURL: big}, {ScriptURL: fp, DataURL: strings.Clone(big)}}, anim),
		pageWith([]crawler.Extraction{{ScriptURL: fp, DataURL: jpeg}, {ScriptURL: ed, DataURL: jpeg}, {ScriptURL: fp, DataURL: big}}, anim),
		pageWith(nil, nil),
	}
	for i, p := range pages {
		p.Domain = fmt.Sprintf("site-%d.example", i)
	}
	sink := event.NewSink(64)
	sites := AnalyzeAllEvents(pages, sink, "control")
	if len(sites) != len(pages) {
		t.Fatalf("%d results for %d pages", len(sites), len(pages))
	}
	events := sink.Events()
	n := 0
	for i, p := range pages {
		if sites[i].Domain != p.Domain || len(sites[i].All) != len(p.Extractions) {
			t.Fatalf("page %d: result %s with %d canvases, want %s with %d",
				i, sites[i].Domain, len(sites[i].All), p.Domain, len(p.Extractions))
		}
		for j, e := range p.Extractions {
			v := Classify(e.DataURL, e.ScriptURL == ed)
			want := CanvasInfo{
				ScriptURL: e.ScriptURL, DataURL: e.DataURL, Hash: HashDataURL(e.DataURL),
				Format: v.Format, W: v.W, H: v.H, Fingerprintable: v.Fingerprintable, Exclude: v.Exclude,
			}
			if got := sites[i].All[j]; got != want {
				t.Errorf("page %d extraction %d: %+v, want %+v", i, j, got, want)
			}
			if n >= len(events) {
				t.Fatalf("only %d events", len(events))
			}
			ev := events[n]
			n++
			verdict := "fingerprintable"
			if !v.Fingerprintable {
				verdict = "excluded"
			}
			if ev.Site != p.Domain || ev.Subject != want.Hash || ev.Verdict != verdict || ev.Evidence != string(v.Exclude) ||
				ev.Detail != EventDetail(e.ScriptURL, v.W, v.H, v.Format) {
				t.Errorf("event %d: %+v, want page %d extraction %d (%s, %s)", n-1, ev, i, j, verdict, v.Exclude)
			}
		}
	}
	if n != len(events) {
		t.Fatalf("%d events for %d extractions", len(events), n)
	}
	if sites[0].All[0].Fingerprintable == sites[0].All[1].Fingerprintable {
		t.Fatal("one payload under both flags classified alike: the case is vacuous")
	}
}
