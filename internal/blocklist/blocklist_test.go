package blocklist

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustRule(t *testing.T, line string) *Rule {
	t.Helper()
	r, ok := ParseRule(line)
	if !ok {
		t.Fatalf("rule %q should parse", line)
	}
	return r
}

func scriptReq(url string) Request {
	return Request{URL: url, Type: TypeScript, ThirdParty: true}
}

func TestParseSkipsNonRules(t *testing.T) {
	for _, line := range []string{
		"", "   ", "! comment", "[Adblock Plus 2.0]",
		"example.com##.ad-banner", "example.com#@#.ok", "site.com#?#div",
	} {
		if _, ok := ParseRule(line); ok {
			t.Fatalf("%q should be skipped", line)
		}
	}
}

func TestPlainSubstringRule(t *testing.T) {
	r := mustRule(t, "/adserve/")
	if !r.Matches(scriptReq("https://cdn.example.com/adserve/unit.js")) {
		t.Fatal("substring should match")
	}
	if r.Matches(scriptReq("https://cdn.example.com/js/app.js")) {
		t.Fatal("should not match")
	}
}

func TestWildcardRule(t *testing.T) {
	r := mustRule(t, "/banner/*/img^")
	if !r.Matches(scriptReq("https://x.com/banner/123/img?x=1")) {
		t.Fatal("wildcard + separator should match")
	}
	if !r.Matches(scriptReq("https://x.com/banner/a/b/img")) {
		t.Fatal("separator at end-of-url should match")
	}
	if r.Matches(scriptReq("https://x.com/banner/123/imgfoo")) {
		t.Fatal("separator must not match a letter")
	}
}

func TestDomainAnchor(t *testing.T) {
	r := mustRule(t, "||mgid.com^")
	if !r.Matches(scriptReq("https://mgid.com/uid.js")) {
		t.Fatal("exact domain")
	}
	if !r.Matches(scriptReq("https://cdn.mgid.com/uid.js")) {
		t.Fatal("subdomain")
	}
	if r.Matches(scriptReq("https://notmgid.com/uid.js")) {
		t.Fatal("label boundary must hold")
	}
	if r.Matches(scriptReq("https://mgid.com.evil.net/uid.js")) {
		// "||mgid.com^" requires a separator after the match; the "."
		// of ".evil.net" is NOT a separator in ABP syntax.
		t.Fatal("dot is not a separator")
	}
}

// TestDomainAnchorHost pins the host "||" rules match in: the bytes
// after the scheme, when "://" comes before the first '/', '?' or '#',
// and after any userinfo, up to the first '/', '?', '#' or ':'. Both a
// bucketed rule and one the host index leaves unbucketed must agree,
// through Rule.Matches and through List.Match.
func TestDomainAnchorHost(t *testing.T) {
	cases := []struct {
		url  string
		want bool // the URL's host is a.com or a subdomain of it
	}{
		{"https://a.com/x", true},
		{"https://user@a.com/x", true},
		{"https://user:pw@a.com/x", true},
		{"https://user:pw@sub.a.com:8080/x", true},
		{"https://us@er:pw@a.com/x", true},
		{"a.com/x", true},
		{"user:pw@a.com/x", true},
		{"https://a.com@evil.org/x", false},
		{"https://user:pw@evil.org/x", false},
		{"x.org/r?u=http://a.com/x", false},
		{"x.org/r?u=http://user:pw@a.com/x", false},
		{"https://x.org/r?u=http://a.com/x", false},
		{"x.org?u=http://a.com/x", false},
		{"x.org#http://a.com/x", false},
		{"https://x.org/p@a.com/x", false},
		{"https://x.org#.a.com/x", false},
	}
	for _, rule := range []string{"||a.com^", "||a.com*/x"} {
		r := mustRule(t, rule)
		l := ParseList("t", "||zzz.net^\n"+rule+"\n")
		for _, c := range cases {
			req := scriptReq(c.url)
			if got := r.Matches(req); got != c.want {
				t.Errorf("%s Matches(%q) = %v, want %v", rule, c.url, got, c.want)
			}
			if got := l.Match(req) != nil; got != c.want {
				t.Errorf("list %s Match(%q) = %v, want %v", rule, c.url, got, c.want)
			}
		}
	}
}

func TestStartEndAnchors(t *testing.T) {
	r := mustRule(t, "|https://exact.com/fp.js|")
	if !r.Matches(scriptReq("https://exact.com/fp.js")) {
		t.Fatal("exact match")
	}
	if r.Matches(scriptReq("https://exact.com/fp.js?v=2")) {
		t.Fatal("end anchor should fail on suffix")
	}
	if r.Matches(scriptReq("https://pre.com/https://exact.com/fp.js")) {
		t.Fatal("start anchor should fail mid-url")
	}
}

func TestScriptTypeOption(t *testing.T) {
	r := mustRule(t, "||tracker.net^$script")
	if !r.Matches(Request{URL: "https://tracker.net/t.js", Type: TypeScript, ThirdParty: true}) {
		t.Fatal("script type")
	}
	if r.Matches(Request{URL: "https://tracker.net/t.js", Type: TypeImage, ThirdParty: true}) {
		t.Fatal("image should not match $script rule")
	}
}

func TestDocumentOnlyModifier(t *testing.T) {
	// The A.6 mgid rule: applies to documents, NOT scripts.
	r := mustRule(t, "||mgid.com^$document")
	if !r.DocumentOnly() {
		t.Fatal("should be flagged document-only")
	}
	if r.Matches(scriptReq("https://mgid.com/fp.js")) {
		t.Fatal("document-only rule must not match a script request")
	}
	if !r.Matches(Request{URL: "https://mgid.com/page", Type: TypeDocument, ThirdParty: true}) {
		t.Fatal("should match a document request")
	}
	if mustRule(t, "||x.com^$script,document").DocumentOnly() {
		t.Fatal("multi-type rules are not document-only")
	}
}

func TestThirdPartyOption(t *testing.T) {
	r := mustRule(t, "||fp.net^$third-party")
	if !r.Matches(Request{URL: "https://fp.net/a.js", Type: TypeScript, ThirdParty: true}) {
		t.Fatal("third-party context")
	}
	if r.Matches(Request{URL: "https://fp.net/a.js", Type: TypeScript, ThirdParty: false}) {
		t.Fatal("first-party context must not match $third-party")
	}
	inv := mustRule(t, "||fp.net^$~third-party")
	if inv.Matches(Request{URL: "https://fp.net/a.js", Type: TypeScript, ThirdParty: true}) {
		t.Fatal("~third-party excludes third-party loads")
	}
}

func TestDomainOption(t *testing.T) {
	r := mustRule(t, "/fp.js$script,domain=shop.com|~safe.shop.com")
	if !r.Matches(Request{URL: "https://cdn.net/fp.js", Type: TypeScript, PageHost: "www.shop.com", ThirdParty: true}) {
		t.Fatal("included domain")
	}
	if r.Matches(Request{URL: "https://cdn.net/fp.js", Type: TypeScript, PageHost: "other.com", ThirdParty: true}) {
		t.Fatal("non-listed page host")
	}
	if r.Matches(Request{URL: "https://cdn.net/fp.js", Type: TypeScript, PageHost: "safe.shop.com", ThirdParty: true}) {
		t.Fatal("excluded subdomain")
	}
}

func TestExceptionRules(t *testing.T) {
	l := ParseList("t", strings.Join([]string{
		"||ads.net^$script",
		"@@||ads.net/allowed.js$script",
	}, "\n"))
	if !l.ShouldBlock(scriptReq("https://ads.net/track.js")) {
		t.Fatal("should block")
	}
	if l.ShouldBlock(scriptReq("https://ads.net/allowed.js")) {
		t.Fatal("exception should win")
	}
	if l.Match(scriptReq("https://ads.net/allowed.js")) == nil {
		t.Fatal("raw Match ignores exceptions")
	}
}

func TestOptionsHeuristic(t *testing.T) {
	// A "$" inside the URL pattern must not be treated as options.
	r := mustRule(t, "/path$with$dollar")
	if !r.Matches(scriptReq("https://x.com/path$with$dollar")) {
		t.Fatal("dollar in pattern")
	}
	// Unknown option names do not look like an option list, so the "$"
	// text stays part of the pattern (adblockparser's conservative
	// behavior for odd lines).
	r2 := mustRule(t, "||x.com/a$fancy-new-option")
	if r2.Matches(scriptReq("https://x.com/a")) {
		t.Fatal("the $… text should be required literally")
	}
	if !r2.Matches(scriptReq("https://x.com/a$fancy-new-option")) {
		t.Fatal("literal match should work")
	}
}

// TestCaseInsensitivity pins case-insensitive matching of patterns,
// URLs, page hosts and $domain= options, through every entry point:
// Rule.Matches, List.Match and List.ShouldBlock.
func TestCaseInsensitivity(t *testing.T) {
	for _, tc := range []struct {
		rule, url, host string
		want            bool
	}{
		{"||Tracker.NET^$script", "https://TRACKER.net/T.JS", "", true},
		{"||tracker.net^", "HTTPS://Sub.Tracker.Net/x.js", "", true},
		{"/FP/*/Collect^|", "https://cdn.example.com/fp/v2/COLLECT?", "", true},
		{"|HTTPS://CDN.example.COM/fp.js|", "https://cdn.EXAMPLE.com/FP.JS", "", true},
		{"/Banner.", "https://x.com/img/banner.gif", "", true},
		{"/banner/", "https://x.com/BANNERS/a.js", "", false},
		{"||ads.com^$domain=News.COM", "https://ads.com/a.js", "WWW.news.com", true},
		{"||ads.com^$domain=news.com", "https://ads.com/a.js", "Other.COM", false},
		{"||ads.com^$domain=~Blog.News.com", "https://ads.com/a.js", "BLOG.news.COM", false},
		{"||ads.com^$domain=~blog.news.com", "https://ADS.com/a.js", "Shop.News.Com", true},
		{"||münchen.de^", "https://MÜNCHEN.de/fp.js", "", true},
	} {
		req := Request{URL: tc.url, Type: TypeScript, PageHost: tc.host, ThirdParty: true}
		l := ParseList("case", tc.rule)
		got := [3]bool{mustRule(t, tc.rule).Matches(req), l.Match(req) != nil, l.ShouldBlock(req)}
		if got != [3]bool{tc.want, tc.want, tc.want} {
			t.Errorf("%q on %q from %q: Matches, Match, ShouldBlock = %v, want all %v", tc.rule, tc.url, tc.host, got, tc.want)
		}
	}
	// A mixed-case exception overrides a block rule.
	l := ParseList("case", "||Tracker.net^\n@@||TRACKER.NET/Allowed/")
	if l.ShouldBlock(scriptReq("https://tracker.net/allowed/a.js")) || !l.ShouldBlock(scriptReq("https://TRACKER.net/other.js")) {
		t.Fatal("a mixed-case exception rule must apply case-insensitively")
	}
}

func TestDomainList(t *testing.T) {
	d := ParseDomainList("Disconnect", "# header\nmail.ru\nfpnpmcdn.net\n")
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
	if !d.ContainsHost("privacy-cs.mail.ru") {
		t.Fatal("subdomain should match")
	}
	if !d.ContainsHost("mail.ru") {
		t.Fatal("exact")
	}
	if d.ContainsHost("gmail.ru") {
		t.Fatal("label boundary")
	}
	if d.ContainsHost("example.com") {
		t.Fatal("unlisted")
	}
}

func TestGeneratedLists(t *testing.T) {
	s := NewStandardLists(42)
	if s.EasyList.Len() < 800 {
		t.Fatalf("EasyList too small: %d", s.EasyList.Len())
	}
	if s.EasyPrivacy.Len() < 500 {
		t.Fatalf("EasyPrivacy too small: %d", s.EasyPrivacy.Len())
	}
	if s.Disconnect.Len() < 5 {
		t.Fatal("Disconnect too small")
	}
	// A.6: EasyList carries exactly 828 lone-$document rules.
	if got := s.EasyList.DocumentOnlyRuleCount(); got != 828 {
		t.Fatalf("document-only rules = %d, want 828", got)
	}
}

func TestGeneratedListsDeterministic(t *testing.T) {
	if GenerateEasyList(7) != GenerateEasyList(7) {
		t.Fatal("same seed must generate identical lists")
	}
	if GenerateEasyList(7) == GenerateEasyList(8) {
		t.Fatal("different seeds should differ")
	}
}

func TestCoverageOfKnownVendors(t *testing.T) {
	s := NewStandardLists(42)
	// mail.ru counter: EasyPrivacy + Disconnect, not EasyList.
	el, ep, disc := s.CoverageOf("https://privacy-cs.mail.ru/top/counter.js", "privacy-cs.mail.ru")
	if el || !ep || !disc {
		t.Fatalf("mail.ru coverage: el=%v ep=%v disc=%v", el, ep, disc)
	}
	// Akamai sensor: EasyList URL rule matches (footnote 5) when context
	// is ignored.
	el, ep, disc = s.CoverageOf("https://www.bank.com/akam/13/5ab2ec9e", "www.bank.com")
	if !el {
		t.Fatal("akamai path should be covered by EasyList")
	}
	if disc {
		t.Fatal("the customer's own host is not in Disconnect")
	}
	// mgid: the $document rule must NOT count for script coverage in
	// EasyList, but EasyPrivacy's script rule does.
	el, ep, disc = s.CoverageOf("https://mgid.com/uid.js", "mgid.com")
	if el {
		t.Fatal("mgid EasyList rule is document-only (A.6)")
	}
	if !ep || !disc {
		t.Fatal("mgid should be in EasyPrivacy and Disconnect")
	}
	// A first-party bundle on a random site: no coverage at all.
	el, ep, disc = s.CoverageOf("https://shop-0042.example.com/assets/app.js", "shop-0042.example.com")
	if el || ep || disc {
		t.Fatal("first-party bundles have no list coverage")
	}
}

func TestMgidPracticalGap(t *testing.T) {
	// E12 in miniature: a naive domain check says mgid is "in EasyList",
	// but the script request is not actually blocked.
	s := NewStandardLists(42)
	foundMgidRule := false
	for _, r := range s.EasyList.BlockRules() {
		if strings.Contains(r.Raw, "mgid.com") {
			foundMgidRule = true
		}
	}
	if !foundMgidRule {
		t.Fatal("EasyList must contain a mgid.com rule")
	}
	if s.EasyList.ShouldBlock(scriptReq("https://mgid.com/fp.js")) {
		t.Fatal("yet the script load must not be blocked")
	}
}

// Property: ParseRule never panics and Matches never panics for random
// rule text and URLs.
func TestParserRobustnessProperty(t *testing.T) {
	f := func(line, url string) bool {
		r, ok := ParseRule(line)
		if ok && r != nil {
			r.Matches(Request{URL: url, Type: TypeScript, ThirdParty: true})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkListMatch(b *testing.B) {
	s := NewStandardLists(42)
	req := scriptReq("https://privacy-cs.mail.ru/top/counter.js")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EasyPrivacy.Match(req)
	}
}

func BenchmarkListMiss(b *testing.B) {
	s := NewStandardLists(42)
	req := scriptReq("https://benign-site.example.org/assets/main.js")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.EasyList.Match(req)
	}
}
