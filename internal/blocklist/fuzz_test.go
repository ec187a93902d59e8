package blocklist

import (
	"strings"
	"testing"
)

// FuzzParseRule hammers the filter parser and matcher with arbitrary
// rule lines and URLs: neither may panic, and accepted rules must keep
// the parse-level invariants (Raw preservation, "@@" ⇒ Exception) the
// engine and the rule-provenance reports rely on.
func FuzzParseRule(f *testing.F) {
	for _, seed := range []string{
		"||tracker.example.com^",
		"||ads.example.com^$script,third-party",
		"|https://cdn.example.com/fp.js|",
		"@@||goodsite.com^$script",
		"/fingerprint/*/collect^|",
		"abc^|",
		"^^^",
		"$script",
		"||x^$domain=a.com|~b.a.com",
		"tracker$script,domain=",
		"! comment",
		"##.ad-banner",
		"@@",
		"*",
		"||",
		"|x|",
		"a$unknownopt",
		"||mgid.com^$document",
	} {
		f.Add(seed, "https://sub.tracker.example.com/fp/collect.js")
	}
	f.Fuzz(func(t *testing.T, line, rawURL string) {
		r, ok := ParseRule(line)
		if !ok {
			if r != nil {
				t.Fatalf("ParseRule(%q) returned a rule with ok=false", line)
			}
			return
		}
		if r.Raw != strings.TrimSpace(line) {
			t.Fatalf("ParseRule(%q).Raw = %q, want the trimmed line", line, r.Raw)
		}
		if r.Exception != strings.HasPrefix(r.Raw, "@@") {
			t.Fatalf("ParseRule(%q): Exception=%v disagrees with @@ prefix", line, r.Exception)
		}
		// Matching must be total: no panics for any rule/URL pair, and
		// a deterministic answer (same request twice, same verdict).
		for _, req := range []Request{
			{URL: rawURL, Type: TypeScript, PageHost: "news.example", ThirdParty: true},
			{URL: rawURL, Type: TypeDocument, PageHost: "tracker.example.com", ThirdParty: false},
			{URL: "https://sub.tracker.example.com/fp/collect.js", Type: TypeScript, PageHost: "a.b", ThirdParty: true},
			{URL: "", Type: TypeImage},
		} {
			if r.Matches(req) != r.Matches(req) {
				t.Fatalf("ParseRule(%q): Matches not deterministic for %+v", line, req)
			}
		}
	})
}

// FuzzListMatch checks the host index differentially: for arbitrary
// list text and requests, Match must return the very rule a linear scan
// of the block rules returns, and ShouldBlock the linear scans' verdict.
func FuzzListMatch(f *testing.F) {
	lists := []string{
		GenerateEasyList(3),
		GenerateEasyPrivacy(3),
		GenerateDisconnect(),
		// A run followed by '*', by '/', by '^' then an end anchor, and
		// no run at all: only the middle two may be bucketed.
		"||a.com*x\n||a.com/x\n||a.com^|\n||*x^\n@@||a.com/x$script\n",
		// Bucketed rules first, a subdomain's before its parent's.
		"||sub.a.com^\n||a.com/x\n||a.com*x\n",
	}
	// The last three each match a bucketed rule and another rule, in
	// either order, so Match must return the first.
	urls := []string{
		"https://user@a.com/x",
		"https://user:pw@a.com/x",
		"x.org/r?u=http://a.com/x",
		"a.com.evil.org",
		"https://mgid.com/uid/fp.js",
		"https://cdn.fpnpmcdn.net/v3/loader.js?x=1",
		"https://a.com/x",
		"https://sub.a.com/x",
		"https://ads.example-network.com/akam/x.js",
	}
	for i, text := range lists {
		for j, u := range urls {
			f.Add(text, u, string(TypeScript), "news.example", (i+j)%2 == 0)
		}
	}
	f.Fuzz(func(t *testing.T, text, url, typ, pageHost string, thirdParty bool) {
		l := ParseList("fuzz", text)
		req := Request{URL: url, Type: RequestType(typ), PageHost: pageHost, ThirdParty: thirdParty}
		if got, want := l.Match(req), l.linearMatch(req); got != want {
			t.Fatalf("Match(%+v) = %v, a linear scan gives %v", req, ruleText(got), ruleText(want))
		}
		if got, want := l.ShouldBlock(req), l.linearShouldBlock(req); got != want {
			t.Fatalf("ShouldBlock(%+v) = %v, linear scans give %v", req, got, want)
		}
	})
}

func ruleText(r *Rule) string {
	if r == nil {
		return "no rule"
	}
	return r.Raw
}
