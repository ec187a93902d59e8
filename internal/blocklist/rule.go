// Package blocklist implements an Adblock Plus filter-list engine — the
// equivalent of the adblockparser library the paper uses (§5.1) — plus
// the Disconnect domain list format, and generation of the synthetic
// EasyList/EasyPrivacy/Disconnect lists used by the experiments.
//
// Supported filter syntax: address-part patterns with "*" wildcards, the
// "^" separator placeholder, "||" domain anchors, "|" start/end anchors,
// "@@" exception rules, and the option modifiers that matter for this
// study ($script, $image, $document, $subdocument, $third-party,
// $~third-party, $domain=...). Element-hiding rules ("##") and comments
// ("!") are ignored, as adblockparser ignores them.
package blocklist

import (
	"strings"
)

// RequestType classifies the resource being requested.
type RequestType string

// Request types relevant to the study.
const (
	TypeScript      RequestType = "script"
	TypeDocument    RequestType = "document"
	TypeSubdocument RequestType = "subdocument"
	TypeImage       RequestType = "image"
	TypeOther       RequestType = "other"
)

// Request is one resource load to test against a list.
type Request struct {
	// URL of the resource.
	URL string
	// Type of the resource (script for fingerprinting-script checks).
	Type RequestType
	// PageHost is the host of the page making the request, used for
	// third-party determination.
	PageHost string
	// ThirdParty reports whether URL's host and PageHost belong to
	// different sites. The caller computes it (the engine does not
	// embed eTLD+1 policy).
	ThirdParty bool
}

// Rule is one parsed filter.
type Rule struct {
	// Raw is the original filter text.
	Raw string
	// Exception marks "@@" rules.
	Exception bool
	// pattern pieces (lower-cased, split on "*"), with anchoring flags.
	parts       []string
	anchorStart bool // "|" prefix: match at start of URL
	anchorEnd   bool // "|" suffix: match at end of URL
	domainAnch  bool // "||" prefix: match at a domain boundary
	// option modifiers
	typeMask   map[RequestType]bool // nil = all types
	thirdParty int8                 // 0 unset, +1 $third-party, -1 $~third-party
	domains    []string             // $domain= includes
	domainsNot []string             // $domain=~ excludes
	hasDocOnly bool                 // $document with no resource types
}

// ParseRule parses one filter line. It returns nil (and ok=false) for
// comments, element-hiding rules, and empty lines.
func ParseRule(line string) (*Rule, bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "!") || strings.HasPrefix(line, "[") {
		return nil, false
	}
	if strings.Contains(line, "##") || strings.Contains(line, "#@#") || strings.Contains(line, "#?#") {
		return nil, false // element hiding
	}
	r := &Rule{Raw: line}
	body := line
	if strings.HasPrefix(body, "@@") {
		r.Exception = true
		body = body[2:]
	}
	// Split off options at the last "$" (URLs may contain "$" rarely;
	// filter lists put options last).
	if i := strings.LastIndexByte(body, '$'); i >= 0 {
		opts := body[i+1:]
		// Heuristic, as in adblockparser: treat as options only if it
		// looks like a comma-separated option list.
		if looksLikeOptions(opts) {
			body = body[:i]
			if !r.applyOptions(opts) {
				return nil, false // unsupported critical option
			}
		}
	}
	if strings.HasPrefix(body, "||") {
		r.domainAnch = true
		body = body[2:]
	} else if strings.HasPrefix(body, "|") {
		r.anchorStart = true
		body = body[1:]
	}
	if strings.HasSuffix(body, "|") {
		r.anchorEnd = true
		body = body[:len(body)-1]
	}
	if body == "" {
		return nil, false
	}
	// Matching is case-insensitive ($match-case is ignored), so the
	// pattern is lowered once here and the request once per match.
	r.parts = strings.Split(strings.ToLower(body), "*")
	return r, true
}

var knownOptions = []string{
	"script", "image", "stylesheet", "object", "xmlhttprequest", "ping",
	"subdocument", "document", "websocket", "webrtc", "popup", "font",
	"media", "other", "third-party", "first-party", "match-case",
	"domain", "elemhide", "generichide", "genericblock",
}

func looksLikeOptions(s string) bool {
	if s == "" {
		return false
	}
	for _, opt := range strings.Split(s, ",") {
		opt = strings.TrimPrefix(strings.TrimSpace(opt), "~")
		if k, _, found := strings.Cut(opt, "="); found {
			opt = k
		}
		ok := false
		for _, known := range knownOptions {
			if opt == known {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// applyOptions parses the $option list; it reports false when the rule
// should be dropped entirely (an unsupported option semantics).
func (r *Rule) applyOptions(opts string) bool {
	docOnly := false
	sawType := false
	for _, opt := range strings.Split(opts, ",") {
		opt = strings.TrimSpace(opt)
		neg := strings.HasPrefix(opt, "~")
		if neg {
			opt = opt[1:]
		}
		switch {
		case opt == "third-party":
			if neg {
				r.thirdParty = -1
			} else {
				r.thirdParty = 1
			}
		case opt == "first-party":
			if neg {
				r.thirdParty = 1
			} else {
				r.thirdParty = -1
			}
		case strings.HasPrefix(opt, "domain="):
			for _, d := range strings.Split(opt[len("domain="):], "|") {
				d = strings.TrimSpace(d)
				if strings.HasPrefix(d, "~") {
					r.domainsNot = append(r.domainsNot, strings.ToLower(d[1:]))
				} else if d != "" {
					r.domains = append(r.domains, strings.ToLower(d))
				}
			}
		case opt == "match-case", opt == "elemhide", opt == "generichide", opt == "genericblock", opt == "popup":
			// Accepted and ignored.
		default:
			// Resource-type option.
			rt := RequestType(opt)
			switch rt {
			case TypeScript, TypeDocument, TypeSubdocument, TypeImage,
				"stylesheet", "object", "xmlhttprequest", "ping",
				"websocket", "webrtc", "font", "media", "other":
				if r.typeMask == nil {
					r.typeMask = map[RequestType]bool{}
				}
				sawType = true
				if neg {
					// Negated types: start from "all" semantics; we
					// approximate by marking everything except this
					// type. Rare in practice; treat as no-op mask.
					continue
				}
				r.typeMask[rt] = true
				if rt == TypeDocument {
					docOnly = true
				} else {
					docOnly = false
				}
			default:
				return false // unknown option: drop rule
			}
		}
	}
	r.hasDocOnly = docOnly && sawType && len(r.typeMask) == 1
	return true
}

// DocumentOnly reports whether the rule carries a lone $document modifier
// — the A.6 mis-scoping that makes a filter useless against scripts.
func (r *Rule) DocumentOnly() bool { return r.hasDocOnly }

// Matches reports whether the rule applies to req.
func (r *Rule) Matches(req Request) bool { return r.matches(lowerRequest(req)) }

// lowerRequest lower-cases the request fields rules match against.
func lowerRequest(req Request) Request {
	req.URL = strings.ToLower(req.URL)
	req.PageHost = strings.ToLower(req.PageHost)
	return req
}

// matches is Matches on a request lowerRequest has already lowered.
func (r *Rule) matches(req Request) bool {
	// Option gating first (cheap).
	if r.typeMask != nil && !r.typeMask[req.Type] {
		return false
	}
	if r.thirdParty == 1 && !req.ThirdParty {
		return false
	}
	if r.thirdParty == -1 && req.ThirdParty {
		return false
	}
	if len(r.domains) > 0 && !hostMatchesAny(req.PageHost, r.domains) {
		return false
	}
	if len(r.domainsNot) > 0 && hostMatchesAny(req.PageHost, r.domainsNot) {
		return false
	}
	return r.matchPattern(req.URL)
}

func hostMatchesAny(host string, domains []string) bool {
	for _, d := range domains {
		if host == d || strings.HasSuffix(host, "."+d) {
			return true
		}
	}
	return false
}

// matchPattern runs the wildcard/anchor match against the URL.
func (r *Rule) matchPattern(url string) bool {
	if r.domainAnch {
		// "||example.com/x" matches at the start of a (sub)domain.
		return matchDomainAnchored(url, r.parts, r.anchorEnd)
	}
	pos := 0
	for i, part := range r.parts {
		if part == "" {
			continue
		}
		idx := indexFrom(url, part, pos, i == 0 && r.anchorStart)
		if idx < 0 {
			return false
		}
		if i == 0 && r.anchorStart && idx != 0 {
			return false
		}
		pos = idx + len(part)
	}
	if r.anchorEnd {
		last := lastNonEmpty(r.parts)
		if last == "" {
			return true
		}
		return matchesEnd(url, last)
	}
	return true
}

func lastNonEmpty(parts []string) string {
	for i := len(parts) - 1; i >= 0; i-- {
		if parts[i] != "" {
			return parts[i]
		}
	}
	return ""
}

// indexFrom finds part in url at/after pos honoring "^" separators.
func indexFrom(url, part string, pos int, anchored bool) int {
	if pos > len(url) {
		return -1
	}
	for i := pos; i+sepLen(part) <= len(url)+sepExtra(part); i++ {
		if anchored && i > pos {
			return -1
		}
		if sepMatch(url, i, part) {
			return i
		}
	}
	return -1
}

// sepLen is the minimum URL characters needed to match the part (a "^"
// may match the end of the URL, consuming nothing).
func sepLen(part string) int { return len(part) }

func sepExtra(part string) int {
	if strings.HasSuffix(part, "^") {
		return 1
	}
	return 0
}

// sepMatch tests part against url at offset i, treating '^' as the ABP
// separator class.
func sepMatch(url string, i int, part string) bool {
	for j := 0; j < len(part); j++ {
		pc := part[j]
		if pc == '^' {
			if i+j == len(url) {
				return j == len(part)-1 // '^' may match end-of-URL
			}
			if !isSeparator(url[i+j]) {
				return false
			}
			continue
		}
		if i+j >= len(url) || url[i+j] != pc {
			return false
		}
	}
	return true
}

// isSeparator implements the ABP separator class: anything that is not a
// letter, digit, or one of "_", "-", ".", "%".
func isSeparator(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		return false
	case c == '_' || c == '-' || c == '.' || c == '%':
		return false
	}
	return true
}

func matchesEnd(url, last string) bool {
	if strings.HasSuffix(last, "^") {
		// "...^|" — separator then end; the '^' consumed end-of-url.
		return sepMatch(url, len(url)-len(last)+1, last) ||
			(len(url) >= len(last) && sepMatch(url, len(url)-len(last), last))
	}
	return strings.HasSuffix(url, last)
}

// hostSection returns url from its host on, and the length of the host
// at its start: the bytes before the first '/', '?', '#' or ':'. A "://"
// ends the scheme only before the first '/', '?' or '#', so one in the
// path or query of a scheme-less URL is not taken for it, and userinfo
// is skipped up to the authority's last '@'.
func hostSection(url string) (rest string, hostEnd int) {
	rest = url
	if i := strings.Index(rest, "://"); i >= 0 && !strings.ContainsAny(rest[:i], "/?#") {
		rest = rest[i+3:]
	}
	hostEnd = len(rest)
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		hostEnd = i
	}
	if i := strings.LastIndexByte(rest[:hostEnd], '@'); i >= 0 {
		rest, hostEnd = rest[i+1:], hostEnd-i-1
	}
	if i := strings.IndexByte(rest[:hostEnd], ':'); i >= 0 {
		hostEnd = i
	}
	return rest, hostEnd
}

// matchDomainAnchored implements "||" semantics: the first pattern part
// must match starting at a hostname-label boundary within the URL's host.
func matchDomainAnchored(url string, parts []string, anchorEnd bool) bool {
	rest, hostEnd := hostSection(url)
	first := parts[0]
	// Candidate start offsets: 0 or just after a '.' within the host.
	for start := 0; start <= hostEnd; start++ {
		if start != 0 && rest[start-1] != '.' {
			continue
		}
		if !sepMatch(rest, start, first) {
			continue
		}
		// Remaining parts match anywhere after.
		pos := start + len(first)
		ok := true
		for _, part := range parts[1:] {
			if part == "" {
				continue
			}
			idx := indexFrom(rest, part, pos, false)
			if idx < 0 {
				ok = false
				break
			}
			pos = idx + len(part)
		}
		if ok {
			if anchorEnd {
				last := lastNonEmpty(parts)
				return matchesEnd(rest, last)
			}
			return true
		}
	}
	return false
}
