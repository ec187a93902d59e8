package blocklist

import (
	"strings"
)

// List is a parsed filter list with ABP semantics: exception rules beat
// block rules.
type List struct {
	// Name identifies the list ("EasyList", "EasyPrivacy", ...).
	Name string

	block      []*Rule
	exceptions []*Rule
}

// ParseList parses a full list text, skipping comments and unsupported
// rule kinds.
func ParseList(name, text string) *List {
	l := &List{Name: name}
	for _, line := range strings.Split(text, "\n") {
		r, ok := ParseRule(line)
		if !ok {
			continue
		}
		if r.Exception {
			l.exceptions = append(l.exceptions, r)
		} else {
			l.block = append(l.block, r)
		}
	}
	return l
}

// Len returns the number of usable rules (block + exception).
func (l *List) Len() int { return len(l.block) + len(l.exceptions) }

// BlockRules returns the block rules (read-only use).
func (l *List) BlockRules() []*Rule { return l.block }

// Match returns the first block rule that applies to req, or nil. It is
// the raw "is this URL covered by the list" primitive the Table 4
// analysis uses (no exception processing, matching adblockparser's
// should_block on a single list with one rule set).
func (l *List) Match(req Request) *Rule { return l.match(lowerRequest(req)) }

func (l *List) match(req Request) *Rule {
	for _, r := range l.block {
		if r.matches(req) {
			return r
		}
	}
	return nil
}

// ShouldBlock applies full ABP semantics: blocked if some block rule
// matches and no exception rule does.
func (l *List) ShouldBlock(req Request) bool {
	req = lowerRequest(req)
	if l.match(req) == nil {
		return false
	}
	for _, r := range l.exceptions {
		if r.matches(req) {
			return false
		}
	}
	return true
}

// DocumentOnlyRuleCount counts rules that carry a lone $document modifier
// (the A.6 rule-design failure: EasyList had 828 such rules).
func (l *List) DocumentOnlyRuleCount() int {
	n := 0
	for _, r := range l.block {
		if r.DocumentOnly() {
			n++
		}
	}
	return n
}

// DomainList is the Disconnect-style tracker list: a set of registrable
// domains. Matching is purely domain-based (§5.1).
type DomainList struct {
	Name    string
	domains map[string]bool
}

// ParseDomainList parses one domain per line ("#" comments allowed).
func ParseDomainList(name, text string) *DomainList {
	d := &DomainList{Name: name, domains: map[string]bool{}}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		d.domains[strings.ToLower(line)] = true
	}
	return d
}

// Len returns the number of listed domains.
func (d *DomainList) Len() int { return len(d.domains) }

// ContainsHost reports whether host or any parent domain is listed.
func (d *DomainList) ContainsHost(host string) bool {
	host = strings.ToLower(host)
	for host != "" {
		if d.domains[host] {
			return true
		}
		i := strings.IndexByte(host, '.')
		if i < 0 {
			return false
		}
		host = host[i+1:]
	}
	return false
}
