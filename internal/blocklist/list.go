package blocklist

import (
	"strings"
)

// List is a parsed filter list with ABP semantics: exception rules beat
// block rules.
type List struct {
	// Name identifies the list ("EasyList", "EasyPrivacy", ...).
	Name string

	block      ruleSet
	exceptions ruleSet
}

// ParseList parses a full list text, skipping comments and unsupported
// rule kinds.
func ParseList(name, text string) *List {
	var block, exceptions []*Rule
	for _, line := range strings.Split(text, "\n") {
		r, ok := ParseRule(line)
		if !ok {
			continue
		}
		if r.Exception {
			exceptions = append(exceptions, r)
		} else {
			block = append(block, r)
		}
	}
	return &List{Name: name, block: newRuleSet(block), exceptions: newRuleSet(exceptions)}
}

// Len returns the number of usable rules (block + exception).
func (l *List) Len() int { return len(l.block.rules) + len(l.exceptions.rules) }

// BlockRules returns the block rules (read-only use).
func (l *List) BlockRules() []*Rule { return l.block.rules }

// Match returns the first block rule that applies to req, or nil. It is
// the raw "is this URL covered by the list" primitive the Table 4
// analysis uses (no exception processing, matching adblockparser's
// should_block on a single list with one rule set).
func (l *List) Match(req Request) *Rule { return l.block.first(lowerRequest(req)) }

// ShouldBlock applies full ABP semantics: blocked if some block rule
// matches and no exception rule does.
func (l *List) ShouldBlock(req Request) bool {
	req = lowerRequest(req)
	return l.block.first(req) != nil && l.exceptions.first(req) == nil
}

// DocumentOnlyRuleCount counts rules that carry a lone $document modifier
// (the A.6 rule-design failure: EasyList had 828 such rules).
func (l *List) DocumentOnlyRuleCount() int {
	n := 0
	for _, r := range l.block.rules {
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
