package blocklist

// A list's rules are mostly "||host^" and "||host/path" rules, and a
// linear scan tests each of them against every request. Such a rule can
// match only where the URL's host holds exactly its host run at a label
// boundary, so a ruleSet buckets those rules by that run and a request
// tests only the buckets its host's label suffixes name, plus the rules
// no bucket holds.

// ruleSet is one kind of a list's rules, in list order, indexed for
// first.
type ruleSet struct {
	rules []*Rule
	// other holds the positions of the rules no bucket holds, and byHost
	// the positions of the others by their hostRun; both ascending.
	other  []int
	byHost map[string][]int
}

func newRuleSet(rules []*Rule) ruleSet {
	s := ruleSet{rules: rules, byHost: make(map[string][]int, len(rules))}
	for i, r := range rules {
		if k := r.hostRun(); k != "" {
			s.byHost[k] = append(s.byHost[k], i)
		} else {
			s.other = append(s.other, i)
		}
	}
	return s
}

// hostRun returns the bucket key of a "||" rule whose pattern starts with
// a non-empty run of non-separator bytes followed by '^' or '/', or "".
// matchDomainAnchored matches such a rule at an offset only when the run
// equals the longest non-separator run starting there: the run is
// literal, and what follows it must be a separator or the URL's end.
func (r *Rule) hostRun() string {
	if !r.domainAnch {
		return ""
	}
	p := r.parts[0]
	n := runLen(p, 0)
	if n == 0 || n == len(p) || p[n] != '^' && p[n] != '/' {
		return ""
	}
	return p[:n]
}

// runLen returns the length of the run of non-separator bytes at s[i:].
func runLen(s string, i int) int {
	n := i
	for n < len(s) && !isSeparator(s[n]) {
		n++
	}
	return n - i
}

// first returns the lowest-numbered rule that matches req, which
// lowerRequest has lowered, or nil: the rule a scan of every rule in
// order returns. At each offset matchDomainAnchored tries, it scans the
// bucket of the run starting there, then the unbucketed rules, each only
// up to the best match so far, so an early match ends the scans early.
func (s *ruleSet) first(req Request) *Rule {
	best := len(s.rules)
	scan := func(candidates []int) {
		for _, i := range candidates {
			if i >= best {
				return
			}
			if s.rules[i].matches(req) {
				best = i
				return
			}
		}
	}
	if len(s.byHost) > 0 {
		rest, hostEnd := hostSection(req.URL)
		for start := 0; start <= hostEnd; start++ {
			if start == 0 || rest[start-1] == '.' {
				scan(s.byHost[rest[start:start+runLen(rest, start)]])
			}
		}
	}
	scan(s.other)
	if best == len(s.rules) {
		return nil
	}
	return s.rules[best]
}
