package blocklist

// linearMatch is what Match returned before the host index: the first
// block rule, in list order, that matches req.
func (l *List) linearMatch(req Request) *Rule {
	return linearFirst(l.block.rules, lowerRequest(req))
}

// linearShouldBlock is ShouldBlock by linear scans: some block rule
// matches and no exception rule does.
func (l *List) linearShouldBlock(req Request) bool {
	req = lowerRequest(req)
	return linearFirst(l.block.rules, req) != nil && linearFirst(l.exceptions.rules, req) == nil
}

func linearFirst(rules []*Rule, req Request) *Rule {
	for _, r := range rules {
		if r.matches(req) {
			return r
		}
	}
	return nil
}
