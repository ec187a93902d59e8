package distrib

import (
	"fmt"
	"sort"

	"canvassing/internal/crawler"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
)

// MergedCrawl is one condition's recombined crawl: exactly what the
// single-process crawl of the full frontier would have produced.
type MergedCrawl struct {
	Condition string
	Machine   string
	Extension string
	// Pages is the full frontier's page results in page order.
	Pages []*crawler.PageResult
	// Events are every unit's evidence events concatenated in page-range
	// order; re-recording them into a sink re-stamps Seq, reproducing
	// the serial event stream.
	Events []event.Event
	// Metrics is the summed metrics snapshot. Gauges are absent — they
	// are instantaneous values the adopting process owns.
	Metrics obs.Snapshot
	// Exemplars holds every unit's reservoir view in page-range order,
	// ready for Reservoir.Absorb.
	Exemplars []tracez.CondExemplars
}

// MergeCrawl recombines one condition's unit partials. It refuses —
// with an error, never a panic or a silent partial merge — any input
// set that does not tile the condition's frontier exactly: overlaps,
// gaps, duplicates, mixed conditions, or mismatched study specs. When
// it returns nil error, every page of the frontier is covered exactly
// once.
//
// The merge rules, each preserving the single-process bytes:
//
//   - pages concatenate in range order (each unit's Pages[i] is global
//     page Start+i);
//   - events concatenate in range order (unit-local order is already
//     page order, thanks to the crawler's ordered committer);
//   - counters sum;
//   - histograms add bucket-wise (layout mismatches are errors);
//   - exemplar views are collected in range order for the caller to
//     Absorb, which re-selects exactly as the unified stream would.
func MergeCrawl(parts []*Partial) (*MergedCrawl, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("distrib: merge of zero partials")
	}
	ordered := make([]*Partial, len(parts))
	copy(ordered, parts)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Spec.Start < ordered[j].Spec.Start })

	first := ordered[0].Spec
	m := &MergedCrawl{Condition: first.Condition}
	next := 0
	for _, p := range ordered {
		s := p.Spec
		if err := s.validate(); err != nil {
			return nil, err
		}
		switch {
		case s.Condition != first.Condition:
			return nil, fmt.Errorf("distrib: merge mixes conditions %q and %q", first.Condition, s.Condition)
		case s.Total != first.Total:
			return nil, fmt.Errorf("distrib: unit %s frontier total %d != %d", s.ID, s.Total, first.Total)
		case s.Study != first.Study:
			return nil, fmt.Errorf("distrib: unit %s study spec differs from unit %s", s.ID, first.ID)
		case s.Start < next:
			return nil, fmt.Errorf("distrib: unit %s range [%d,%d) overlaps or duplicates pages before %d", s.ID, s.Start, s.End, next)
		case s.Start > next:
			return nil, fmt.Errorf("distrib: pages [%d,%d) are covered by no unit", next, s.Start)
		case len(p.Pages) != s.Pages():
			return nil, fmt.Errorf("distrib: unit %s carries %d pages for range [%d,%d)", s.ID, len(p.Pages), s.Start, s.End)
		}
		next = s.End
	}
	if next != first.Total {
		return nil, fmt.Errorf("distrib: pages [%d,%d) are covered by no unit", next, first.Total)
	}
	for _, p := range ordered {
		if p.Machine != ordered[0].Machine || p.Extension != ordered[0].Extension {
			return nil, fmt.Errorf("distrib: unit %s crawled on %s/%s, unit %s on %s/%s",
				p.Spec.ID, p.Machine, p.Extension, ordered[0].Spec.ID, ordered[0].Machine, ordered[0].Extension)
		}
	}
	m.Machine, m.Extension = ordered[0].Machine, ordered[0].Extension

	// Counters and histograms sum through a scratch registry, which
	// validates histogram bucket layouts.
	scratch := obs.NewRegistry()
	for _, p := range ordered {
		if err := scratch.Merge(p.Metrics); err != nil {
			return nil, fmt.Errorf("distrib: unit %s: %w", p.Spec.ID, err)
		}
		m.Pages = append(m.Pages, p.Pages...)
		m.Events = append(m.Events, p.Events...)
		m.Exemplars = append(m.Exemplars, p.Exemplars...)
	}
	m.Metrics = scratch.Snapshot()
	return m, nil
}
