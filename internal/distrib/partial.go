package distrib

import (
	"encoding/json"
	"fmt"
	"path/filepath"

	"canvassing/internal/checkpoint"
	"canvassing/internal/crawler"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
)

// Partial is one work-unit's completed output as its checkpoint journal
// holds it: the unit's page results, metrics snapshot and events, plus
// the optional exemplar reservoir view.
type Partial struct {
	Spec UnitSpec
	// Metrics is the unit registry's snapshot: counters and histograms
	// covering exactly the unit's pages.
	Metrics obs.Snapshot
	// Events are the unit's evidence events in commit order. Seq is
	// unit-local; the merge re-records them, which re-stamps Seq.
	Events []event.Event
	// Pages are the unit's page results, Pages[i] being global page
	// Spec.Start+i of the condition's frontier.
	Pages []*crawler.PageResult
	// Machine and Extension identify the profile the unit crawled on.
	Machine   string
	Extension string
	// Exemplars is the unit reservoir's per-condition view (nil unless
	// the study traces visits).
	Exemplars []tracez.CondExemplars
}

// LoadPartial folds one unit directory's journal and validates it
// against the directory's unit.json. A unit whose journal is missing,
// was written for another spec, has not marked its crawl done, or
// dropped events is refused: it is half-finished or lossy, and merging
// it would break the serial bytes.
func LoadPartial(dir string) (*Partial, error) {
	spec, err := ReadUnitSpec(dir)
	if err != nil {
		return nil, err
	}
	cp, err := checkpoint.Load(dir)
	if err != nil {
		return nil, fmt.Errorf("distrib: unit %s: %w", spec.ID, err)
	}
	if err := checkJournalSpec(cp, spec); err != nil {
		return nil, err
	}
	cs := cp.Crawl(spec.Condition)
	switch {
	case cs == nil || !cs.Done:
		return nil, fmt.Errorf("distrib: unit %s: its journal does not mark the %s crawl done", spec.ID, spec.Condition)
	case cs.Frontier != spec.Pages():
		return nil, fmt.Errorf("distrib: unit %s journal holds %d pages, range [%d,%d) wants %d", spec.ID, cs.Frontier, spec.Start, spec.End, spec.Pages())
	case cp.EventsDropped != 0:
		return nil, fmt.Errorf("distrib: unit %s dropped %d events; its journal is lossy and cannot merge deterministically", spec.ID, cp.EventsDropped)
	}
	for i := range cp.Events {
		if cp.Events[i].Crawl != "" && cp.Events[i].Crawl != spec.Condition {
			return nil, fmt.Errorf("distrib: unit %s event %d belongs to crawl %q, not %q", spec.ID, i, cp.Events[i].Crawl, spec.Condition)
		}
	}
	p := &Partial{
		Spec: spec, Metrics: cp.Metrics, Events: cp.Events,
		Pages: cs.Pages, Machine: cs.Machine, Extension: cs.Extension,
	}
	if spec.Study.TraceVisits {
		ex, err := tracez.ReadExemplars(filepath.Join(dir, tracez.ExemplarsFile))
		if err != nil {
			return nil, fmt.Errorf("distrib: unit %s: %w", spec.ID, err)
		}
		p.Exemplars = ex.Conditions
	}
	return p, nil
}

// checkJournalSpec requires the options cp records to decode to
// exactly spec, so neither a resume nor a merge mistakes another
// unit's journal for this one's.
func checkJournalSpec(cp *checkpoint.Checkpoint, spec UnitSpec) error {
	var got UnitSpec
	if err := json.Unmarshal(cp.Opts, &got); err != nil {
		return fmt.Errorf("distrib: unit %s journal options: %w", spec.ID, err)
	}
	if got != spec {
		return fmt.Errorf("distrib: unit %s: its journal was written for another unit spec", spec.ID)
	}
	return nil
}
