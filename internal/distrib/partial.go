package distrib

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"canvassing/internal/bundle"
	"canvassing/internal/crawler"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/obs/tracez"
)

// Partial is one work-unit's completed output: a partial bundle
// (manifest, metrics snapshot, events) plus the unit's page results
// and the optional exemplar reservoir view.
type Partial struct {
	Dir      string
	Spec     UnitSpec
	Manifest bundle.Manifest
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

// unitPages is the pages.json wire form.
type unitPages struct {
	Schema    int                   `json:"schema"`
	Unit      string                `json:"unit"`
	Machine   string                `json:"machine"`
	Extension string                `json:"extension,omitempty"`
	Pages     []*crawler.PageResult `json:"pages"`
}

// WritePartial writes p's bundle files into dir: manifest.json,
// metrics.json, events.jsonl, and pages.json. The exemplar sidecar is
// written by the unit runner (it has its own writer); the checkpoint
// sidecar, if any, must be removed by the caller AFTER this returns —
// its presence is what marks the partial half-finished.
func WritePartial(dir string, p *Partial) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	if got, want := len(p.Pages), p.Spec.Pages(); got != want {
		return fmt.Errorf("distrib: unit %s partial has %d pages, range holds %d", p.Spec.ID, got, want)
	}
	m := bundle.Manifest{
		BundleSchema:  bundle.SchemaVersion,
		EventSchema:   event.SchemaVersion,
		GoVersion:     runtime.Version(),
		Seed:          p.Spec.Study.Seed,
		Scale:         p.Spec.Study.Scale,
		Workers:       p.Spec.Study.Workers,
		Conditions:    []string{p.Spec.Condition},
		Events:        len(p.Events),
		EventsTotal:   uint64(len(p.Events)),
		EventsDropped: 0,
		Notes:         fmt.Sprintf("distrib unit %s: %s[%d,%d) of %d", p.Spec.ID, p.Spec.Condition, p.Spec.Start, p.Spec.End, p.Spec.Total),
	}
	mdata, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("distrib: manifest: %w", err)
	}
	if err := atomicWrite(filepath.Join(dir, bundle.ManifestFile), append(mdata, '\n')); err != nil {
		return err
	}
	xdata, err := json.MarshalIndent(p.Metrics, "", "  ")
	if err != nil {
		return fmt.Errorf("distrib: metrics: %w", err)
	}
	if err := atomicWrite(filepath.Join(dir, bundle.MetricsFile), append(xdata, '\n')); err != nil {
		return err
	}
	var events []byte
	for i := range p.Events {
		line, err := json.Marshal(p.Events[i])
		if err != nil {
			return fmt.Errorf("distrib: events: %w", err)
		}
		events = append(events, line...)
		events = append(events, '\n')
	}
	if err := atomicWrite(filepath.Join(dir, bundle.EventsFile), events); err != nil {
		return err
	}
	pg := unitPages{
		Schema:    SchemaVersion,
		Unit:      p.Spec.ID,
		Machine:   p.Machine,
		Extension: p.Extension,
		Pages:     p.Pages,
	}
	pdata, err := json.MarshalIndent(pg, "", "  ")
	if err != nil {
		return fmt.Errorf("distrib: pages: %w", err)
	}
	return atomicWrite(filepath.Join(dir, PagesFile), append(pdata, '\n'))
}

// LoadPartial loads and validates one completed unit directory. A
// directory still holding a checkpoint sidecar is refused via
// bundle.ErrCheckpointed — that unit is half-finished; resume it, do
// not merge it.
func LoadPartial(dir string) (*Partial, error) {
	spec, err := ReadUnitSpec(dir)
	if err != nil {
		return nil, err
	}
	b, err := bundle.Load(dir)
	if err != nil {
		return nil, fmt.Errorf("distrib: unit %s: %w", spec.ID, err)
	}
	p := &Partial{Dir: dir, Spec: spec, Manifest: b.Manifest, Metrics: b.Metrics, Events: b.Events}
	switch {
	case b.Manifest.EventsDropped != 0:
		return nil, fmt.Errorf("distrib: unit %s dropped %d events; its partial is lossy and cannot merge deterministically", spec.ID, b.Manifest.EventsDropped)
	case b.Manifest.Events != len(b.Events):
		return nil, fmt.Errorf("distrib: unit %s manifest counts %d events, log holds %d", spec.ID, b.Manifest.Events, len(b.Events))
	case b.Manifest.Seed != spec.Study.Seed || b.Manifest.Scale != spec.Study.Scale:
		return nil, fmt.Errorf("distrib: unit %s manifest (seed %d, scale %g) does not match its spec (seed %d, scale %g)",
			spec.ID, b.Manifest.Seed, b.Manifest.Scale, spec.Study.Seed, spec.Study.Scale)
	}
	for i := range p.Events {
		if p.Events[i].Crawl != "" && p.Events[i].Crawl != spec.Condition {
			return nil, fmt.Errorf("distrib: unit %s event %d belongs to crawl %q, not %q", spec.ID, i, p.Events[i].Crawl, spec.Condition)
		}
	}
	pdata, err := os.ReadFile(filepath.Join(dir, PagesFile))
	if err != nil {
		return nil, fmt.Errorf("distrib: unit %s: %w", spec.ID, err)
	}
	var pg unitPages
	if err := json.Unmarshal(pdata, &pg); err != nil {
		return nil, fmt.Errorf("distrib: unit %s pages: %w", spec.ID, err)
	}
	if pg.Schema > SchemaVersion {
		return nil, fmt.Errorf("distrib: unit %s pages schema v%d is newer than supported v%d", spec.ID, pg.Schema, SchemaVersion)
	}
	if pg.Unit != spec.ID {
		return nil, fmt.Errorf("distrib: pages file in %s belongs to unit %s, not %s", dir, pg.Unit, spec.ID)
	}
	if got, want := len(pg.Pages), spec.Pages(); got != want {
		return nil, fmt.Errorf("distrib: unit %s holds %d pages, range [%d,%d) wants %d", spec.ID, got, spec.Start, spec.End, want)
	}
	for i, page := range pg.Pages {
		if page == nil {
			return nil, fmt.Errorf("distrib: unit %s page %d is missing", spec.ID, i)
		}
	}
	p.Pages = pg.Pages
	p.Machine, p.Extension = pg.Machine, pg.Extension
	if spec.Study.TraceVisits {
		ex, err := tracez.ReadExemplars(filepath.Join(dir, tracez.ExemplarsFile))
		if err != nil {
			return nil, fmt.Errorf("distrib: unit %s: %w", spec.ID, err)
		}
		p.Exemplars = ex.Conditions
	}
	return p, nil
}
