package distrib

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"canvassing/internal/checkpoint"
	"canvassing/internal/crawler"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/web"
)

// writeJournal journals the first frontier pages of p into dir as
// RunUnit's checkpoint writer does: opts as the journal's options, then
// one commit, marked final when it covers the whole range. capacity
// bounds the event sink the events pass through (<=0: the default).
func writeJournal(t *testing.T, dir string, opts UnitSpec, p *Partial, frontier, capacity int) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Restore(p.Metrics)
	sink := event.NewSink(capacity)
	for _, e := range p.Events[:frontier] {
		sink.Record(e)
	}
	w := checkpoint.NewWriter(dir, 0)
	w.Metrics, w.Events = reg, sink
	if err := w.SetOpts(opts); err != nil {
		t.Fatal(err)
	}
	w.Hook(p.Machine, p.Extension)(crawler.CommitState{
		Condition: p.Spec.Condition,
		Frontier:  frontier,
		Total:     p.Spec.Pages(),
		Pages:     p.Pages[:frontier],
		Final:     frontier == p.Spec.Pages(),
	})
	if w.Writes() != 1 {
		t.Fatal("journal append failed")
	}
}

// A unit's journal is its output. LoadPartial accepts a unit directory
// only when the journal there was written for its unit.json spec, marks
// the crawl done over the unit's whole range, and dropped no events;
// every refusal names the unit.
func TestLoadPartialJournal(t *testing.T) {
	p := mkPartial("control", 0, 0, 5, 5, 3)
	other := p.Spec
	other.Study.Seed++
	cases := []struct {
		name string
		// journal reports whether the directory gets a journal; opts,
		// frontier and capacity are writeJournal's arguments.
		journal  bool
		opts     UnitSpec
		frontier int
		capacity int
		// refusal is a fragment of the expected error ("" accepts).
		refusal string
	}{
		{name: "finished", journal: true, opts: p.Spec, frontier: 5},
		{name: "unfinished", journal: true, opts: p.Spec, frontier: 3, refusal: "does not mark the control crawl done"},
		{name: "another spec", journal: true, opts: other, frontier: 5, refusal: "written for another unit spec"},
		{name: "missing", refusal: "no such file"},
		{name: "dropped events", journal: true, opts: p.Spec, frontier: 5, capacity: 2, refusal: "dropped 3 events"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "unit")
			if err := WriteUnitSpec(dir, p.Spec); err != nil {
				t.Fatal(err)
			}
			if tc.journal {
				writeJournal(t, dir, tc.opts, p, tc.frontier, tc.capacity)
			}
			got, err := LoadPartial(dir)
			if tc.refusal != "" {
				if err == nil {
					t.Fatal("LoadPartial accepted the unit")
				}
				if msg := err.Error(); !strings.Contains(msg, p.Spec.ID) || !strings.Contains(msg, tc.refusal) {
					t.Fatalf("error %q does not name unit %s and %q", msg, p.Spec.ID, tc.refusal)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Spec != p.Spec || got.Machine != p.Machine || len(got.Pages) != 5 || len(got.Events) != 5 {
				t.Fatalf("loaded %+v, want the journaled unit", got)
			}
			if got.Metrics.Counters["crawl.scripts.executed"] != 3 {
				t.Fatalf("loaded counters %v, want the journaled snapshot", got.Metrics.Counters)
			}
			m, err := MergeCrawl([]*Partial{got})
			if err != nil {
				t.Fatalf("loaded unit does not merge: %v", err)
			}
			for i, page := range m.Pages {
				if page.Domain != p.Pages[i].Domain {
					t.Fatalf("merged page %d is %s, want %s", i, page.Domain, p.Pages[i].Domain)
				}
			}
		})
	}
}

// RunUnit succeeds only once its journal marks the crawl done. A unit
// whose journal cannot be written has produced nothing, so it must
// fail, for the coordinator to release and retry it; the same unit in
// a writable directory succeeds and leaves exactly unit.json and a
// journal LoadPartial accepts.
func TestRunUnitNeedsItsJournal(t *testing.T) {
	w := web.Generate(web.Config{Seed: 11, Scale: 0.01, TrancoMax: 1_000_000})
	sites := w.CohortSites(web.Popular)
	spec := UnitSpec{
		Schema: SchemaVersion, ID: "control-00", Condition: "control",
		Start: 0, End: 8, Total: len(sites),
		Study: StudySpec{Seed: 11, Scale: 0.01, Workers: 2},
	}
	env := Env{Web: w, Sites: sites, Config: crawler.DefaultConfig()}

	// checkpoint.json points into a directory that does not exist: Load
	// finds no journal, and every append fails.
	dead := t.TempDir()
	if err := os.Symlink(filepath.Join(dead, "gone", checkpoint.FileName), filepath.Join(dead, checkpoint.FileName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunUnit(dead, spec, env, 0); err == nil {
		t.Fatal("RunUnit reported a unit done with no journal written")
	}

	dir := t.TempDir()
	if err := WriteUnitSpec(dir, spec); err != nil {
		t.Fatal(err)
	}
	if interrupted, resumed, err := RunUnit(dir, spec, env, 0); err != nil || interrupted || resumed {
		t.Fatalf("RunUnit = interrupted %v, resumed %v, err %v; want a fresh unit done", interrupted, resumed, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if got := strings.Join(names, " "); got != checkpoint.FileName+" "+UnitSpecFile {
		t.Fatalf("unit directory holds %s, want %s and %s", got, checkpoint.FileName, UnitSpecFile)
	}
	p, err := LoadPartial(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pages) != spec.Pages() {
		t.Fatalf("journal holds %d pages, want %d", len(p.Pages), spec.Pages())
	}
}
