package distrib

import (
	"fmt"
	"testing"

	"canvassing/internal/crawler"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
)

// mkPartial builds one synthetic completed unit that executed
// `scripts` scripts; a unit that executed none has no such counter.
func mkPartial(cond string, k, start, end, total int, scripts int64) *Partial {
	spec := UnitSpec{
		Schema: SchemaVersion, ID: fmt.Sprintf("%s-%02d", cond, k),
		Condition: cond, Start: start, End: end, Total: total,
		Study: testStudy(),
	}
	reg := obs.NewRegistry()
	if scripts > 0 {
		reg.Counter("crawl.scripts.executed").Add(scripts)
	}
	reg.Counter("crawl.pages").Add(int64(end - start))
	h := reg.Histogram("crawl.scripts.per_page", []float64{1, 4, 16})
	for i := start; i < end; i++ {
		h.Observe(float64(i % 5))
	}
	pages := make([]*crawler.PageResult, end-start)
	events := make([]event.Event, 0, end-start)
	for i := range pages {
		pages[i] = &crawler.PageResult{Domain: fmt.Sprintf("site-%04d.example", start+i)}
		events = append(events, event.Event{
			Kind: event.DetectClassify, Crawl: cond,
			Site: pages[i].Domain, Verdict: "fingerprintable",
		})
	}
	return &Partial{
		Spec: spec, Metrics: reg.Snapshot(), Events: events, Pages: pages,
		Machine: "intel-chrome", Extension: "",
	}
}

func TestMergeCrawlRecombines(t *testing.T) {
	// Three units of a 10-page frontier; the last executed no scripts,
	// so its snapshot lacks that counter.
	parts := []*Partial{
		mkPartial("control", 0, 0, 4, 10, 5),
		mkPartial("control", 1, 4, 7, 10, 2),
		mkPartial("control", 2, 7, 10, 10, 0),
	}
	// Merge must not depend on input order: feed it scrambled.
	m, err := MergeCrawl([]*Partial{parts[2], parts[0], parts[1]})
	if err != nil {
		t.Fatal(err)
	}
	if m.Condition != "control" || m.Machine != "intel-chrome" {
		t.Fatalf("merged identity wrong: %+v", m)
	}
	if len(m.Pages) != 10 || len(m.Events) != 10 {
		t.Fatalf("merged %d pages, %d events; want 10 each", len(m.Pages), len(m.Events))
	}
	for i, p := range m.Pages {
		if want := fmt.Sprintf("site-%04d.example", i); p.Domain != want {
			t.Fatalf("page %d is %s, want %s — range order lost", i, p.Domain, want)
		}
	}
	if got := m.Metrics.Counters["crawl.scripts.executed"]; got != 7 {
		t.Fatalf("merged crawl.scripts.executed = %d, want 5+2+0 = 7", got)
	}
	if got := m.Metrics.Counters["crawl.pages"]; got != 10 {
		t.Fatalf("merged crawl.pages = %d, want 10", got)
	}
	hs, ok := m.Metrics.Histograms["crawl.scripts.per_page"]
	if !ok {
		t.Fatal("merged snapshot lost the histogram")
	}
	var histCount int64
	for _, b := range hs.Buckets {
		histCount += b.Count
	}
	if histCount != 10 {
		t.Fatalf("merged histogram holds %d observations, want 10", histCount)
	}
}

func TestMergeCrawlRefusesBadTilings(t *testing.T) {
	base := func() []*Partial {
		return []*Partial{
			mkPartial("control", 0, 0, 5, 10, 0),
			mkPartial("control", 1, 5, 10, 10, 0),
		}
	}
	cases := map[string]func() []*Partial{
		"zero partials": func() []*Partial { return nil },
		"gap": func() []*Partial {
			p := base()
			return p[:1]
		},
		"interior gap": func() []*Partial {
			p := base()
			p[1].Spec.Start, p[1].Spec.End = 6, 10
			p[1].Pages = p[1].Pages[:4]
			return p
		},
		"overlap": func() []*Partial {
			p := base()
			p[1].Spec.Start = 4
			p[1].Pages = append([]*crawler.PageResult{{}}, p[1].Pages...)
			return p
		},
		"duplicate unit": func() []*Partial {
			p := base()
			return append(p, p[0])
		},
		"mixed conditions": func() []*Partial {
			p := base()
			p[1].Spec.Condition = "abp"
			return p
		},
		"mixed totals": func() []*Partial {
			p := base()
			p[1].Spec.Total = 12
			return p
		},
		"mixed study specs": func() []*Partial {
			p := base()
			p[1].Spec.Study.Seed++
			return p
		},
		"mixed machines": func() []*Partial {
			p := base()
			p[1].Machine = "apple-m1"
			return p
		},
		"page count mismatch": func() []*Partial {
			p := base()
			p[1].Pages = p[1].Pages[:3]
			return p
		},
		"histogram layout mismatch": func() []*Partial {
			p := base()
			reg := obs.NewRegistry()
			reg.Histogram("crawl.scripts.per_page", []float64{2, 8}).Observe(1)
			p[1].Metrics = reg.Snapshot()
			return p
		},
	}
	for name, build := range cases {
		if _, err := MergeCrawl(build()); err == nil {
			t.Errorf("%s: merge accepted a bad tiling", name)
		}
	}
	if _, err := MergeCrawl(base()); err != nil {
		t.Fatalf("clean tiling refused: %v", err)
	}
}
