package crawler

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"canvassing/internal/blocklist"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/web"
)

// blockAll is an extension that blocks every script.
type blockAll struct{}

func (blockAll) Name() string                           { return "block-all" }
func (blockAll) BlockScript(req blocklist.Request) bool { return true }

// TestScriptlessPages pins what a visit records when none of its page's
// scripts runs, with and without the interaction engine: a page with no
// script tags, one whose scripts an extension blocks, one whose scripts
// wait for a consent banner the crawl never accepts, and one truncated
// to zero served scripts. Such a visit builds no interpreter, so its
// event loop has none to run callbacks on; every script below would
// register a click handler and a timer if it ran. A last page whose
// script does run shows that the expectations tell the two apart.
func TestScriptlessPages(t *testing.T) {
	w := testWeb(t)
	const body = "document.addEventListener('click', function () {}); window.setTimeout(function () {}, 0);"
	script := func(host string, consent bool) web.PageScript {
		u := netsimURL("https://" + host + "/tag.js")
		w.Store.Host(u, "text/javascript", body)
		return web.PageScript{URL: u, NeedsConsent: consent}
	}
	site := func(domain string, scripts ...web.PageScript) *web.Site {
		return &web.Site{Domain: domain, Rank: 1, Cohort: web.Popular, CrawlOK: true, Scripts: scripts}
	}
	prof, err := ParseProfile("click,scroll,focus,idle")
	if err != nil {
		t.Fatal(err)
	}
	const idleCounters = "crawl.interact.actions=4 crawl.interact.dispatched=0 crawl.interact.handlers=0 crawl.interact.idle=0 crawl.interact.timers=0"
	cases := []struct {
		name      string
		site      *web.Site
		configure func(*Config)
		// page is the PageResult with and without Interact, events
		// the crawl's events without it; eventsOn and countersOn are
		// the events and crawl.interact.* counters with it.
		page, events, eventsOn, countersOn string
	}{{
		name: "no scripts",
		site: site("noscript.example"),
		page: `{"Domain":"noscript.example","Rank":1,"Cohort":0,"OK":true,"Extractions":null,"ScriptMethods":{},"BlockedScripts":null,"ScriptErrors":{}}`,
		eventsOn: `interact.dispatch noscript.example click ran=0 click,scroll,focus,idle handlers=0
interact.dispatch noscript.example scroll ran=0 click,scroll,focus,idle handlers=0
interact.dispatch noscript.example focus ran=0 click,scroll,focus,idle handlers=0
interact.dispatch noscript.example idle ran=0 click,scroll,focus,idle handlers=0`,
		countersOn: idleCounters,
	}, {
		name:      "all blocked",
		site:      site("blocked.example", script("cdn.tracker.example", false), script("blocked.example", false)),
		configure: func(cfg *Config) { cfg.Extension = blockAll{} },
		page:      `{"Domain":"blocked.example","Rank":1,"Cohort":0,"OK":true,"Extractions":null,"ScriptMethods":{},"BlockedScripts":["https://cdn.tracker.example/tag.js","https://blocked.example/tag.js"],"ScriptErrors":{}}`,
		events: `blocklist.match blocked.example https://cdn.tracker.example/tag.js blocked
blocklist.match blocked.example https://blocked.example/tag.js blocked`,
		eventsOn: `blocklist.match blocked.example https://cdn.tracker.example/tag.js blocked
blocklist.match blocked.example https://blocked.example/tag.js blocked
interact.dispatch blocked.example click ran=0 click,scroll,focus,idle handlers=0
interact.dispatch blocked.example scroll ran=0 click,scroll,focus,idle handlers=0
interact.dispatch blocked.example focus ran=0 click,scroll,focus,idle handlers=0
interact.dispatch blocked.example idle ran=0 click,scroll,focus,idle handlers=0`,
		countersOn: idleCounters,
	}, {
		name:      "all consent-gated",
		site:      site("consent.example", script("cmp.example", true), script("consent.example", true)),
		configure: func(cfg *Config) { cfg.AutoConsent = false },
		page:      `{"Domain":"consent.example","Rank":1,"Cohort":0,"OK":true,"Extractions":null,"ScriptMethods":{},"BlockedScripts":null,"ScriptErrors":{}}`,
		eventsOn: `interact.dispatch consent.example click ran=0 click,scroll,focus,idle handlers=0
interact.dispatch consent.example scroll ran=0 click,scroll,focus,idle handlers=0
interact.dispatch consent.example focus ran=0 click,scroll,focus,idle handlers=0
interact.dispatch consent.example idle ran=0 click,scroll,focus,idle handlers=0`,
		countersOn: idleCounters,
	}, {
		name: "truncated to zero scripts",
		site: site("truncated.example", script("truncated.example", false), script("cdn.truncated.example", false)),
		configure: func(cfg *Config) {
			cfg.Faults = netsim.NewFaultModel(cfg.Seed, 0)
			cfg.Faults.Force("truncated.example", netsim.FaultPlan{Kind: netsim.FaultTruncate, Truncate: 0})
		},
		page:   `{"Domain":"truncated.example","Rank":1,"Cohort":0,"OK":true,"Degraded":true,"Extractions":null,"ScriptMethods":{},"BlockedScripts":null,"ScriptErrors":{"https://cdn.truncated.example/tag.js":"fetch: truncated response","https://truncated.example/tag.js":"fetch: truncated response"}}`,
		events: `visit.outcome truncated.example  degraded truncate attempts=1`,
		eventsOn: `interact.dispatch truncated.example click ran=0 click,scroll,focus,idle handlers=0
interact.dispatch truncated.example scroll ran=0 click,scroll,focus,idle handlers=0
interact.dispatch truncated.example focus ran=0 click,scroll,focus,idle handlers=0
interact.dispatch truncated.example idle ran=0 click,scroll,focus,idle handlers=0
visit.outcome truncated.example  degraded truncate attempts=1`,
		countersOn: idleCounters,
	}, {
		name: "one script runs",
		site: site("runs.example", script("runs.example", false)),
		page: `{"Domain":"runs.example","Rank":1,"Cohort":0,"OK":true,"Extractions":null,"ScriptMethods":{},"BlockedScripts":null,"ScriptErrors":{}}`,
		eventsOn: `interact.dispatch runs.example click ran=1 click,scroll,focus,idle handlers=1
interact.dispatch runs.example scroll ran=0 click,scroll,focus,idle handlers=1
interact.dispatch runs.example focus ran=0 click,scroll,focus,idle handlers=1
interact.dispatch runs.example idle ran=0 click,scroll,focus,idle handlers=1`,
		countersOn: "crawl.interact.actions=4 crawl.interact.dispatched=1 crawl.interact.handlers=1 crawl.interact.idle=0 crawl.interact.timers=1",
	}}
	for _, c := range cases {
		for _, interact := range []bool{false, true} {
			tel := obs.NewTelemetry()
			cfg := DefaultConfig()
			cfg.Telemetry = tel
			cfg.Condition = "control"
			cfg.Interact = interact
			cfg.Behavior = &prof
			if c.configure != nil {
				c.configure(&cfg)
			}
			res := Crawl(w, []*web.Site{c.site}, cfg)
			page, err := json.Marshal(res.Pages[0])
			if err != nil {
				t.Fatal(err)
			}
			var events []string
			for _, e := range tel.Events.Events() {
				line := fmt.Sprintf("%s %s %s %s %s %s", e.Kind, e.Site, e.Subject, e.Verdict, e.Evidence, e.Detail)
				events = append(events, strings.TrimRight(line, " "))
			}
			var counters []string
			for name, v := range tel.Metrics.Snapshot().Counters {
				if strings.HasPrefix(name, "crawl.interact.") {
					counters = append(counters, fmt.Sprintf("%s=%d", name, v))
				}
			}
			sort.Strings(counters)
			wantEvents, wantCounters := c.events, ""
			if interact {
				wantEvents, wantCounters = c.eventsOn, c.countersOn
			}
			if got := string(page); got != c.page {
				t.Errorf("%s, Interact=%v: page\n %s\nwant\n %s", c.name, interact, got, c.page)
			}
			if got := strings.Join(events, "\n"); got != wantEvents {
				t.Errorf("%s, Interact=%v: events\n%s\nwant\n%s", c.name, interact, got, wantEvents)
			}
			if got := strings.Join(counters, " "); got != wantCounters {
				t.Errorf("%s, Interact=%v: counters %s, want %s", c.name, interact, got, wantCounters)
			}
		}
	}
}
