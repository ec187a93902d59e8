// The interaction engine. A load-time crawl only sees what scripts do
// before the page settles; Annamalai & De Cristofaro ("Beyond the
// Crawl") show real users' clicks, scrolls and idle periods surface
// fingerprinting that crawls structurally miss. This file drives those
// interactions against the dom event loop: each site gets a
// user-behaviour profile that is a pure function of (seed, domain), so
// the dispatch schedule — and therefore every extraction, metric,
// event and traced cost it produces — is identical at any worker width
// and on every run.
package crawler

import (
	"fmt"
	"strings"

	"canvassing/internal/dom"
	"canvassing/internal/jsvm"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
	"canvassing/internal/stats"
	"canvassing/internal/web"
)

// ActionKind is one kind of simulated user action.
type ActionKind string

// The action vocabulary. Click/scroll/focus dispatch DOM events to the
// page's registered handlers; idle drains the requestIdleCallback
// queue (a crawl that never idles never reaches those callbacks).
const (
	ActionClick  ActionKind = "click"
	ActionScroll ActionKind = "scroll"
	ActionFocus  ActionKind = "focus"
	ActionIdle   ActionKind = "idle"
)

// MaxProfileActions bounds a behaviour profile's length; ParseProfile
// rejects longer inputs.
const MaxProfileActions = 32

// Action is one step of a behaviour profile.
type Action struct {
	Kind ActionKind
}

// BehaviorProfile is the ordered action script the interaction engine
// drives on one page.
type BehaviorProfile struct {
	Actions []Action
}

// String encodes the profile as a comma-separated action list
// ("click,scroll,idle"); ParseProfile inverts it.
func (p BehaviorProfile) String() string {
	parts := make([]string, len(p.Actions))
	for i, a := range p.Actions {
		parts[i] = string(a.Kind)
	}
	return strings.Join(parts, ",")
}

// ParseProfile parses the String encoding: comma-separated action
// kinds, spaces around tokens tolerated. It rejects empty profiles,
// empty tokens, unknown kinds, and profiles longer than
// MaxProfileActions.
func ParseProfile(s string) (BehaviorProfile, error) {
	var p BehaviorProfile
	if strings.TrimSpace(s) == "" {
		return p, fmt.Errorf("interact: empty behaviour profile")
	}
	tokens := strings.Split(s, ",")
	if len(tokens) > MaxProfileActions {
		return p, fmt.Errorf("interact: profile has %d actions, max %d", len(tokens), MaxProfileActions)
	}
	for _, tok := range tokens {
		kind := ActionKind(strings.TrimSpace(tok))
		switch kind {
		case ActionClick, ActionScroll, ActionFocus, ActionIdle:
			p.Actions = append(p.Actions, Action{Kind: kind})
		default:
			return BehaviorProfile{}, fmt.Errorf("interact: unknown action %q", tok)
		}
	}
	return p, nil
}

// ProfileFor derives the site's behaviour profile from (seed, domain)
// alone — the same determinism contract as the page RNG seed and the
// per-page defense hooks. Profiles are 3–6 actions drawn from a
// click-heavy distribution, always include at least one click, and
// always end with an idle period (users pause; that is when
// requestIdleCallback work runs).
func ProfileFor(seed uint64, domain string) BehaviorProfile {
	rng := stats.NewRNG(seed ^ stats.HashString("interact:"+domain))
	n := 3 + rng.Intn(4)
	kinds := []ActionKind{ActionClick, ActionScroll, ActionFocus, ActionIdle}
	weights := []float64{0.40, 0.30, 0.15, 0.15}
	var p BehaviorProfile
	clicked := false
	for i := 0; i < n; i++ {
		k := kinds[stats.WeightedChoice(rng, weights)]
		if k == ActionClick {
			clicked = true
		}
		p.Actions = append(p.Actions, Action{Kind: k})
	}
	if !clicked {
		p.Actions[rng.Intn(len(p.Actions))] = Action{Kind: ActionClick}
	}
	if p.Actions[len(p.Actions)-1].Kind != ActionIdle {
		p.Actions = append(p.Actions, Action{Kind: ActionIdle})
	}
	return p
}

// interactMetrics are the interaction-engine counters. Like
// faultMetrics they are registered only when the feature is on, so
// Interact=false runs leave the registry — and the bundle — untouched.
type interactMetrics struct {
	actions, dispatched *obs.Counter
	timers, idles       *obs.Counter
	handlers            *obs.Counter
}

func newInteractMetrics(reg *obs.Registry) *interactMetrics {
	return &interactMetrics{
		actions:    reg.Counter("crawl.interact.actions"),
		dispatched: reg.Counter("crawl.interact.dispatched"),
		timers:     reg.Counter("crawl.interact.timers"),
		idles:      reg.Counter("crawl.interact.idle"),
		handlers:   reg.Counter("crawl.interact.handlers"),
	}
}

// settlePage runs the page-settle half of the event loop and, when the
// interaction engine is on, the site's behaviour profile.
//
// The timer drain is unconditional: setTimeout callbacks queued during
// load run at settle in every crawl, interaction or not — that is the
// dropped-callback bugfix, and it mirrors a crawler that waits a few
// seconds before snapshotting the page. Event dispatch and idle
// callbacks run only under Config.Interact: a load-time crawl never
// clicks and never goes idle.
//
// setScript repoints extraction attribution at the script that owns
// each firing callback, so deferred fingerprinting attributes to the
// vendor script that registered the handler, not to whichever script
// happened to run last.
func settlePage(doc *dom.Document, in *jsvm.Interp, site *web.Site, cfg *Config, d *pageDelta, evs *event.Sink, imx *interactMetrics, setScript func(string)) (callbacks int) {
	before := func(owner string) { setScript(owner) }
	defer setScript("")
	// Fresh step budget for the callback phase: the last load-time
	// script's spent steps must not starve the drains. A page that ran
	// no script has no interpreter, and its loop no callbacks.
	if in != nil {
		in.ResetSteps()
	}
	settled := doc.Loop.RunTimers(before)
	callbacks = settled
	if !cfg.Interact {
		return callbacks
	}
	prof := cfg.Behavior
	if prof == nil {
		p := ProfileFor(cfg.Seed, site.Domain)
		prof = &p
	}
	if imx != nil {
		d.add(imx.timers, int64(settled))
		d.add(imx.handlers, int64(len(doc.Loop.Handlers())))
	}
	for _, act := range prof.Actions {
		var ran int
		if act.Kind == ActionIdle {
			ran = doc.Loop.RunIdle(before)
			if imx != nil {
				d.add(imx.idles, int64(ran))
			}
		} else {
			ran = doc.Loop.Dispatch(string(act.Kind), before)
			if imx != nil {
				d.add(imx.dispatched, int64(ran))
			}
		}
		// Handlers arm timers of their own; each action's aftermath
		// drains before the next action fires, like a real event loop
		// turn.
		armed := doc.Loop.RunTimers(before)
		if imx != nil {
			d.inc(imx.actions)
			d.add(imx.timers, int64(armed))
		}
		callbacks += ran + armed
		if evs != nil {
			d.record(event.Event{
				Kind:     event.InteractDispatch,
				Crawl:    cfg.Condition,
				Site:     site.Domain,
				Subject:  string(act.Kind),
				Verdict:  fmt.Sprintf("ran=%d", ran),
				Evidence: prof.String(),
				Detail:   fmt.Sprintf("handlers=%d", len(doc.Loop.Handlers())),
			})
		}
	}
	return callbacks
}
