package distrib

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"canvassing/internal/checkpoint"
	"canvassing/internal/crawler"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/web"
)

// Env is everything a work-unit needs from its study that is not in
// the UnitSpec: the generated world and the condition's base crawl
// configuration. The caller (the root package's study glue, or a
// worker process that rebuilt the study from the spec) supplies it;
// distrib itself never constructs webs or extensions, which keeps the
// package below the study in the dependency order.
type Env struct {
	// Web is the generated world shared by every condition.
	Web *web.Web
	// Sites is the condition's FULL site frontier in crawl order; the
	// unit crawls Sites[Start:End].
	Sites []*web.Site
	// Config is the exact crawler configuration the single-process study
	// would use for this condition (profile, extension, consent, faults,
	// seed). RunUnit overrides the distribution-specific fields:
	// telemetry, exemplar reservoir, commit cadence, resume state, and
	// the page-index offset.
	Config crawler.Config
}

// RunUnit executes one work-unit inside dir as a checkpointed crawl
// slice. The unit's checkpoint journal is its output: RunUnit succeeds
// only once the journal's frame marking the crawl done is on disk, and
// under TraceVisits the exemplar sidecar is written next to it. A
// journal already in dir resumes the unit from its committed frontier;
// resumed reports that. stopAfter > 0 arms the checkpoint writer's
// interruption lever: the unit stops (exit for reassignment,
// interrupted == true) after that many checkpoint writes — the
// fault-injection hook the chaos tests pull.
func RunUnit(dir string, spec UnitSpec, env Env, stopAfter int) (interrupted, resumed bool, err error) {
	if err := spec.validate(); err != nil {
		return false, false, err
	}
	if len(env.Sites) != spec.Total {
		return false, false, fmt.Errorf("distrib: unit %s expects a %d-site frontier, env holds %d", spec.ID, spec.Total, len(env.Sites))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, false, fmt.Errorf("distrib: %w", err)
	}

	tel := obs.NewTelemetry()
	cfg := env.Config
	cfg.Telemetry = tel
	cfg.Workers = spec.Study.Workers
	cfg.Seed = spec.Study.Seed
	cfg.Condition = spec.Condition
	cfg.PageIndexOffset = spec.Start
	if cfg.Profile == nil {
		cfg.Profile = machine.Intel()
	}

	var visits *tracez.Reservoir
	cfg.Visits = nil
	if spec.Study.TraceVisits {
		// Same construction as the study's reservoir, so per-unit
		// selection uses the same sampling hash.
		visits = tracez.NewReservoir(spec.Study.Seed, 0, 0)
		cfg.Visits = visits
	}

	ckpt := checkpoint.NewWriter(dir, spec.Study.CheckpointEvery)
	ckpt.StopAfter = stopAfter
	if err := ckpt.SetOpts(spec); err != nil {
		return false, false, fmt.Errorf("distrib: %w", err)
	}

	var rs *crawler.ResumeState
	cp, lerr := checkpoint.Load(dir)
	switch {
	case lerr == nil:
		resumed = true
		if err := checkJournalSpec(cp, spec); err != nil {
			return false, true, err
		}
		tel.Metrics.Restore(cp.Metrics)
		tel.Events.Restore(cp.Events, cp.EventsSeq, cp.EventsDropped)
		if cp.Faults != nil && cfg.Faults != nil {
			// Restore the fault cursor so forced plans survive the resume;
			// seeded plans are pure functions of (seed, site) either way.
			cfg.Faults = netsim.RestoreFaultModel(*cp.Faults)
		}
		if cs := cp.Crawl(spec.Condition); cs != nil {
			rs = &crawler.ResumeState{Pages: cs.Pages}
		}
		ckpt.Adopt(cp)
	case errors.Is(lerr, os.ErrNotExist):
		// Fresh unit.
	default:
		return false, false, lerr
	}
	ckpt.Metrics = tel.Metrics
	ckpt.Events = tel.Events
	ckpt.Faults = cfg.Faults
	cfg.CommitEvery = ckpt.Every()
	cfg.Resume = rs

	ext := ""
	if cfg.Extension != nil {
		ext = cfg.Extension.Name()
	}
	// The writer logs a failed append and lets the crawl go on, so
	// completion is read off its write count: the final commit must
	// have appended a frame.
	hook := ckpt.Hook(cfg.Profile.Name, ext)
	journaled := false
	cfg.OnCommit = func(st crawler.CommitState) bool {
		before := ckpt.Writes()
		stop := hook(st)
		journaled = st.Final && ckpt.Writes() > before
		return stop
	}

	res := crawler.Crawl(env.Web, env.Sites[spec.Start:spec.End], cfg)
	if res.Interrupted {
		return true, resumed, nil
	}
	if dropped := tel.Events.Dropped(); dropped != 0 {
		return false, resumed, fmt.Errorf("distrib: unit %s overflowed its event ring (%d dropped); a lossy journal cannot merge deterministically", spec.ID, dropped)
	}
	if !journaled {
		return false, resumed, fmt.Errorf("distrib: unit %s: the frame marking its crawl done was not journaled", spec.ID)
	}
	if visits != nil {
		if err := tracez.WriteExemplars(filepath.Join(dir, tracez.ExemplarsFile), visits); err != nil {
			return false, resumed, fmt.Errorf("distrib: unit %s: %w", spec.ID, err)
		}
	}
	return false, resumed, nil
}
