package canvassing

import (
	"fmt"

	"canvassing/internal/crawler"
	"canvassing/internal/distrib"
)

// DistribOptions configures a distributed study run: the crawl phase is
// partitioned into work-units that run as independent checkpointed
// crawl slices (in worker goroutines by default, or worker processes
// via a custom Spawn), and the merged study is byte-identical to the
// single-process run — the partition-invariance contract enforced by
// TestDistribPartitionOracle.
type DistribOptions struct {
	// Dir is the run root: unit specs, partial bundles, and the unit
	// ledger live under it.
	Dir string
	// Partitions is the number of work-units per condition (<=0
	// selects 1, which degenerates to a serial crawl per condition).
	Partitions int
	// Slots is the number of concurrent worker slots (<=0 selects 4).
	Slots int
	// MaxAttempts bounds attempts per unit (<=0 selects 3).
	MaxAttempts int
	// Arm maps unit ID → checkpoint writes before a forced mid-unit
	// stop on that unit's first attempt — the chaos-testing lever.
	Arm map[string]int
	// Spawn overrides the unit runner. Nil selects the in-process
	// runner; set a distrib.ProcessSpawner to run each attempt as a
	// spawned `crawl -distrib-unit` worker process.
	Spawn distrib.Spawner
}

// studySpec projects the study's normalized options into the wire form
// every unit spec carries.
func (s *Study) studySpec() distrib.StudySpec {
	return distrib.StudySpec{
		Seed:            s.Options.Seed,
		Scale:           s.Options.Scale,
		Workers:         s.Options.Workers,
		FaultRate:       s.Options.FaultRate,
		Retries:         s.Options.Retries,
		VisitTimeout:    s.Options.VisitTimeout,
		TraceVisits:     s.Options.TraceVisits,
		CheckpointEvery: s.Options.CheckpointEvery,
		Interact:        s.Options.Interact,
	}
}

// unitEnv builds one work-unit's environment: the study's generated
// world plus the exact crawler configuration the serial pipeline would
// use for the unit's condition. The demo ground-truth harvest is not a
// distributable condition — it runs coordinator-side inside Analyze,
// exactly as in the serial pipeline.
func (s *Study) unitEnv(spec distrib.UnitSpec) (distrib.Env, error) {
	cfg, _, _, ok := s.cohort(spec.Condition)
	if !ok {
		return distrib.Env{}, fmt.Errorf("canvassing: condition %q is not distributable", spec.Condition)
	}
	return distrib.Env{Web: s.Web, Sites: s.crawlSites, Config: cfg}, nil
}

// inprocSpawner runs unit attempts in-process against a shared study
// (web generation happens once). It is the default transport for tests
// and library callers; cmd/coordinator swaps in a ProcessSpawner.
type inprocSpawner struct{ s *Study }

func (sp inprocSpawner) Run(dir string, spec distrib.UnitSpec, stopAfter int) (bool, bool, error) {
	env, err := sp.s.unitEnv(spec)
	if err != nil {
		return false, false, err
	}
	return distrib.RunUnit(dir, spec, env, stopAfter)
}

// RunWorkUnit is the worker-process entry point (`crawl -distrib-unit
// <dir>`): it reads the unit spec written by the coordinator, rebuilds
// the study world from it, and runs the unit. interrupted follows the
// distrib.Spawner contract — the worker should exit
// distrib.ExitInterrupted when it is true.
func RunWorkUnit(dir string, stopAfter int) (interrupted bool, err error) {
	spec, err := distrib.ReadUnitSpec(dir)
	if err != nil {
		return false, err
	}
	st := spec.Study
	// Web, lists, and fault model are pure functions of (seed, scale,
	// fault rate), so the worker's world matches the coordinator's.
	s := New(Options{
		Seed: st.Seed, Scale: st.Scale, Workers: st.Workers,
		FaultRate: st.FaultRate, Retries: st.Retries, VisitTimeout: st.VisitTimeout,
		Interact: st.Interact,
	})
	env, err := s.unitEnv(spec)
	if err != nil {
		return false, err
	}
	interrupted, _, err = distrib.RunUnit(dir, spec, env, stopAfter)
	return interrupted, err
}

// adoptUnits loads and merges one condition's completed partials and
// replays them into the study's telemetry — metrics summed, events
// re-recorded in page order (which re-stamps the global sequence),
// exemplar views absorbed — and returns the recombined crawl result.
// The replay order equals the serial pipeline's, so the downstream
// bundle bytes are identical.
func (s *Study) adoptUnits(runDir string, units []distrib.UnitSpec, cond string) (*crawler.Result, error) {
	var parts []*distrib.Partial
	for _, u := range units {
		if u.Condition != cond {
			continue
		}
		p, err := distrib.LoadPartial(distrib.UnitDir(runDir, u.ID))
		if err != nil {
			return nil, err
		}
		parts = append(parts, p)
	}
	m, err := distrib.MergeCrawl(parts)
	if err != nil {
		return nil, err
	}
	if err := s.tel.Metrics.Merge(m.Metrics); err != nil {
		return nil, err
	}
	for i := range m.Events {
		s.tel.Events.Record(m.Events[i])
	}
	s.visits.Absorb(m.Exemplars)
	return &crawler.Result{
		Pages:     m.Pages,
		Machine:   m.Machine,
		Extension: m.Extension,
		Frontier:  len(m.Pages),
	}, nil
}

// RunDistributed executes the full study pipeline with the crawl phase
// partitioned across d.Partitions work-units per condition. The
// coordinator dispatches units to worker slots (reassigning and
// resuming any that die mid-unit), then each condition's partials are
// merged and the serial analysis pipeline runs coordinator-side in its
// usual order. The resulting study's bundle artifacts are
// byte-identical to Run(opts)'s.
//
// The returned ledger records every unit's assignments, retries, and
// wall time; it is returned even on error for post-mortems.
func RunDistributed(opts Options, d DistribOptions) (*Study, *distrib.Ledger, error) {
	if d.Dir == "" {
		return nil, nil, fmt.Errorf("canvassing: distributed run needs a directory")
	}
	// Study-level checkpointing and unit-level checkpointing are
	// different layers; a distributed run always uses the latter.
	opts.CheckpointDir = ""
	s := New(opts)
	units := distrib.Partition(cohortCrawls(opts), len(s.crawlSites), d.Partitions, s.studySpec())
	spawn := d.Spawn
	if spawn == nil {
		spawn = inprocSpawner{s}
	}
	coord := &distrib.Coordinator{
		Dir: d.Dir, Units: units, Spawn: spawn,
		Slots: d.Slots, MaxAttempts: d.MaxAttempts, Arm: d.Arm,
	}
	ledger, err := coord.Run()
	if err != nil {
		return s, ledger, err
	}

	for _, cond := range cohortCrawls(opts) {
		_, res, _, _ := s.cohort(cond)
		if *res, err = s.adoptUnits(d.Dir, units, cond); err != nil {
			return s, ledger, err
		}
		s.analyze(cond)
	}
	return s, ledger, nil
}
