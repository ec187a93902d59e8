package canvassing

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"canvassing/internal/attrib"
	"canvassing/internal/checkpoint"
	"canvassing/internal/cluster"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/netsim"
)

// Resume continues a checkpointed study from dir. The study's options
// come from the checkpoint itself; the web regenerates from the seed;
// metrics, evidence events and fault plans are restored to the
// checkpoint cut; completed crawls are replayed verbatim from their
// committed pages; a partially committed crawl continues its worker
// pool from the frontier; and completed analysis phases are re-derived
// silently (no counters, no events — those are already in the
// restored state). The result: bundle artifacts from a resumed run are
// byte-identical to an uninterrupted run's, at any worker width — the
// resume oracle in resume_test.go enforces it. A page-body snapshot
// store that older builds saved beside the journal is removed: nothing
// reads it any more.
func Resume(dir string) (*Study, error) {
	cp, err := checkpoint.Load(dir)
	if err != nil {
		return nil, err
	}
	if err := removeSnapshotStore(dir); err != nil {
		return nil, err
	}
	var opts Options
	if len(cp.Opts) == 0 {
		return nil, fmt.Errorf("canvassing: checkpoint in %s records no options", dir)
	}
	if err := json.Unmarshal(cp.Opts, &opts); err != nil {
		return nil, fmt.Errorf("canvassing: checkpoint options: %w", err)
	}
	opts.CheckpointDir = dir // follow the sidecar even if the dir moved
	s := New(opts)

	// Restore the cut: registry, event log (with its seq high-water
	// mark), fault cursor.
	s.tel.Metrics.Restore(cp.Metrics)
	s.tel.Events.Restore(cp.Events, cp.EventsSeq, cp.EventsDropped)
	if cp.Faults != nil {
		s.Faults = netsim.RestoreFaultModel(*cp.Faults)
	}
	s.ckpt.Adopt(cp)
	s.ckpt.Faults = s.Faults

	// Walk the cohort crawls in Run order: replay finished work,
	// continue the rest. A fresh interruption (an armed StopAfter on the
	// new writer) halts the walk exactly as it halts Run.
	for _, cond := range cohortCrawls(opts) {
		cs := cp.Crawl(cond)
		if cs != nil && cs.Done {
			_, res, _, _ := s.cohort(cond)
			*res = restoreResult(cs)
		} else {
			sp := s.tel.Tracer.Start("crawl."+cond, "sites", fmt.Sprint(len(s.crawlSites)))
			var rs *crawler.ResumeState
			if cs != nil {
				rs = &crawler.ResumeState{Pages: cs.Pages}
			}
			s.crawl(cond, rs)
			sp.End()
			if s.Halted {
				return s, nil
			}
		}
		if cp.PhaseDone(analyzePhase(cond)) {
			s.replay(cond)
		} else {
			s.analyze(cond)
		}
	}
	return s, nil
}

// removeSnapshotStore deletes the snapshot store that builds run with
// the retired -snapshots flag saved under dir/snapshots: an index.json
// and a blobs/ tree. A snapshots directory without an index.json is not
// one and stays.
func removeSnapshotStore(dir string) error {
	store := filepath.Join(dir, "snapshots")
	if _, err := os.Stat(filepath.Join(store, "index.json")); err != nil {
		return nil
	}
	if err := os.RemoveAll(store); err != nil {
		return fmt.Errorf("canvassing: removing the retired snapshot store: %w", err)
	}
	return nil
}

// restoreResult rebuilds a completed crawl's Result from its
// checkpointed state.
func restoreResult(cs *checkpoint.CrawlState) *crawler.Result {
	return &crawler.Result{
		Pages:     cs.Pages,
		Machine:   cs.Machine,
		Extension: cs.Extension,
		Frontier:  cs.Frontier,
	}
}

// replay re-derives one cohort crawl's analysis artifacts without
// touching telemetry: the analysis ran to completion before the
// checkpoint, so its events and counters are already in the restored
// state.
func (s *Study) replay(cond string) {
	_, res, sites, _ := s.cohort(cond)
	*sites = detect.AnalyzeAll((*res).Pages)
	if cond != CondControl {
		return
	}
	s.Clustering = cluster.BuildEvents(s.Sites, nil)
	cfg := s.crawlConfig(CondDemo)
	cfg.Telemetry = nil // silent demo harvest
	s.GroundTruth = attrib.BuildGroundTruthEvents(s.Web, s.Sites, cfg, nil)
	s.Attribution = attrib.AttributeEvents(s.Clustering, s.GroundTruth, s.Sites, nil)
}
