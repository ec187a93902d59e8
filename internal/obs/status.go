package obs

import (
	"sync"
	"time"
)

// RunState is the coarse lifecycle of an instrumented run, driving the
// /readyz answer: a process is ready once its study is constructed and
// stays ready through completion.
type RunState string

const (
	// StateInit is the pre-study state: telemetry exists but nothing is
	// generated or crawling yet. /readyz answers 503.
	StateInit RunState = "init"
	// StateRunning means the study is constructed and its pipeline is
	// executing (or waiting to). /readyz answers 200.
	StateRunning RunState = "running"
	// StateDone means the pipeline finished. Still ready: the ops plane
	// keeps serving final state until the process exits.
	StateDone RunState = "done"
	// StateFailed means the run aborted. /readyz answers 503.
	StateFailed RunState = "failed"
)

// CrawlStatus is one condition's committed-frontier progress, updated
// by the crawler's ordered committer as pages commit.
type CrawlStatus struct {
	Condition string `json:"condition"`
	// Frontier counts committed leading pages; Total is the site count.
	Frontier int  `json:"frontier"`
	Total    int  `json:"total"`
	Done     bool `json:"done"`
}

// AnalysisStatus is one completed analysis pass over a crawl.
type AnalysisStatus struct {
	Crawl    string `json:"crawl"`
	Pages    int    `json:"pages"`
	Canvases int    `json:"canvases"`
}

// CheckpointStatus reports the checkpoint sidecar's live state.
type CheckpointStatus struct {
	Dir    string `json:"dir"`
	Writes int    `json:"writes"`
	// Stopped reports that the writer's StopAfter lever fired.
	Stopped   bool      `json:"stopped,omitempty"`
	LastWrite time.Time `json:"last_write"`
}

// StatusSnapshot is a point-in-time copy of the whole tracker —
// the /statusz payload's deterministic half (the ops handler adds the
// phase ledger, windowed rates, ETA, and active spans on top).
type StatusSnapshot struct {
	State         RunState          `json:"state"`
	StartedAt     time.Time         `json:"started_at"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Crawls        []CrawlStatus     `json:"crawls,omitempty"`
	Analyses      []AnalysisStatus  `json:"analyses,omitempty"`
	Checkpoint    *CheckpointStatus `json:"checkpoint,omitempty"`
}

// Status is the live run-progress tracker behind /healthz, /readyz,
// and /statusz. It is fed by the pipeline (lifecycle state), the
// crawler's ordered-commit point (per-condition frontier), the study's
// analysis passes (per-condition totals) and the checkpoint writer. The
// /statusz phase ledger is not kept here: the ops plane builds it from
// the tracer's spans at request time.
//
// Status lives entirely OUTSIDE the metrics registry: nothing here is
// snapshotted into bundles or checkpoints, so enabling the ops plane
// can never change a deterministic artifact byte — the same discipline
// the exemplar reservoir follows. All methods are safe on a nil
// receiver (they no-op), so bare Telemetry literals keep working.
type Status struct {
	mu        sync.Mutex
	state     RunState
	startedAt time.Time
	crawls    []CrawlStatus
	crawlIdx  map[string]int
	analyses  []AnalysisStatus
	ckpt      *CheckpointStatus
	now       func() time.Time // test seam
}

// NewStatus returns a tracker in StateInit.
func NewStatus() *Status {
	return &Status{
		state:     StateInit,
		startedAt: time.Now(),
		crawlIdx:  map[string]int{},
		now:       time.Now,
	}
}

// MarkRunning transitions to StateRunning (study constructed).
func (s *Status) MarkRunning() { s.setState(StateRunning) }

// MarkDone transitions to StateDone (pipeline finished).
func (s *Status) MarkDone() { s.setState(StateDone) }

// MarkFailed transitions to StateFailed (run aborted).
func (s *Status) MarkFailed() { s.setState(StateFailed) }

func (s *Status) setState(st RunState) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// State returns the current lifecycle state (StateInit for nil).
func (s *Status) State() RunState {
	if s == nil {
		return StateInit
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Ready reports whether /readyz should answer 200: the study exists
// and has not failed.
func (s *Status) Ready() bool {
	st := s.State()
	return st == StateRunning || st == StateDone
}

// CrawlProgress records one condition's committed frontier. The
// crawler's committer calls it at every page commit, so /statusz shows
// exactly the committed prefix — the same cut a checkpoint would take.
func (s *Status) CrawlProgress(condition string, frontier, total int, done bool) {
	if s == nil || condition == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.crawlIdx[condition]
	if !ok {
		i = len(s.crawls)
		s.crawlIdx[condition] = i
		s.crawls = append(s.crawls, CrawlStatus{Condition: condition})
	}
	s.crawls[i].Frontier = frontier
	s.crawls[i].Total = total
	s.crawls[i].Done = done
}

// ActiveCrawl returns the first registered crawl that is still
// incomplete — the one an ETA applies to — and whether one exists.
func (s *Status) ActiveCrawl() (CrawlStatus, bool) {
	if s == nil {
		return CrawlStatus{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.crawls {
		if !c.Done && c.Frontier < c.Total {
			return c, true
		}
	}
	return CrawlStatus{}, false
}

// RecordAnalysis appends one completed analysis pass.
func (s *Status) RecordAnalysis(crawl string, pages, canvases int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.analyses = append(s.analyses, AnalysisStatus{Crawl: crawl, Pages: pages, Canvases: canvases})
	s.mu.Unlock()
}

// CheckpointWrite records a successful sidecar write.
func (s *Status) CheckpointWrite(dir string, writes int, stopped bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ckpt = &CheckpointStatus{Dir: dir, Writes: writes, Stopped: stopped, LastWrite: s.now()}
	s.mu.Unlock()
}

// Snapshot copies the tracker.
func (s *Status) Snapshot() StatusSnapshot {
	if s == nil {
		return StatusSnapshot{State: StateInit}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StatusSnapshot{
		State:         s.state,
		StartedAt:     s.startedAt,
		UptimeSeconds: s.now().Sub(s.startedAt).Seconds(),
		Crawls:        append([]CrawlStatus(nil), s.crawls...),
		Analyses:      append([]AnalysisStatus(nil), s.analyses...),
	}
	if s.ckpt != nil {
		cp := *s.ckpt
		out.Checkpoint = &cp
	}
	return out
}
