// Package checkpoint persists crawl/study progress so a killed run
// resumes instead of restarting. A checkpoint is a versioned,
// append-only JSON journal (checkpoint.json) next to the run bundle;
// folded together, its frames capture, at a committed crawl frontier:
//
//   - the completed page prefix per crawl condition (the PageResults
//     themselves — replayable verbatim);
//   - the full metrics-registry snapshot and evidence-event log with
//     their high-water marks (event seq, dropped count);
//   - the fault model's cursor (seed + rate + forced plans — PlanFor
//     is a pure function of those, so nothing else is needed);
//   - the list of pipeline phases already finished.
//
// Each cut appends one frame: one line holding the small head state
// (sequence, options, phases, metrics snapshot, fault cursor, event
// high-water marks, the advanced crawls' frontier) plus only the pages
// and events committed since the previous frame. A cut therefore costs
// O(pages since the last cut), not O(study). A frame counts once its
// terminating newline is written; Load folds the longest prefix of
// complete frames and ignores a torn trailing line, and the writer
// truncates the file to its last known-good length before every
// append, so a crash mid-append loses at most that cut.
// Frames are not fsynced: the journal survives a killed process, not a
// power loss. Fields a frame carries that this build does not know are
// ignored, so journals from builds that wrote the retired
// "has_snapshots" flag still resume.
//
// The crawler's ordered-commit pipeline guarantees the cut is exact:
// when Config.OnCommit runs, the registry and sink contain writes for
// pages [0, Frontier) — all of them, and nothing beyond — so the
// checkpoint equals the state a fresh run would have after crawling
// exactly that prefix. That equality is what makes interrupted-then-
// resumed bundles byte-identical to uninterrupted ones (the resume
// oracle in resume_test.go enforces it at several widths and cut
// points).
package checkpoint

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"canvassing/internal/crawler"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
)

// SchemaVersion is the journal frame format version. Bump on any shape
// change; Load rejects every frame of another schema rather than
// misreading it. There is no reader for older schemas: a checkpoint
// only lives between a crash and its resume.
const SchemaVersion = 3

// FileName is the journal file a Writer maintains under its directory.
const FileName = "checkpoint.json"

// CrawlState is one crawl condition's committed progress.
type CrawlState struct {
	// Condition labels the crawl ("control", "abp", ...).
	Condition string `json:"condition"`
	// Total is the site count; Frontier the committed prefix length.
	Total    int `json:"total"`
	Frontier int `json:"frontier"`
	// Done marks a crawl that ran to completion.
	Done bool `json:"done,omitempty"`
	// Machine and Extension mirror crawler.Result for reconstruction.
	Machine   string `json:"machine,omitempty"`
	Extension string `json:"extension,omitempty"`
	// Pages is the committed page prefix, verbatim.
	Pages []*crawler.PageResult `json:"pages"`
}

// Checkpoint is the state the journal describes at its last frame.
type Checkpoint struct {
	Schema int `json:"schema"`
	// Sequence counts checkpoint writes, monotonically across resumes.
	Sequence int `json:"seq"`
	// Opts is the run configuration as the caller serialized it; Resume
	// uses it to verify it is continuing the same study.
	Opts json.RawMessage `json:"opts,omitempty"`
	// Phases lists pipeline phases that finished, in completion order.
	Phases []string `json:"phases,omitempty"`
	// Crawls holds per-condition progress, in start order.
	Crawls []*CrawlState `json:"crawls,omitempty"`
	// Metrics is the full registry snapshot at the cut.
	Metrics obs.Snapshot `json:"metrics"`
	// Events is the retained evidence log, exactly the seqs
	// (EventsDropped, EventsSeq].
	Events        []event.Event `json:"events,omitempty"`
	EventsSeq     uint64        `json:"events_seq"`
	EventsDropped uint64        `json:"events_dropped,omitempty"`
	// Faults is the fault model's cursor (nil for fault-free runs).
	Faults *netsim.FaultState `json:"faults,omitempty"`

	// size is the length of the complete frames Load read, where
	// Adopt continues the journal.
	size int64
}

// Crawl returns the state recorded for condition (nil if none).
func (cp *Checkpoint) Crawl(condition string) *CrawlState {
	for _, c := range cp.Crawls {
		if c.Condition == condition {
			return c
		}
	}
	return nil
}

// PhaseDone reports whether name is in the finished-phase list.
func (cp *Checkpoint) PhaseDone(name string) bool {
	for _, p := range cp.Phases {
		if p == name {
			return true
		}
	}
	return false
}

// frame is one journal line. Its Checkpoint carries the head state at
// the cut, with Events holding only the events recorded since the
// previous frame; Crawls shadows Checkpoint.Crawls with the crawls
// that advanced since then.
type frame struct {
	Checkpoint
	Crawls []crawlFrame `json:"crawls,omitempty"`
}

// crawlFrame is one condition's progress in a frame: its head state,
// with Pages holding only the pages [From, Frontier).
type crawlFrame struct {
	From int `json:"from"`
	CrawlState
}

// Writer maintains the checkpoint journal for one run. It is driven
// from two places: the crawler's committer goroutine (via Hook) and
// the study's phase boundaries (via FinishPhase). A mutex serializes
// them; in practice they never overlap, since phases and crawls are
// sequential.
type Writer struct {
	// Metrics, Events, Faults are the live state sources the writer
	// captures at each cut. Set them before the first write.
	Metrics *obs.Registry
	Events  *event.Sink
	Faults  *netsim.FaultModel
	// StopAfter, when positive, makes the Hook request a crawl stop
	// after that many checkpoint writes — the interruption lever the
	// resume oracle and `make resume-smoke` pull. 0 never stops.
	StopAfter int
	// Status, when set, is told about every successful journal append
	// so /statusz can report live checkpoint state. It is an observer
	// only: nothing from it enters the journal.
	Status *obs.Status

	dir   string
	every int

	mu sync.Mutex
	// head is the next frame's head state: the last frame's, plus
	// options and phases recorded since. Its EventsSeq is the event
	// cursor (every event up to it is journaled or dropped).
	head Checkpoint
	// crawls are the per-condition cursors, in start order.
	crawls []*crawlCursor
	// size is the journal's known-good length; every append first
	// truncates the file to it.
	size    int64
	writes  int
	stopped bool
}

// crawlCursor is the next frame's entry for one condition: From is the
// journaled prefix length and Pages the committed pages beyond it.
type crawlCursor struct {
	crawlFrame
	// dirty marks a commit not yet journaled.
	dirty bool
}

// NewWriter returns a writer that checkpoints into dir every `every`
// committed pages (<=0 selects 256). Pass Every() as the crawl
// config's CommitEvery. Its first append replaces any journal already
// in dir.
func NewWriter(dir string, every int) *Writer {
	if every <= 0 {
		every = 256
	}
	return &Writer{dir: dir, every: every}
}

// Every returns the checkpoint cadence in committed pages.
func (w *Writer) Every() int { return w.every }

// Dir returns the checkpoint directory.
func (w *Writer) Dir() string { return w.dir }

// Writes returns how many checkpoints this writer has written.
func (w *Writer) Writes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writes
}

// Stopped reports whether the Hook requested a stop (StopAfter hit).
func (w *Writer) Stopped() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stopped
}

// SetOpts records the run configuration in the journal.
func (w *Writer) SetOpts(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: opts: %w", err)
	}
	w.mu.Lock()
	w.head.Opts = data
	w.mu.Unlock()
	return nil
}

// Adopt continues a checkpoint loaded from this writer's directory:
// sequence numbering, options and finished phases carry over, and the
// next append first truncates the journal to the frames Load accepted
// (dropping a crash's torn tail), then adds only what follows. The
// caller restores the live sources (registry, event sink, fault model)
// to cp before that append, as Resume does. cp itself is never
// written to.
func (w *Writer) Adopt(cp *Checkpoint) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.head = *cp
	w.head.Phases = cp.Phases[:len(cp.Phases):len(cp.Phases)]
	w.head.Crawls, w.head.Events = nil, nil
	w.size = cp.size
	w.crawls = nil
	for _, cs := range cp.Crawls {
		c := &crawlCursor{crawlFrame: crawlFrame{From: cs.Frontier, CrawlState: *cs}}
		c.Pages = nil // all journaled
		w.crawls = append(w.crawls, c)
	}
}

// Hook returns the crawler OnCommit callback for one crawl. Each
// invocation records the condition's committed progress and appends a
// frame to the journal.
func (w *Writer) Hook(machine, extension string) func(crawler.CommitState) bool {
	return func(st crawler.CommitState) bool {
		return w.commit(st, machine, extension)
	}
}

func (w *Writer) commit(st crawler.CommitState, machine, extension string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.crawl(st.Condition)
	// st.Pages aliases the crawl's result slice: copy the new tail.
	c.Pages = append(c.Pages, st.Pages[c.From+len(c.Pages):]...)
	c.Total = st.Total
	c.Frontier = st.Frontier
	c.Done = st.Final
	c.Machine = machine
	c.Extension = extension
	c.dirty = true
	if err := w.writeLocked(); err != nil {
		// A failed checkpoint write must not corrupt the crawl; the run
		// continues and the next cut journals what this one missed.
		// Surface it on stderr — there is no error channel through the
		// crawler hook.
		fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		return false
	}
	if w.StopAfter > 0 && w.writes >= w.StopAfter && !st.Final {
		w.stopped = true
		return true
	}
	return false
}

// crawl returns condition's cursor, starting one if none exists.
func (w *Writer) crawl(condition string) *crawlCursor {
	for _, c := range w.crawls {
		if c.Condition == condition {
			return c
		}
	}
	c := &crawlCursor{crawlFrame: crawlFrame{CrawlState: CrawlState{Condition: condition}}}
	w.crawls = append(w.crawls, c)
	return c
}

// FinishPhase records a completed pipeline phase and checkpoints.
func (w *Writer) FinishPhase(name string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.head.PhaseDone(name) {
		w.head.Phases = append(w.head.Phases, name)
	}
	return w.writeLocked()
}

// writeLocked appends one frame: the live sources' head state plus
// every page and event the journal lacks. Cursors move only once the
// frame is on disk, so the next cut re-journals whatever a failed one
// missed. Callers hold w.mu.
func (w *Writer) writeLocked() error {
	f := frame{Checkpoint: w.head}
	f.Schema = SchemaVersion
	f.Sequence++
	if w.Metrics != nil {
		f.Metrics = w.Metrics.Snapshot()
	}
	if w.Events != nil {
		f.Events = w.Events.Since(w.head.EventsSeq)
		f.EventsSeq = w.Events.Total()
		f.EventsDropped = w.Events.Dropped()
	}
	if w.Faults != nil {
		st := w.Faults.Export()
		f.Faults = &st
	}
	for _, c := range w.crawls {
		if c.dirty {
			f.Crawls = append(f.Crawls, c.crawlFrame)
		}
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := w.appendFrame(append(data, '\n')); err != nil {
		return err
	}
	w.head = f.Checkpoint
	w.head.Events = nil
	for _, c := range w.crawls {
		if c.dirty {
			c.From, c.Pages, c.dirty = c.Frontier, nil, false
		}
	}
	w.writes++
	w.Status.CheckpointWrite(w.dir, w.writes, w.stopped)
	return nil
}

// appendFrame truncates the journal to its known-good length — cutting
// away a stale journal, a crash's torn tail or a failed append's
// partial bytes — and appends one newline-terminated frame.
func (w *Writer) appendFrame(data []byte) error {
	f, err := os.OpenFile(filepath.Join(w.dir, FileName), os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	err = f.Truncate(w.size)
	if err == nil {
		_, err = f.WriteAt(data, w.size)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.size += int64(len(data))
	return nil
}

// Load reads the journal in dir and folds its complete frames into the
// checkpoint at the last one: the full page prefix per crawl and the
// retained events. A trailing line without its newline is a torn
// append and is ignored; a journal with no complete frame is reported
// as an error wrapping os.ErrNotExist. Any complete frame of another
// schema, pages that do not continue the journaled prefix, or retained
// events other than exactly (EventsDropped, EventsSeq] is an error.
func Load(dir string) (*Checkpoint, error) {
	path := filepath.Join(dir, FileName)
	file, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer file.Close()
	cp, err := decode(file)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return cp, nil
}

// decode is Load on the journal's bytes.
func decode(r io.Reader) (*Checkpoint, error) {
	cp := &Checkpoint{}
	var size int64
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := cp.fold(line); err != nil {
			return nil, fmt.Errorf("frame %d: %w", n, err)
		}
		size += int64(len(line))
	}
	if size == 0 {
		return nil, fmt.Errorf("no complete frame: %w", os.ErrNotExist)
	}
	if cp.EventsDropped > cp.EventsSeq || uint64(len(cp.Events)) != cp.EventsSeq-cp.EventsDropped {
		return nil, fmt.Errorf("%d events retained, want seqs (%d, %d]", len(cp.Events), cp.EventsDropped, cp.EventsSeq)
	}
	for i, e := range cp.Events {
		if e.Seq != cp.EventsDropped+1+uint64(i) {
			return nil, fmt.Errorf("retained event %d has seq %d, want %d", i, e.Seq, cp.EventsDropped+1+uint64(i))
		}
	}
	cp.size = size
	return cp, nil
}

// fold applies one journal line to the checkpoint folded so far.
func (cp *Checkpoint) fold(line []byte) error {
	var f frame
	if err := json.Unmarshal(line, &f); err != nil {
		return err
	}
	if f.Schema != SchemaVersion {
		return fmt.Errorf("schema v%d, want v%d", f.Schema, SchemaVersion)
	}
	for i := range f.Crawls {
		d := &f.Crawls[i]
		cs := cp.Crawl(d.Condition)
		if cs == nil {
			cs = &CrawlState{Condition: d.Condition}
			cp.Crawls = append(cp.Crawls, cs)
		}
		if d.From != len(cs.Pages) || d.From+len(d.Pages) != d.Frontier || d.Frontier > d.Total || (d.Done && d.Frontier != d.Total) {
			return fmt.Errorf("crawl %q: pages [%d, %d) at frontier %d of %d (done %v) do not continue the %d journaled",
				d.Condition, d.From, d.From+len(d.Pages), d.Frontier, d.Total, d.Done, len(cs.Pages))
		}
		for _, p := range d.Pages {
			if p == nil {
				return fmt.Errorf("crawl %q: null page", d.Condition)
			}
		}
		pages := append(cs.Pages, d.Pages...)
		*cs = d.CrawlState
		cs.Pages = pages
	}
	// Drop what the ring overwrote, so memory stays at the retained log.
	crawls, events := cp.Crawls, append(cp.Events, f.Events...)
	k := 0
	for k < len(events) && events[k].Seq <= f.EventsDropped {
		k++
	}
	*cp = f.Checkpoint
	cp.Crawls, cp.Events = crawls, events[k:]
	return nil
}
