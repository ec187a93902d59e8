// Package event is the decision-provenance half of the observability
// layer: a dependency-free, concurrency-safe, ring-buffered log of
// every load-bearing decision the pipeline makes. Where the metrics
// registry answers "how many canvases were fingerprintable", the event
// log answers "which canvas on which site, and which heuristic fired" —
// the per-script evidence trail that makes a detection pipeline
// auditable (Iqbal et al.; Durey et al.).
//
// Seven kinds of decision are recorded:
//
//   - detect.classify: one per extracted canvas, naming the failing
//     heuristic (or "fingerprintable");
//   - blocklist.match: one per extension-blocked script, naming the
//     list and the matching rule;
//   - cluster.assign: one per (canvas group, site) membership;
//   - attrib.evidence: ground-truth construction, group→vendor
//     resolution, and site→vendor attribution, each naming the
//     mechanism that fired (demo-hash / known-customer / url-pattern /
//     url-regexp);
//   - randomize.verdict: the Algorithm 1 double-render inconsistency
//     outcome per probed site;
//   - visit.outcome: how a fault-injected page visit ended (ok,
//     degraded, refused, timeout, circuit-open, unreachable) and under
//     which fault plan — recorded only by fault-injected crawls;
//   - interact.dispatch: one per user-behaviour action the interaction
//     engine drove on a page (click/scroll/focus/idle), with the
//     callback counts it triggered — recorded only by
//     interaction-enabled crawls.
//
// The wire format (one JSON object per line, schema-versioned via the
// "v" field) is pinned by a golden test; changing any field name or
// adding a field requires bumping SchemaVersion. A nil *Sink is inert:
// Record on nil is a no-op and callers guard event construction with a
// nil check, so the bare pipeline pays nothing.
package event

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// SchemaVersion is the events.jsonl wire-format version. Bump it
// whenever Event's JSON shape changes; the golden test in event_test.go
// enforces this.
const SchemaVersion = 1

// DefaultCapacity is the ring size NewSink uses for capacity <= 0:
// large enough to hold every decision of a paper-scale run's control
// analysis, small enough to bound memory on runaway inputs.
const DefaultCapacity = 1 << 19

// Kind classifies a decision event.
type Kind string

// Decision kinds.
const (
	// DetectClassify is a per-canvas fingerprintability verdict (§3.2).
	DetectClassify Kind = "detect.classify"
	// BlocklistMatch is an extension block decision with the rule that
	// matched (§5.1/§5.2).
	BlocklistMatch Kind = "blocklist.match"
	// ClusterAssign is one canvas-group membership (§4.2).
	ClusterAssign Kind = "cluster.assign"
	// AttribEvidence is one attribution decision: ground-truth method,
	// group→vendor, or site→vendor (A.3, Table 3).
	AttribEvidence Kind = "attrib.evidence"
	// RandomizeVerdict is an Algorithm 1 inconsistency-check outcome
	// (§5.3).
	RandomizeVerdict Kind = "randomize.verdict"
	// VisitOutcome is one fault-injected page visit's final state: the
	// verdict ("ok", "degraded", or a crawler.Fail* reason), the fault
	// kind as evidence, and the attempt count as detail.
	VisitOutcome Kind = "visit.outcome"
	// InteractDispatch is one interaction-engine action on a page: the
	// action kind as subject, the number of callbacks it ran as the
	// verdict, the site's behaviour profile as evidence, and the live
	// handler count as detail. Only interaction-enabled crawls record
	// these.
	InteractDispatch Kind = "interact.dispatch"
)

// Event is one recorded decision. Fields are flat strings (no maps) so
// recording never allocates beyond the ring slot.
type Event struct {
	// Schema is the wire-format version (SchemaVersion at write time).
	Schema int `json:"v"`
	// Seq is the sink-global record order, starting at 1.
	Seq uint64 `json:"seq"`
	// Kind classifies the decision.
	Kind Kind `json:"kind"`
	// Crawl is the crawl condition the decision belongs to ("control",
	// "abp", "ubo", "m1", "demo", ...); empty for condition-independent
	// analysis decisions (clustering, attribution).
	Crawl string `json:"crawl,omitempty"`
	// Site is the page domain the decision concerns.
	Site string `json:"site,omitempty"`
	// Subject identifies what was judged: a canvas hash, script URL,
	// group hash, or vendor slug.
	Subject string `json:"subject,omitempty"`
	// Verdict is the decision outcome ("fingerprintable", "excluded",
	// "blocked", "member", a vendor slug, ...).
	Verdict string `json:"verdict,omitempty"`
	// Evidence names what made the verdict fire: the failing heuristic,
	// the matching filter rule, or the attribution mechanism.
	Evidence string `json:"evidence,omitempty"`
	// Detail carries free-form amplifying context (script URL,
	// dimensions, list name, hash counts).
	Detail string `json:"detail,omitempty"`
}

// Recorder is the write half of an event log. *Sink implements it (a
// nil *Sink passed through the interface still no-ops on Record), and
// Buffer implements it for deferred, reordered replay — the parallel
// analysis executor records each shard into a private Buffer and
// drains the buffers into the shared Sink in deterministic page order.
type Recorder interface {
	Record(Event)
}

// Sink is a concurrency-safe ring buffer of events. Once the ring is
// full the oldest events are overwritten and counted as dropped, so a
// runaway workload degrades to a bounded tail of recent decisions
// instead of unbounded memory.
type Sink struct {
	mu      sync.Mutex
	buf     []Event // grows to cap, then wraps
	next    int     // overwrite index once full
	seq     uint64
	dropped uint64
}

// NewSink returns a sink holding up to capacity events
// (DefaultCapacity when capacity <= 0).
func NewSink(capacity int) *Sink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Sink{buf: make([]Event, 0, capacity)}
}

// Record files one event, stamping its schema version and sequence
// number. Recording on a nil sink is a no-op.
func (s *Sink) Record(e Event) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.seq++
	e.Schema = SchemaVersion
	e.Seq = s.seq
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.next = (s.next + 1) % len(s.buf)
		s.dropped++
	}
	s.mu.Unlock()
}

// Restore replaces the sink's contents with a previously captured
// event list and sequence state — the checkpoint half of crash
// recovery. The events keep the Schema and Seq they were recorded
// with; the next Record continues from seq, so a restored-then-
// continued log is byte-identical to one recorded in a single run.
// Restoring more events than the ring holds keeps only the newest
// ring-capacity tail (the same answer recording them live would give).
func (s *Sink) Restore(events []Event, seq, dropped uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	capacity := cap(s.buf)
	if overflow := len(events) - capacity; overflow > 0 {
		events = events[overflow:]
		dropped += uint64(overflow)
	}
	s.buf = s.buf[:0]
	s.buf = append(s.buf, events...)
	// If the restored list fills the ring exactly, the next Record
	// overwrites the oldest slot — which after Restore is index 0.
	s.next = 0
	s.seq = seq
	s.dropped = dropped
}

// Len returns the number of retained events.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.buf)
}

// Total returns the number of events ever recorded (retained + dropped).
func (s *Sink) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Dropped returns how many events the ring overwrote.
func (s *Sink) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Events returns a copy of the retained events in record order (oldest
// first).
func (s *Sink) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	if len(s.buf) == cap(s.buf) && cap(s.buf) > 0 {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// Since returns a copy of the retained events recorded after seq, in
// record order (oldest first) — what an append-only checkpoint journal
// has not written yet. Events after seq that the ring already
// overwrote are gone and not returned. It costs O(returned events).
func (s *Sink) Since(seq uint64) []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The oldest retained event sits at s.next, which stays 0 until the
	// ring wraps and returns to 0 on Restore; count back from the newest.
	n := len(s.buf)
	k := 0
	for k < n && s.buf[(s.next+n-1-k)%n].Seq > seq {
		k++
	}
	out := make([]Event, k)
	for i := range out {
		out[i] = s.buf[(s.next+n-k+i)%n]
	}
	return out
}

// CountByKind tallies retained events per kind.
func (s *Sink) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range s.Events() {
		out[e.Kind]++
	}
	return out
}

// Conditions returns the distinct non-empty crawl labels seen, sorted.
func (s *Sink) Conditions() []string {
	seen := map[string]bool{}
	for _, e := range s.Events() {
		if e.Crawl != "" {
			seen[e.Crawl] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// WriteJSONL writes one JSON object per retained event, oldest first —
// the events.jsonl bundle format.
func (s *Sink) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range s.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// Buffer is a deliberately unsynchronized Recorder: it appends events
// to a slice without stamping Schema or Seq, so one goroutine can
// collect a shard's decisions privately and replay them into the
// shared Sink once ordering is decided. Stamping happens at Drain
// time, inside the Sink, which is what makes a buffered-then-merged
// event log byte-identical to one recorded serially.
type Buffer struct {
	events []Event
}

// Record appends one event. Not safe for concurrent use — each shard
// owns exactly one Buffer.
func (b *Buffer) Record(e Event) { b.events = append(b.events, e) }

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.events) }

// Drain replays the buffered events into dst in record order and
// empties the buffer.
func (b *Buffer) Drain(dst Recorder) {
	for _, e := range b.events {
		dst.Record(e)
	}
	b.events = b.events[:0]
}

// ReadJSONL parses an events.jsonl stream. Events from a newer schema
// are rejected rather than misread.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("event: line %d: %w", line, err)
		}
		if e.Schema > SchemaVersion {
			return nil, fmt.Errorf("event: line %d: schema v%d is newer than supported v%d", line, e.Schema, SchemaVersion)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("event: %w", err)
	}
	return out, nil
}
