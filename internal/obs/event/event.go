// Package event is the decision-provenance half of the observability
// layer: a dependency-free, concurrency-safe, bounded log of every
// load-bearing decision the pipeline makes. Where the metrics
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
	"encoding/binary"
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

// DefaultCapacity is the count bound NewSink uses for capacity <= 0:
// about nine times the 55,587 events a paper-scale run (`repro -seed 1
// -scale 1.0 -exp all`) records, small enough to bound memory on
// runaway inputs.
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
// a sink stores it as one length-prefixed run of bytes.
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
// nil *Sink passed through the interface still no-ops on Record).
type Recorder interface {
	Record(Event)
}

// Sink is a concurrency-safe log of events, bounded by count and by
// encoded size. It keeps each event encoded (appendEvent) in one byte
// ring, which holds no pointers, so the collector never scans it.
// Once a new event would pass either bound, the oldest events are
// dropped and counted, so a runaway workload degrades to a bounded
// tail of recent decisions instead of unbounded memory. The retained
// events are always the newest ones: seqs (Dropped, Total] for a log
// recorded live or restored from a checkpoint.
type Sink struct {
	mu       sync.Mutex
	capacity int      // count bound
	maxBytes int      // bound on the retained events' encoded bytes
	log      []byte   // byte ring of encoded events; grows up to maxBytes
	head     int      // offset in log of the oldest retained event
	pos      []uint32 // logical start of each retained event, oldest first
	end      uint32   // logical position just past the newest event
	seq      uint64
	dropped  uint64
}

// byteBound caps the encoded bytes a sink retains, strings included.
const byteBound = 64 << 20

// slotBytes is the size of one Event value. A sink reserves capacity
// slots' worth of ring up front, at most byteBound, so a default sink
// reserves the 64 MiB a ring of Event values used to. Go neither zeroes
// a pointer-free allocation served from fresh memory nor touches its
// pages, so the reservation costs no start-up time and no resident
// memory until events fill it, but it counts toward the heap goal, so
// the collector paces a study as it did with that ring.
const slotBytes = 128

// NewSink returns a sink holding up to capacity events
// (DefaultCapacity when capacity <= 0) and up to 64 MiB of encoded
// events.
func NewSink(capacity int) *Sink { return newSink(capacity, byteBound) }

func newSink(capacity, maxBytes int) *Sink {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	reserve := maxBytes
	if capacity < maxBytes/slotBytes {
		reserve = capacity * slotBytes
	}
	return &Sink{capacity: capacity, maxBytes: maxBytes, log: make([]byte, reserve)}
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
	s.add(&e)
	s.mu.Unlock()
}

// Restore replaces the sink's contents with a previously captured
// event list and sequence state — the checkpoint half of crash
// recovery. The events keep the Schema and Seq they were recorded
// with, which must be seqs (dropped, seq] as checkpoint.Load checks;
// the next Record continues from seq, so a restored-then-continued log
// is byte-identical to one recorded in a single run. Restoring more
// events than the bounds hold keeps only the newest tail that fits
// (the same answer recording them live would give).
func (s *Sink) Restore(events []Event, seq, dropped uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pos, s.head = s.pos[:0], 0
	s.seq, s.dropped = seq, dropped
	for i := range events {
		s.add(&events[i])
	}
}

// add files one stamped event, first dropping the oldest events until
// it fits both bounds. An event larger than the byte bound is dropped
// together with everything older, so the retained seqs stay
// consecutive.
func (s *Sink) add(e *Event) {
	n := encodedLen(e)
	if n > s.maxBytes {
		s.drop(len(s.pos))
		s.dropped++
		return
	}
	for len(s.pos) >= s.capacity || s.used()+n > s.maxBytes {
		s.drop(1)
	}
	if need := s.used() + n; need > len(s.log) {
		s.grow(need)
	}
	at := (s.head + s.used()) % len(s.log)
	if at+n <= len(s.log) {
		appendEvent(s.log[at:at], e)
	} else {
		b := appendEvent(make([]byte, 0, n), e)
		copy(s.log, b[copy(s.log[at:], b):])
	}
	s.pos = append(s.pos, s.end)
	s.end += uint32(n)
}

// used returns the retained events' encoded bytes.
func (s *Sink) used() int {
	if len(s.pos) == 0 {
		return 0
	}
	return int(s.end - s.pos[0])
}

// drop discards the k oldest retained events.
func (s *Sink) drop(k int) {
	if k == len(s.pos) {
		s.pos, s.head = s.pos[:0], 0
	} else {
		s.head = (s.head + int(s.pos[k]-s.pos[0])) % len(s.log)
		s.pos = s.pos[k:]
	}
	s.dropped += uint64(k)
}

// grow moves the retained bytes to the front of a ring of at least need
// bytes: double the old one, at most maxBytes.
func (s *Sink) grow(need int) {
	log := make([]byte, min(max(2*len(s.log), need), s.maxBytes))
	used := s.used()
	k := copy(log[:used], s.log[s.head:])
	copy(log[k:used], s.log)
	s.log, s.head = log, 0
}

// encoded returns retained event i's encoded bytes, copied out when
// they wrap past the end of the ring.
func (s *Sink) encoded(i int) []byte {
	from, to := int(s.pos[i]-s.pos[0]), s.used()
	if i+1 < len(s.pos) {
		to = int(s.pos[i+1] - s.pos[0])
	}
	at, n := (s.head+from)%len(s.log), to-from
	if at+n <= len(s.log) {
		return s.log[at : at+n]
	}
	b := make([]byte, n)
	copy(b[copy(b, s.log[at:]):], s.log)
	return b
}

// decode returns the retained events from index from on, oldest first.
func (s *Sink) decode(from int) []Event {
	out := make([]Event, len(s.pos)-from)
	for i := range out {
		out[i] = decodeEvent(s.encoded(from + i))
	}
	return out
}

// Len returns the number of retained events.
func (s *Sink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pos)
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

// Dropped returns how many events the sink dropped to stay within its
// bounds.
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
	return s.decode(0)
}

// Since returns a copy of the retained events recorded after seq, in
// record order (oldest first) — what an append-only checkpoint journal
// has not written yet. Events after seq that the sink already dropped
// are gone and not returned. The retained events are the newest seqs,
// so it counts back from Total and costs O(returned events).
func (s *Sink) Since(seq uint64) []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := 0
	if seq < s.seq {
		k = int(min(s.seq-seq, uint64(len(s.pos))))
	}
	return s.decode(len(s.pos) - k)
}

// CountByKind tallies retained events per kind.
func (s *Sink) CountByKind() map[Kind]int {
	counts := map[string]*int{}
	s.scan(fieldKind, func(k []byte) {
		c := counts[string(k)]
		if c == nil {
			c = new(int)
			counts[string(k)] = c
		}
		*c++
	})
	out := make(map[Kind]int, len(counts))
	for k, c := range counts {
		out[Kind(k)] = *c
	}
	return out
}

// Conditions returns the distinct non-empty crawl labels seen, sorted.
func (s *Sink) Conditions() []string {
	seen := map[string]bool{}
	s.scan(fieldCrawl, func(c []byte) {
		if len(c) > 0 && !seen[string(c)] {
			seen[string(c)] = true
		}
	})
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// scan calls fn with string field f of each retained event, oldest
// first, reading it from the encoding without decoding the event.
func (s *Sink) scan(f int, fn func([]byte)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.pos {
		fn(field(s.encoded(i), f))
	}
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

// The string fields of an encoded event, in encoding order.
const (
	fieldKind = iota
	fieldCrawl
)

// strings returns e's string fields in encoding order.
func (e *Event) strings() [7]string {
	return [7]string{string(e.Kind), e.Crawl, e.Site, e.Subject, e.Verdict, e.Evidence, e.Detail}
}

// appendEvent appends e's encoding to b: its schema and seq, then its
// seven strings, each after its length, all numbers as uvarints.
func appendEvent(b []byte, e *Event) []byte {
	b = binary.AppendUvarint(b, uint64(e.Schema))
	b = binary.AppendUvarint(b, e.Seq)
	for _, f := range e.strings() {
		b = binary.AppendUvarint(b, uint64(len(f)))
		b = append(b, f...)
	}
	return b
}

// encodedLen returns len(appendEvent(nil, e)).
func encodedLen(e *Event) int {
	n := uvarintLen(uint64(e.Schema)) + uvarintLen(e.Seq)
	for _, f := range e.strings() {
		n += uvarintLen(uint64(len(f))) + len(f)
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// decodeEvent inverts appendEvent. The seven strings share one
// allocation.
func decodeEvent(b []byte) Event {
	schema, n := binary.Uvarint(b)
	b = b[n:]
	seq, n := binary.Uvarint(b)
	b = b[n:]
	all := string(b)
	var f [7]string
	at := 0
	for i := range f {
		l, n := binary.Uvarint(b[at:])
		at += n
		f[i] = all[at : at+int(l)]
		at += int(l)
	}
	return Event{Schema: int(schema), Seq: seq, Kind: Kind(f[0]), Crawl: f[1], Site: f[2],
		Subject: f[3], Verdict: f[4], Evidence: f[5], Detail: f[6]}
}

// field returns string field f of an encoded event without copying it.
func field(b []byte, f int) []byte {
	for skip := 0; skip < 2; skip++ { // schema, seq
		_, n := binary.Uvarint(b)
		b = b[n:]
	}
	for ; ; f-- {
		l, n := binary.Uvarint(b)
		b = b[n:]
		if f == 0 {
			return b[:l]
		}
		b = b[l:]
	}
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
