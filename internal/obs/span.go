package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span. Records form a forest: a span
// started from the tracer is a root phase; a span started from
// another span is its child.
type SpanRecord struct {
	ID       int64             `json:"id"`
	ParentID int64             `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels,omitempty"`
	Start    time.Time         `json:"start"`
	// Duration is the wall time between Start() and End().
	Duration time.Duration `json:"duration_ns"`
}

// Span is an in-flight trace region. End it exactly once; child spans
// started from it nest under it in the exported records.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	labels map[string]string
	start  time.Time
	ended  atomic.Bool
}

// Tracer collects spans. It is safe for concurrent use. It only
// records: every reader — the phase-timing table, the /statusz ledger,
// /tracez and tracescope — builds its view from Records and Active.
// Finished spans accumulate in memory; a study's pipeline phases number
// in the tens (per-visit span trees live in internal/obs/tracez's
// bounded reservoir, never here), and no long-running process opens
// phase spans.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	done   []SpanRecord
	active map[int64]*Span
	now    func() time.Time // test seam
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{now: time.Now, active: map[int64]*Span{}}
}

// Start opens a root span (a pipeline phase). Labels are alternating
// key/value pairs; a trailing odd key is dropped.
func (t *Tracer) Start(name string, labels ...string) *Span {
	return t.start(0, name, labels)
}

func (t *Tracer) start(parent int64, name string, labels []string) *Span {
	sp := &Span{
		tr:     t,
		parent: parent,
		name:   name,
		labels: labelMap(labels),
	}
	t.mu.Lock()
	t.nextID++
	sp.id = t.nextID
	sp.start = t.now()
	t.active[sp.id] = sp
	t.mu.Unlock()
	return sp
}

func labelMap(kv []string) map[string]string {
	if len(kv) < 2 {
		return nil
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// StartChild opens a span nested under sp.
func (sp *Span) StartChild(name string, labels ...string) *Span {
	return sp.tr.start(sp.id, name, labels)
}

// SetLabel attaches or overwrites one label on an un-ended span.
func (sp *Span) SetLabel(k, v string) {
	if sp.labels == nil {
		sp.labels = map[string]string{}
	}
	sp.labels[k] = v
}

// End closes the span and files its record. It returns the span's
// wall duration; second and later calls are no-ops returning 0.
func (sp *Span) End() time.Duration {
	if !sp.ended.CompareAndSwap(false, true) {
		return 0
	}
	t := sp.tr
	t.mu.Lock()
	d := t.now().Sub(sp.start)
	t.done = append(t.done, SpanRecord{
		ID:       sp.id,
		ParentID: sp.parent,
		Name:     sp.name,
		Labels:   sp.labels,
		Start:    sp.start,
		Duration: d,
	})
	delete(t.active, sp.id)
	t.mu.Unlock()
	return d
}

// Active returns the spans started but not yet ended, in start order,
// with Duration set to the time elapsed so far. A span still listed
// here after its phase finished is a leak: it would otherwise silently
// vanish from Records and the JSONL export.
func (t *Tracer) Active() []SpanRecord {
	t.mu.Lock()
	now := t.now()
	out := make([]SpanRecord, 0, len(t.active))
	for _, sp := range t.active {
		out = append(out, SpanRecord{
			ID:       sp.id,
			ParentID: sp.parent,
			Name:     sp.name,
			Labels:   sp.labels,
			Start:    sp.start,
			Duration: now.Sub(sp.start),
		})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Records returns a copy of all finished spans in end order.
func (t *Tracer) Records() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.done))
	copy(out, t.done)
	return out
}

// TraceFile is the file a run bundle holds the WriteJSONL export in,
// and the one tracescope reads phase spans from.
const TraceFile = "trace.jsonl"

// WriteJSONL writes one JSON object per finished span, in end order —
// the TraceFile format.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range t.Records() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
