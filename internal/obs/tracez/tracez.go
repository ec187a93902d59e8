// Package tracez is the trace-analytics layer: fine-grained per-visit
// span trees captured by the crawler, a bounded deterministic exemplar
// reservoir, and a critical-path analyzer over span forests.
//
// The main obs.Tracer records pipeline *phases* — tens of spans per
// study — and this package is what reads them back: BuildForest turns
// the records into the forest that PhaseTimings (the phase-timing
// table), Analyze (/tracez, tracescope) and WriteFolded all walk.
// Per-visit trees would be millions at paper scale, so they
// never enter the tracer or the metrics registry: the Reservoir keeps
// only the slowest-N trees per condition plus a seeded head sample,
// and everything it retains lives outside the run bundle (the exemplar
// export is a sidecar file, like the checkpoint journal),
// so enabling visit tracing changes zero bundle bytes.
//
// Determinism: exemplar *selection* keys on Cost — a deterministic
// work measure (connect attempts, body bytes, interpreter steps,
// canvas calls) that is a pure function of the study seed — never on
// wall time, and visits are offered from the crawler's ordered-commit
// point in page order. SelectionKey() projects the selection down to
// its deterministic fields; that projection is byte-identical across
// worker widths. Wall-clock durations ride along on the exemplars as
// volatile annotations for humans and flamegraphs.
package tracez

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"canvassing/internal/stats"
)

// SchemaVersion gates the trace_exemplars.jsonl format.
const SchemaVersion = 1

// KindVisit is the exemplar kind of a per-visit span tree from the
// crawler. Visit exemplars are deterministic across worker widths.
// Sidecars written by older builds also hold per-shard "batch"
// exemplars from a parallel analysis pass; every reader skips kinds
// other than KindVisit.
const KindVisit = "visit"

// Span is one node of an exemplar span tree. Off and Wall are real
// wall-clock measurements (volatile across runs); Cost is the node's
// own deterministic work measure, excluding children.
type Span struct {
	Name string `json:"name"`
	// Off is the offset from the tree root's start.
	Off time.Duration `json:"off_ns"`
	// Wall is the measured wall duration. Virtual spans (e.g. canvas
	// call accounting) may leave it zero.
	Wall     time.Duration     `json:"wall_ns"`
	Cost     int64             `json:"cost,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*Span           `json:"children,omitempty"`
}

// TotalCost sums the span's own cost and all descendants'.
func (sp *Span) TotalCost() int64 {
	if sp == nil {
		return 0
	}
	total := sp.Cost
	for _, c := range sp.Children {
		total += c.TotalCost()
	}
	return total
}

// End is the span's finish offset from the tree root's start.
func (sp *Span) End() time.Duration { return sp.Off + sp.Wall }

// SetLabel attaches or overwrites one label.
func (sp *Span) SetLabel(k, v string) {
	if sp.Labels == nil {
		sp.Labels = map[string]string{}
	}
	sp.Labels[k] = v
}

// VisitTrace is one complete exemplar: a visit span tree plus the
// identity and totals the reservoir selects on.
type VisitTrace struct {
	Kind      string `json:"kind"`
	Condition string `json:"condition"`
	// Domain identifies the visited site (or the shard id of an older
	// sidecar's batch exemplar).
	Domain string `json:"domain"`
	Rank   int    `json:"rank,omitempty"`
	// Index is the page index within the condition's crawl — the
	// deterministic tie-breaker.
	Index   int    `json:"index"`
	Outcome string `json:"outcome,omitempty"`
	// Cost is the tree's total deterministic work measure.
	Cost int64 `json:"cost"`
	// Wall is the root span's wall duration (volatile).
	Wall time.Duration `json:"wall_ns"`
	Root *Span         `json:"root"`
}

// Builder assembles one exemplar span tree with real wall offsets. It
// is not safe for concurrent use: one visit is built by exactly one
// worker goroutine, then handed to the committer.
type Builder struct {
	vt    *VisitTrace
	start time.Time
	now   func() time.Time // test seam
}

// NewVisit starts a per-visit trace rooted at a "visit" span.
func NewVisit(condition, domain string, rank, index int) *Builder {
	return newBuilder(&VisitTrace{
		Kind: KindVisit, Condition: condition, Domain: domain,
		Rank: rank, Index: index, Root: &Span{Name: "visit"},
	})
}

func newBuilder(vt *VisitTrace) *Builder {
	b := &Builder{vt: vt, now: time.Now}
	b.start = b.now()
	return b
}

// Root is the tree's root span (for labeling and as the top-level
// Open parent).
func (b *Builder) Root() *Span { return b.vt.Root }

// Open starts a child span under parent (use b.Root() for a top-level
// phase) at the current wall offset. Close it with Close; spans left
// open keep Wall zero.
func (b *Builder) Open(parent *Span, name string) *Span {
	sp := &Span{Name: name, Off: b.now().Sub(b.start)}
	parent.Children = append(parent.Children, sp)
	return sp
}

// Close stamps sp's wall duration from its offset to now.
func (b *Builder) Close(sp *Span) {
	sp.Wall = b.now().Sub(b.start) - sp.Off
}

// Finish seals the trace with its outcome and returns it. The root
// wall becomes the total elapsed time; Cost is summed over the tree.
func (b *Builder) Finish(outcome string) *VisitTrace {
	b.vt.Root.Wall = b.now().Sub(b.start)
	b.vt.Outcome = outcome
	b.vt.Wall = b.vt.Root.Wall
	b.vt.Cost = b.vt.Root.TotalCost()
	return b.vt
}

// Reservoir defaults.
const (
	DefaultSlowN = 16
	DefaultHeadN = 32
	// headSampleMod is the seeded head-sample rate: roughly 1 in
	// headSampleMod offered visits is eligible until HeadN are kept.
	headSampleMod = 4
)

// condRes is one condition's reservoir state.
type condRes struct {
	kind    string
	offered int64
	costSum int64
	maxCost int64
	slow    []*VisitTrace // bounded slowN, unsorted
	head    []*VisitTrace // bounded headN, offer order
}

// Reservoir is the bounded, deterministic exemplar store. Offer it
// every committed visit (in page order); it
// keeps the slowest-N per condition by deterministic Cost plus a
// seeded head sample, and discards the rest. All methods are nil-safe
// and concurrency-safe.
type Reservoir struct {
	seed  uint64
	slowN int
	headN int

	mu    sync.Mutex
	conds map[string]*condRes
	order []string // condition first-offer order
}

// NewReservoir returns a reservoir seeded for head sampling. slowN
// and headN bound the per-condition exemplar counts; zero or negative
// values take the defaults.
func NewReservoir(seed uint64, slowN, headN int) *Reservoir {
	if slowN <= 0 {
		slowN = DefaultSlowN
	}
	if headN <= 0 {
		headN = DefaultHeadN
	}
	return &Reservoir{seed: seed, slowN: slowN, headN: headN, conds: map[string]*condRes{}}
}

// outranks reports whether a beats b for a slowest-N slot: higher
// deterministic cost wins, and on ties the earlier page index wins so
// the selection is a total order independent of offer interleaving.
func outranks(a, b *VisitTrace) bool {
	if a.Cost != b.Cost {
		return a.Cost > b.Cost
	}
	return a.Index < b.Index
}

// Offer submits one finished exemplar. Call it from a deterministic
// sequencing point (the crawler's ordered committer) — the reservoir
// itself is order-sensitive
// only through the head sample's fill order.
func (r *Reservoir) Offer(vt *VisitTrace) {
	if r == nil || vt == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.condFor(vt.Condition, vt.Kind)
	c.offered++
	c.costSum += vt.Cost
	if vt.Cost > c.maxCost {
		c.maxCost = vt.Cost
	}
	r.keep(c, vt)
}

// condFor returns (creating on first sight, which fixes the condition's
// position in first-offer order) the per-condition state. Callers hold
// r.mu.
func (r *Reservoir) condFor(cond, kind string) *condRes {
	c := r.conds[cond]
	if c == nil {
		c = &condRes{kind: kind}
		r.conds[cond] = c
		r.order = append(r.order, cond)
	}
	return c
}

// keep is the retention half of Offer: the seeded head sample and the
// slowest-N selection, with stream totals left alone. Callers hold
// r.mu.
func (r *Reservoir) keep(c *condRes, vt *VisitTrace) {
	// Head sample: a seeded hash of the exemplar's identity picks
	// ~1/headSampleMod of the stream until the bucket fills. The hash
	// depends only on (seed, condition, domain, index), so the same
	// visits are sampled at any worker width.
	if len(c.head) < r.headN && r.sampled(vt) {
		c.head = append(c.head, vt)
	}
	// Slowest-N by deterministic cost.
	if len(c.slow) < r.slowN {
		c.slow = append(c.slow, vt)
		return
	}
	min := 0
	for i := 1; i < len(c.slow); i++ {
		if outranks(c.slow[min], c.slow[i]) {
			min = i
		}
	}
	if outranks(vt, c.slow[min]) {
		c.slow[min] = vt
	}
}

// Absorb merges partial-reservoir views — per-condition snapshots
// captured over disjoint slices of a crawl's page stream, as emitted by
// distributed work-units — into the reservoir. Stream totals (offered,
// cost sum, max cost) are summed, and every part's retained exemplars
// are re-offered to the selection in ascending page-index order.
//
// This reproduces the single-process reservoir exactly: a slice's
// slowest-N retains a superset of the slice's contribution to the full
// stream's slowest-N, and a slice's head sample retains every sampled
// tree that could sit among the full stream's first headN samples, so
// re-selecting over the union in index order converges to the same
// exemplar set, in the same order, as offering the full stream.
func (r *Reservoir) Absorb(parts []CondExemplars) {
	if r == nil || len(parts) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var conds []string
	byCond := map[string][]*VisitTrace{}
	for _, p := range parts {
		c := r.condFor(p.Condition, p.Kind)
		c.offered += p.Offered
		c.costSum += p.CostSum
		if p.MaxCost > c.maxCost {
			c.maxCost = p.MaxCost
		}
		if _, ok := byCond[p.Condition]; !ok {
			conds = append(conds, p.Condition)
		}
		// Slow and Head are disjoint in a snapshot (Head is deduped
		// against Slow), so the union below never double-offers a tree.
		byCond[p.Condition] = append(byCond[p.Condition], p.Slow...)
		byCond[p.Condition] = append(byCond[p.Condition], p.Head...)
	}
	for _, cond := range conds {
		all := byCond[cond]
		sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
		c := r.conds[cond]
		for _, vt := range all {
			r.keep(c, vt)
		}
	}
}

func (r *Reservoir) sampled(vt *VisitTrace) bool {
	h := stats.HashString(fmt.Sprintf("tracez:%d:%s:%s:%d", r.seed, vt.Condition, vt.Domain, vt.Index))
	// FNV-1a's low bits echo the last input byte; fold the high half
	// down so the modulus sees mixed bits.
	h ^= h >> 33
	return h%headSampleMod == 0
}

// CondExemplars is one condition's reservoir view: stream summary
// plus the retained exemplars. Slow is cost-descending; Head is in
// offer order with any tree already present in Slow removed.
type CondExemplars struct {
	Condition string        `json:"condition"`
	Kind      string        `json:"kind"`
	Offered   int64         `json:"offered"`
	CostSum   int64         `json:"cost_sum"`
	MaxCost   int64         `json:"max_cost"`
	Slow      []*VisitTrace `json:"slow,omitempty"`
	Head      []*VisitTrace `json:"head,omitempty"`
}

// Snapshot returns every condition's exemplars in condition
// first-offer order. The returned trees are shared, not copied —
// treat them as read-only.
func (r *Reservoir) Snapshot() []CondExemplars {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CondExemplars, 0, len(r.order))
	for _, cond := range r.order {
		c := r.conds[cond]
		slow := make([]*VisitTrace, len(c.slow))
		copy(slow, c.slow)
		sort.SliceStable(slow, func(i, j int) bool { return outranks(slow[i], slow[j]) })
		inSlow := make(map[*VisitTrace]bool, len(slow))
		for _, vt := range slow {
			inSlow[vt] = true
		}
		var head []*VisitTrace
		for _, vt := range c.head {
			if !inSlow[vt] {
				head = append(head, vt)
			}
		}
		out = append(out, CondExemplars{
			Condition: cond, Kind: c.kind,
			Offered: c.offered, CostSum: c.costSum, MaxCost: c.maxCost,
			Slow: slow, Head: head,
		})
	}
	return out
}

// SelectionKey serializes which visits the reservoir selected —
// condition, stream totals, and each kept exemplar's (index, domain,
// cost, outcome) — with every wall-clock field stripped. Costs and
// outcomes are deterministic functions of the study seed and visits
// are offered in page order, so this projection is byte-identical
// across worker widths and runs. Exemplars of any other kind are
// excluded.
func (r *Reservoir) SelectionKey() []byte {
	var out []byte
	for _, ce := range r.Snapshot() {
		if ce.Kind != KindVisit {
			continue
		}
		out = fmt.Appendf(out, "cond=%s offered=%d cost_sum=%d max_cost=%d\n",
			ce.Condition, ce.Offered, ce.CostSum, ce.MaxCost)
		for _, vt := range ce.Slow {
			out = appendKeyLine(out, "slow", vt)
		}
		for _, vt := range ce.Head {
			out = appendKeyLine(out, "head", vt)
		}
	}
	return out
}

func appendKeyLine(out []byte, pick string, vt *VisitTrace) []byte {
	return fmt.Appendf(out, "  %s idx=%d domain=%s cost=%d outcome=%s\n",
		pick, vt.Index, vt.Domain, vt.Cost, vt.Outcome)
}
