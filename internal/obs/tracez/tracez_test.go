package tracez

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// mkVisit builds a synthetic visit exemplar the way the crawler's
// committer would hand one over.
func mkVisit(cond, domain string, index int, cost int64) *VisitTrace {
	return &VisitTrace{
		Kind: KindVisit, Condition: cond, Domain: domain, Index: index,
		Outcome: "ok", Cost: cost,
		Wall: time.Duration(index) * time.Millisecond,
		Root: &Span{Name: "visit", Wall: time.Duration(index) * time.Millisecond, Cost: cost},
	}
}

func TestReservoirKeepsSlowestByCost(t *testing.T) {
	r := NewReservoir(1, 5, 4)
	// A permutation of 0..99 as costs, so the slowest are scattered
	// through the stream rather than clustered at either end.
	for i := 0; i < 100; i++ {
		r.Offer(mkVisit("control", fmt.Sprintf("site-%03d.com", i), i, int64((i*37)%100)))
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("conditions = %d, want 1", len(snap))
	}
	ce := snap[0]
	if ce.Offered != 100 || ce.MaxCost != 99 {
		t.Fatalf("stream summary wrong: %+v", ce)
	}
	if len(ce.Slow) != 5 {
		t.Fatalf("slow = %d exemplars, want 5", len(ce.Slow))
	}
	for i, want := range []int64{99, 98, 97, 96, 95} {
		if ce.Slow[i].Cost != want {
			t.Fatalf("slow[%d].Cost = %d, want %d", i, ce.Slow[i].Cost, want)
		}
	}
}

func TestReservoirTieBreakByIndex(t *testing.T) {
	r := NewReservoir(1, 3, 1)
	// Equal costs: the earliest page indexes must win, regardless of
	// offer order.
	for _, idx := range []int{9, 3, 7, 1, 5} {
		r.Offer(mkVisit("control", fmt.Sprintf("site-%d.com", idx), idx, 50))
	}
	ce := r.Snapshot()[0]
	got := []int{ce.Slow[0].Index, ce.Slow[1].Index, ce.Slow[2].Index}
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("tie-break indexes = %v, want [1 3 5]", got)
	}
}

func TestReservoirBoundsAndDefaults(t *testing.T) {
	r := NewReservoir(7, 0, 0) // zero → defaults
	for i := 0; i < 10_000; i++ {
		r.Offer(mkVisit("control", fmt.Sprintf("site-%05d.com", i), i, int64(i%977)))
	}
	ce := r.Snapshot()[0]
	if len(ce.Slow) > DefaultSlowN {
		t.Fatalf("slow bound violated: %d > %d", len(ce.Slow), DefaultSlowN)
	}
	// Head is reported minus trees already kept as slow, so only the
	// upper bound is meaningful.
	if len(ce.Head) > DefaultHeadN {
		t.Fatalf("head bound violated: %d > %d", len(ce.Head), DefaultHeadN)
	}
	if len(ce.Head) == 0 {
		t.Fatal("head sample empty over a 10k stream")
	}
	if ce.Offered != 10_000 {
		t.Fatalf("offered = %d", ce.Offered)
	}
}

// TestSelectionKeyDeterministic: two reservoirs fed the same stream
// produce byte-identical selection keys — the property the study-level
// width-invariance oracle rests on.
func TestSelectionKeyDeterministic(t *testing.T) {
	mk := func() *Reservoir {
		r := NewReservoir(42, 8, 8)
		for _, cond := range []string{"control", "abp"} {
			for i := 0; i < 500; i++ {
				r.Offer(mkVisit(cond, fmt.Sprintf("site-%04d.com", i), i, int64((i*7919)%512)))
			}
		}
		return r
	}
	a, b := mk().SelectionKey(), mk().SelectionKey()
	if len(a) == 0 {
		t.Fatal("selection key empty")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("selection keys diverge:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Contains(a, []byte("cond=control")) || !bytes.Contains(a, []byte("cond=abp")) {
		t.Fatalf("conditions missing from key:\n%s", a)
	}
	if bytes.Contains(a, []byte("wall")) {
		t.Fatalf("wall-clock field leaked into the selection key:\n%s", a)
	}
}

// TestSelectionKeyExcludesBatches: batch exemplars, which older builds'
// parallel analysis offered per shard, must not appear in the
// deterministic projection.
func TestSelectionKeyExcludesBatches(t *testing.T) {
	r := NewReservoir(1, 4, 4)
	r.Offer(mkVisit("control", "site-a.com", 0, 10))
	bt := mkVisit("analyze.control", "shard-0001", 1, 99)
	bt.Kind = "batch"
	r.Offer(bt)
	key := r.SelectionKey()
	if bytes.Contains(key, []byte("analyze.control")) || bytes.Contains(key, []byte("shard-")) {
		t.Fatalf("batch exemplar leaked into selection key:\n%s", key)
	}
	if !bytes.Contains(key, []byte("site-a.com")) {
		t.Fatalf("visit exemplar missing from selection key:\n%s", key)
	}
	// The batch still shows up in the snapshot for humans.
	if len(r.Snapshot()) != 2 {
		t.Fatal("batch condition missing from snapshot")
	}
}

func TestReservoirNilSafety(t *testing.T) {
	var r *Reservoir
	r.Offer(mkVisit("control", "x.com", 0, 1)) // must not panic
	if r.Snapshot() != nil || r.SelectionKey() != nil {
		t.Fatal("nil reservoir must answer empty")
	}
	nr := NewReservoir(1, 2, 2)
	nr.Offer(nil) // must not panic
	if len(nr.Snapshot()) != 0 {
		t.Fatal("nil offer must be ignored")
	}
}

// TestHeadSampleIgnoresOfferInterleaving: the head sample keys on the
// seeded identity hash, not arrival order, so the same stream offered
// in page order always fills the same bucket.
func TestHeadSampleIgnoresOfferInterleaving(t *testing.T) {
	offer := func(r *Reservoir) {
		for i := 0; i < 300; i++ {
			r.Offer(mkVisit("control", fmt.Sprintf("d%03d.net", i), i, 0))
		}
	}
	a := NewReservoir(9, 1, 16)
	b := NewReservoir(9, 1, 16)
	offer(a)
	offer(b)
	ha, hb := a.Snapshot()[0].Head, b.Snapshot()[0].Head
	if len(ha) == 0 || len(ha) != len(hb) {
		t.Fatalf("head lengths: %d vs %d", len(ha), len(hb))
	}
	for i := range ha {
		if ha[i].Domain != hb[i].Domain {
			t.Fatalf("head[%d]: %s vs %s", i, ha[i].Domain, hb[i].Domain)
		}
	}
}

// TestBuilderTree drives the Builder with a fake clock and checks the
// assembled tree: offsets from root start, wall durations from Close,
// total cost summed over the tree, and the root wall stamped by Finish.
func TestBuilderTree(t *testing.T) {
	b := NewVisit("control", "example.com", 42, 7)
	t0 := time.Unix(1_700_000_000, 0)
	tick := 0
	b.now = func() time.Time {
		tick++
		return t0.Add(time.Duration(tick) * 10 * time.Millisecond)
	}
	b.start = t0

	conn := b.Open(b.Root(), "connect") // now = +10ms offset from start
	conn.Cost = 3
	b.Close(conn) // now = +20ms → wall 10ms
	sc := b.Open(b.Root(), "script")
	ex := b.Open(sc, "exec")
	ex.Cost = 1000
	b.Close(ex)
	b.Close(sc)
	vt := b.Finish("ok")

	if vt.Condition != "control" || vt.Domain != "example.com" || vt.Rank != 42 || vt.Index != 7 {
		t.Fatalf("identity wrong: %+v", vt)
	}
	if vt.Outcome != "ok" {
		t.Fatalf("outcome = %q", vt.Outcome)
	}
	if vt.Cost != 1003 {
		t.Fatalf("total cost = %d, want 1003", vt.Cost)
	}
	if vt.Wall != vt.Root.Wall || vt.Wall <= 0 {
		t.Fatalf("root wall not stamped: %v vs %v", vt.Wall, vt.Root.Wall)
	}
	if len(vt.Root.Children) != 2 {
		t.Fatalf("children = %d", len(vt.Root.Children))
	}
	if conn.Wall != 10*time.Millisecond {
		t.Fatalf("connect wall = %v", conn.Wall)
	}
	if ex.Off <= sc.Off {
		t.Fatal("child offset must follow parent offset")
	}
}
