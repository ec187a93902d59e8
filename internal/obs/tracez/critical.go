package tracez

import (
	"fmt"
	"io"
	"sort"
	"time"

	"canvassing/internal/obs"
)

// PhaseStat aggregates every span with one name across a forest.
// Self-time is wall minus the union of child intervals: the part of
// the span no child accounts for. ChildSum over ChildUnion measures
// serial-vs-parallel overlap — 1.0 means children ran strictly
// serially, higher means they overlapped.
type PhaseStat struct {
	Name       string        `json:"name"`
	Count      int           `json:"count"`
	Wall       time.Duration `json:"wall_ns"`
	Self       time.Duration `json:"self_ns"`
	ChildSum   time.Duration `json:"child_sum_ns"`
	ChildUnion time.Duration `json:"child_union_ns"`
	Cost       int64         `json:"cost,omitempty"`
}

// Parallelism is ChildSum/ChildUnion, or 0 when the phase has no
// child time.
func (p PhaseStat) Parallelism() float64 {
	if p.ChildUnion <= 0 {
		return 0
	}
	return float64(p.ChildSum) / float64(p.ChildUnion)
}

// PathStep is one hop of a critical path.
type PathStep struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
	Self time.Duration `json:"self_ns"`
}

// Report is the critical-path analysis of one span forest.
type Report struct {
	Roots int `json:"roots"`
	// Wall sums the roots' wall times (roots that overlapped count
	// separately).
	Wall time.Duration `json:"total_wall_ns"`
	// CriticalWall is the wall time of the longest root — the chain
	// the CriticalPath walks.
	CriticalWall time.Duration `json:"critical_wall_ns"`
	// Phases aggregates spans by name, wall-descending.
	Phases []PhaseStat `json:"phases"`
	// CriticalPath descends from the longest root through the child
	// that finishes last at each level.
	CriticalPath []PathStep `json:"critical_path"`
}

// BuildForest converts finished tracer records into tracez span
// trees: children attach under their parents in start order, and
// offsets are relative to each tree's root start.
func BuildForest(recs []obs.SpanRecord) []*Span {
	byID := make(map[int64]*Span, len(recs))
	starts := make(map[int64]time.Time, len(recs))
	for _, r := range recs {
		byID[r.ID] = &Span{Name: r.Name, Wall: r.Duration, Labels: r.Labels}
		starts[r.ID] = r.Start
	}
	type edge struct {
		id     int64
		parent int64
	}
	edges := make([]edge, 0, len(recs))
	for _, r := range recs {
		edges = append(edges, edge{r.ID, r.ParentID})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		si, sj := starts[edges[i].id], starts[edges[j].id]
		if !si.Equal(sj) {
			return si.Before(sj)
		}
		return edges[i].id < edges[j].id
	})
	var roots []*Span
	var rootIDs []int64
	for _, e := range edges {
		if p := byID[e.parent]; p != nil {
			p.Children = append(p.Children, byID[e.id])
		} else {
			roots = append(roots, byID[e.id])
			rootIDs = append(rootIDs, e.id)
		}
	}
	// Offsets relative to the owning root.
	var stamp func(sp *Span, id int64, rootStart time.Time)
	ids := map[*Span]int64{}
	for id, sp := range byID {
		ids[sp] = id
	}
	stamp = func(sp *Span, id int64, rootStart time.Time) {
		sp.Off = starts[id].Sub(rootStart)
		for _, c := range sp.Children {
			stamp(c, ids[c], rootStart)
		}
	}
	for i, root := range roots {
		stamp(root, rootIDs[i], starts[rootIDs[i]])
	}
	return roots
}

// interval is a half-open [start, end) wall window.
type interval struct{ start, end time.Duration }

// unionLen merges overlapping intervals and returns the covered
// length.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	total += cur.end - cur.start
	return total
}

// selfTime is sp's wall minus the union of its children's intervals
// (clipped to sp's own window), floored at zero.
func selfTime(sp *Span) time.Duration {
	if len(sp.Children) == 0 {
		return sp.Wall
	}
	ivs := make([]interval, 0, len(sp.Children))
	lo, hi := sp.Off, sp.End()
	for _, c := range sp.Children {
		s, e := c.Off, c.End()
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			ivs = append(ivs, interval{s, e})
		}
	}
	self := sp.Wall - unionLen(ivs)
	if self < 0 {
		self = 0
	}
	return self
}

// Analyze computes the critical-path report for a span forest (tracer
// phase trees or exemplar visit trees alike).
func Analyze(forest []*Span) Report {
	rep := Report{Roots: len(forest)}
	agg := map[string]*PhaseStat{}
	var order []string
	var walk func(sp *Span)
	walk = func(sp *Span) {
		p := agg[sp.Name]
		if p == nil {
			p = &PhaseStat{Name: sp.Name}
			agg[sp.Name] = p
			order = append(order, sp.Name)
		}
		p.Count++
		p.Wall += sp.Wall
		p.Self += selfTime(sp)
		p.Cost += sp.Cost
		if len(sp.Children) > 0 {
			ivs := make([]interval, 0, len(sp.Children))
			for _, c := range sp.Children {
				p.ChildSum += c.Wall
				if c.End() > c.Off {
					ivs = append(ivs, interval{c.Off, c.End()})
				}
			}
			p.ChildUnion += unionLen(ivs)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	var longest *Span
	for _, root := range forest {
		rep.Wall += root.Wall
		if longest == nil || root.Wall > longest.Wall {
			longest = root
		}
		walk(root)
	}
	for _, name := range order {
		rep.Phases = append(rep.Phases, *agg[name])
	}
	sort.SliceStable(rep.Phases, func(i, j int) bool { return rep.Phases[i].Wall > rep.Phases[j].Wall })
	if longest != nil {
		rep.CriticalWall = longest.Wall
		for sp := longest; sp != nil; {
			rep.CriticalPath = append(rep.CriticalPath, PathStep{
				Name: sp.Name, Wall: sp.Wall, Self: selfTime(sp),
			})
			// Descend through the child that finishes last — the one
			// gating this span's end.
			var next *Span
			for _, c := range sp.Children {
				if next == nil || c.End() > next.End() {
					next = c
				}
			}
			sp = next
		}
	}
	return rep
}

// WriteFolded writes the forest as collapsed stack lines
// ("root;child;leaf <self-ns>") — the folded format flamegraph.pl and
// pprof-style viewers consume. Identical stacks are summed; lines are
// sorted for deterministic output. prefix, when non-empty, becomes
// the outermost frame of every stack (used to group exemplar visit
// trees by condition).
func WriteFolded(w io.Writer, forest []*Span, prefix string) error {
	lines := map[string]int64{}
	var walk func(sp *Span, stack string)
	walk = func(sp *Span, stack string) {
		if stack == "" {
			stack = sp.Name
		} else {
			stack += ";" + sp.Name
		}
		if self := selfTime(sp); self > 0 {
			lines[stack] += int64(self)
		}
		for _, c := range sp.Children {
			walk(c, stack)
		}
	}
	for _, root := range forest {
		walk(root, prefix)
	}
	keys := make([]string, 0, len(lines))
	for k := range lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, lines[k]); err != nil {
			return err
		}
	}
	return nil
}
