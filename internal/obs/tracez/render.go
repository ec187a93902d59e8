package tracez

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"canvassing/internal/obs"
	"canvassing/internal/report"
)

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

func fmtShare(part, total time.Duration) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// flagKeys are the exemplar labels worth surfacing in the slow-visit
// table — the fault/degradation annotations.
var flagKeys = []string{"fault", "retries", "degraded", "truncated", "blocked", "error", "consent"}

// flags collects notable labels across a tree as "k=v" pairs in
// flagKeys order (first value seen per key wins).
func flags(vt *VisitTrace) string {
	seen := map[string]string{}
	var walk func(sp *Span)
	walk = func(sp *Span) {
		for k, v := range sp.Labels {
			if _, ok := seen[k]; !ok {
				seen[k] = v
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(vt.Root)
	var out []string
	for _, k := range flagKeys {
		if v, ok := seen[k]; ok {
			out = append(out, k+"="+v)
		}
	}
	if len(out) == 0 {
		return "-"
	}
	return strings.Join(out, " ")
}

// dominant names the root's direct child with the most wall time.
func dominant(vt *VisitTrace) string {
	var best *Span
	for _, c := range vt.Root.Children {
		if best == nil || c.Wall > best.Wall {
			best = c
		}
	}
	if best == nil {
		return "-"
	}
	return best.Name
}

// PhaseTimings renders the phase-timing table of a tracer's finished
// spans: one row per span name at each depth of BuildForest's forest,
// children indented under their parents, with each root phase's share
// of the summed root wall time and a total row. Spans of one name under
// same-named parents merge into one row (analyze.* runs once per
// condition), in first-start order. Phases that did not run are simply
// absent.
func PhaseTimings(recs []obs.SpanRecord) string {
	forest := BuildForest(recs)
	var total time.Duration
	for _, root := range forest {
		total += root.Wall
	}
	t := report.NewTable("Phase timings", "phase", "wall", "share")
	var walk func(spans []*Span, depth int)
	walk = func(spans []*Span, depth int) {
		var order []string
		byName := map[string][]*Span{}
		for _, sp := range spans {
			if _, ok := byName[sp.Name]; !ok {
				order = append(order, sp.Name)
			}
			byName[sp.Name] = append(byName[sp.Name], sp)
		}
		for _, name := range order {
			var wall time.Duration
			var children []*Span
			for _, sp := range byName[name] {
				wall += sp.Wall
				children = append(children, sp.Children...)
			}
			share := ""
			if depth == 0 && total > 0 {
				share = fmtShare(wall, total)
			}
			t.AddRow(strings.Repeat("  ", depth)+name, fmtDur(wall), share)
			walk(children, depth+1)
		}
	}
	walk(forest, 0)
	t.AddRow("total", fmtDur(total), "100.0%")
	return t.String()
}

func phaseTable(title string, rep Report) string {
	tbl := report.NewTable(title, "phase", "count", "wall", "self", "share", "child-par")
	for _, p := range rep.Phases {
		par := "-"
		if p.ChildUnion > 0 {
			par = fmt.Sprintf("%.2f", p.Parallelism())
		}
		tbl.AddRow(p.Name, p.Count, fmtDur(p.Wall), fmtDur(p.Self), fmtShare(p.Wall, rep.Wall), par)
	}
	return tbl.String()
}

func pathLine(rep Report) string {
	if len(rep.CriticalPath) == 0 {
		return "(no spans)"
	}
	parts := make([]string, len(rep.CriticalPath))
	for i, st := range rep.CriticalPath {
		parts[i] = fmt.Sprintf("%s %s (self %s)", st.Name, fmtDur(st.Wall), fmtDur(st.Self))
	}
	return strings.Join(parts, " > ")
}

// RenderReport formats the tracescope single-run report: phase-level
// critical path and attribution, then — when the run captured
// exemplars — the reservoir summary, the slowest visits, and
// visit-level phase attribution.
func RenderReport(rd *RunDir, top int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Trace analytics — %s\n\n", rd.Dir)
	rep := Analyze(rd.Phases)
	fmt.Fprintf(&sb, "Roots: %d   Total wall: %s   Critical root wall: %s\n",
		rep.Roots, fmtDur(rep.Wall), fmtDur(rep.CriticalWall))
	fmt.Fprintf(&sb, "Critical path: %s\n\n", pathLine(rep))
	sb.WriteString(phaseTable("Phase attribution (phase spans)", rep))

	if rd.Export == nil {
		sb.WriteString("\nNo exemplar sidecar (run without -tracez); phase-level view only.\n")
		return sb.String()
	}

	sb.WriteString("\n")
	tbl := report.NewTable("Exemplar reservoir", "condition", "kind", "offered", "kept", "cost-sum", "max-cost")
	for _, ce := range rd.Export.Conditions {
		tbl.AddRow(ce.Condition, ce.Kind, ce.Offered, len(ce.Slow)+len(ce.Head), ce.CostSum, ce.MaxCost)
	}
	sb.WriteString(tbl.String())

	slow := rd.Export.Slowest(top)
	if len(slow) > 0 {
		sb.WriteString("\n")
		st := report.NewTable(fmt.Sprintf("Slowest visits (top %d by deterministic cost)", len(slow)),
			"condition", "domain", "idx", "outcome", "cost", "wall", "dominant", "flags")
		for _, vt := range slow {
			st.AddRow(vt.Condition, vt.Domain, vt.Index, vt.Outcome, vt.Cost, fmtDur(vt.Wall), dominant(vt), flags(vt))
		}
		sb.WriteString(st.String())
	}

	if vf := rd.Export.VisitForest(); len(vf) > 0 {
		vrep := Analyze(vf)
		sb.WriteString("\n")
		sb.WriteString(phaseTable(fmt.Sprintf("Visit phase attribution (%d exemplar trees)", len(vf)), vrep))
	}
	return sb.String()
}

// fmtDeltaPP formats a share delta in percentage points.
func fmtDeltaPP(d float64) string {
	return fmt.Sprintf("%+.1fpp", d)
}

// RenderDiff formats the latency-profile diff between two run dirs:
// which phase's wall attribution moved, by how much, plus the two
// critical paths and — when both runs captured exemplars — the
// visit-level attribution shift and per-condition cost deltas.
func RenderDiff(a, b *RunDir) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Trace diff — A: %s   B: %s\n\n", a.Dir, b.Dir)
	ra, rb := Analyze(a.Phases), Analyze(b.Phases)
	sb.WriteString(diffPhaseTable("Phase attribution delta (phase spans)", ra, rb))
	fmt.Fprintf(&sb, "\nCritical path A: %s\n", pathLine(ra))
	fmt.Fprintf(&sb, "Critical path B: %s\n", pathLine(rb))

	if a.Export != nil && b.Export != nil {
		va, vb := Analyze(a.Export.VisitForest()), Analyze(b.Export.VisitForest())
		sb.WriteString("\n")
		sb.WriteString(diffPhaseTable("Visit phase attribution delta (exemplars)", va, vb))
		sb.WriteString("\n")
		sb.WriteString(diffCondTable(a.Export, b.Export))
	}
	return sb.String()
}

type phaseDelta struct {
	name           string
	wallA, wallB   time.Duration
	shareA, shareB float64 // percent
}

func shares(rep Report) map[string]phaseDelta {
	out := map[string]phaseDelta{}
	for _, p := range rep.Phases {
		sh := 0.0
		if rep.Wall > 0 {
			sh = 100 * float64(p.Wall) / float64(rep.Wall)
		}
		out[p.Name] = phaseDelta{name: p.Name, wallA: p.Wall, shareA: sh}
	}
	return out
}

func diffPhaseTable(title string, ra, rb Report) string {
	merged := shares(ra)
	for name, d := range shares(rb) {
		m := merged[name]
		m.name = name
		m.wallB, m.shareB = d.wallA, d.shareA
		merged[name] = m
	}
	rows := make([]phaseDelta, 0, len(merged))
	for _, d := range merged {
		rows = append(rows, d)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		di := rows[i].shareB - rows[i].shareA
		dj := rows[j].shareB - rows[j].shareA
		ai, aj := di, dj
		if ai < 0 {
			ai = -ai
		}
		if aj < 0 {
			aj = -aj
		}
		if ai != aj {
			return ai > aj
		}
		return rows[i].name < rows[j].name
	})
	tbl := report.NewTable(title, "phase", "wall A", "wall B", "share A", "share B", "Δshare")
	for _, d := range rows {
		tbl.AddRow(d.name, fmtDur(d.wallA), fmtDur(d.wallB),
			fmt.Sprintf("%.1f%%", d.shareA), fmt.Sprintf("%.1f%%", d.shareB),
			fmtDeltaPP(d.shareB-d.shareA))
	}
	out := tbl.String()
	if len(rows) > 0 {
		top := rows[0]
		out += fmt.Sprintf("Largest attribution shift: %s (%s)\n", top.name, fmtDeltaPP(top.shareB-top.shareA))
	}
	return out
}

func diffCondTable(ea, eb *Export) string {
	type cond struct {
		offered         int64
		meanCost, meanB float64
		offeredB        int64
		present, presB  bool
		kind            string
	}
	merged := map[string]*cond{}
	var order []string
	add := func(ex *Export, second bool) {
		for _, ce := range ex.Conditions {
			c := merged[ce.Condition]
			if c == nil {
				c = &cond{kind: ce.Kind}
				merged[ce.Condition] = c
				order = append(order, ce.Condition)
			}
			mean := 0.0
			if ce.Offered > 0 {
				mean = float64(ce.CostSum) / float64(ce.Offered)
			}
			if second {
				c.offeredB, c.meanB, c.presB = ce.Offered, mean, true
			} else {
				c.offered, c.meanCost, c.present = ce.Offered, mean, true
			}
		}
	}
	add(ea, false)
	add(eb, true)
	tbl := report.NewTable("Condition stream delta", "condition", "offered A", "offered B", "mean cost A", "mean cost B", "Δcost")
	for _, name := range order {
		c := merged[name]
		dc := "-"
		if c.present && c.presB && c.meanCost > 0 {
			dc = fmt.Sprintf("%+.1f%%", 100*(c.meanB-c.meanCost)/c.meanCost)
		}
		tbl.AddRow(name, c.offered, c.offeredB,
			fmt.Sprintf("%.1f", c.meanCost), fmt.Sprintf("%.1f", c.meanB), dc)
	}
	return tbl.String()
}
