package tracez

import (
	"encoding/json"
	"fmt"
	"net/http"

	"canvassing/internal/obs"
)

// Payload is the /tracez JSON payload: the live phase-level
// critical-path report plus the exemplar reservoir snapshot.
type Payload struct {
	CriticalPath Report          `json:"critical_path"`
	Conditions   []CondExemplars `json:"conditions,omitempty"`
}

// Handler serves the live trace-analytics view — JSON by default, an
// HTML slowest-visits dashboard for browsers. A nil reservoir (visit
// tracing disabled) answers 404 so probes can tell the feature is
// off, matching the /red convention.
func Handler(tel *obs.Telemetry, r *Reservoir) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if r == nil {
			http.Error(w, "visit tracing disabled (run with -tracez)", http.StatusNotFound)
			return
		}
		p := Payload{
			CriticalPath: Analyze(BuildForest(tel.Tracer.Records())),
			Conditions:   r.Snapshot(),
		}
		if obs.WantsHTML(req) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeTracezHTML(w, p)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p)
	})
}

func writeTracezHTML(w http.ResponseWriter, p Payload) {
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>canvassing /tracez</title></head><body>")
	fmt.Fprint(w, "<h1>trace analytics</h1>")
	fmt.Fprintf(w, "<p>%d phase roots · total wall %s · critical root %s</p>",
		p.CriticalPath.Roots, fmtDur(p.CriticalPath.Wall), fmtDur(p.CriticalPath.CriticalWall))
	if len(p.CriticalPath.CriticalPath) > 0 {
		fmt.Fprint(w, "<h2>critical path</h2><ol>")
		for _, st := range p.CriticalPath.CriticalPath {
			fmt.Fprintf(w, "<li><code>%s</code> %s (self %s)</li>", st.Name, fmtDur(st.Wall), fmtDur(st.Self))
		}
		fmt.Fprint(w, "</ol>")
	}
	if len(p.CriticalPath.Phases) > 0 {
		fmt.Fprint(w, "<h2>phase attribution</h2><table border=1 cellpadding=4><tr><th>phase</th><th>count</th><th>wall</th><th>self</th><th>child-par</th></tr>")
		for _, ph := range p.CriticalPath.Phases {
			par := "-"
			if ph.ChildUnion > 0 {
				par = fmt.Sprintf("%.2f", ph.Parallelism())
			}
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				ph.Name, ph.Count, fmtDur(ph.Wall), fmtDur(ph.Self), par)
		}
		fmt.Fprint(w, "</table>")
	}
	if len(p.Conditions) > 0 {
		fmt.Fprint(w, "<h2>exemplar reservoir</h2><table border=1 cellpadding=4><tr><th>condition</th><th>kind</th><th>offered</th><th>kept</th><th>max cost</th></tr>")
		for _, ce := range p.Conditions {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td></tr>",
				ce.Condition, ce.Kind, ce.Offered, len(ce.Slow)+len(ce.Head), ce.MaxCost)
		}
		fmt.Fprint(w, "</table>")
	}
	if slow := slowestOf(p.Conditions, 20); len(slow) > 0 {
		fmt.Fprint(w, "<h2>slowest visits</h2><table border=1 cellpadding=4><tr><th>condition</th><th>domain</th><th>idx</th><th>outcome</th><th>cost</th><th>wall</th><th>dominant</th><th>flags</th></tr>")
		for _, vt := range slow {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%s</td><td>%d</td><td>%s</td><td>%s</td><td>%s</td></tr>",
				vt.Condition, vt.Domain, vt.Index, vt.Outcome, vt.Cost, fmtDur(vt.Wall), dominant(vt), flags(vt))
		}
		fmt.Fprint(w, "</table>")
	}
	fmt.Fprint(w, "</body></html>")
}
