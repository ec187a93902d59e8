// Package ops assembles and serves the production ops plane: the obs
// debug endpoints (registry, spans, events, probes), the Prometheus
// exposition (internal/obs/prom), the sliding-window RED views
// (internal/obs/window), the live /statusz run-status page, and the
// /tracez trace analytics (internal/obs/tracez), on one mux.
//
// The split exists to keep import edges acyclic: obs knows nothing of
// prom, window or tracez (all three import obs), so this package is
// where they meet, and it is the only place the HTTP surface is built.
// Binaries call Start with their parsed obs.CLI and get the whole
// surface — or nothing, when no serving flag was given; the verdict
// service passes its API routes to Serve as extras. NewMux lists every
// endpoint, and a running plane's index page (GET /) describes each.
package ops

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sort"
	"time"

	"canvassing/internal/obs"
	"canvassing/internal/obs/prom"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/obs/window"
)

// Route is one endpoint on the ops mux. Extras passed to NewMux or
// Serve are registered alongside the built-in endpoints and listed on
// the root index page.
type Route struct {
	// Pattern is the mux pattern ("/metrics.prom").
	Pattern string
	// Desc is the one-line description the index page shows.
	Desc string
	// Handler answers the route.
	Handler http.Handler
}

// PhaseStatus is one entry of the /statusz phase ledger: one entry per
// root-span name in first-start order, so the ledger mirrors the
// phase-timing table while the run is still in flight.
type PhaseStatus struct {
	Name string `json:"name"`
	// State is "running" while any span of this phase is open, "done"
	// once every one has ended.
	State string `json:"state"`
	// Runs counts completed spans of this phase (analyze.* phases run
	// once per condition; re-entrant phases count each entry).
	Runs int `json:"runs"`
	// Seconds is the accumulated wall time of completed runs.
	Seconds float64 `json:"seconds"`
}

// ActiveSpan is one currently-open tracer span as /statusz reports it.
type ActiveSpan struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Statusz is the /statusz JSON payload: the status tracker's snapshot
// plus what is computed at serve time (the phase ledger, windowed
// visit rate, ETA for the active crawl, open spans).
type Statusz struct {
	obs.StatusSnapshot
	Phases []PhaseStatus `json:"phases,omitempty"`
	// VisitRatePerSec is the windowed page visit rate (ok + failed).
	VisitRatePerSec float64 `json:"visit_rate_per_sec"`
	// ETACondition / ETASeconds estimate completion of the first
	// unfinished crawl from the windowed visit rate. Omitted when no
	// crawl is active or the rate is zero.
	ETACondition string  `json:"eta_condition,omitempty"`
	ETASeconds   float64 `json:"eta_seconds,omitempty"`
	// ActiveSpans lists currently-open tracer spans, outermost first.
	ActiveSpans []ActiveSpan `json:"active_spans,omitempty"`
}

// BuildStatusz assembles the payload from the telemetry bundle and
// windowed view (view may be nil: rate and ETA stay zero).
func BuildStatusz(tel *obs.Telemetry, view *window.View) Statusz {
	// Active before Records: a span that ends in between shows up in
	// both, and phaseLedger keeps its finished record.
	active := tel.Tracer.Active()
	st := Statusz{
		StatusSnapshot: tel.Status.Snapshot(),
		Phases:         phaseLedger(tel.Tracer.Records(), active),
	}
	if view != nil {
		st.VisitRatePerSec = view.VisitRate()
	}
	if crawl, ok := tel.Status.ActiveCrawl(); ok && st.VisitRatePerSec > 0 {
		st.ETACondition = crawl.Condition
		st.ETASeconds = float64(crawl.Total-crawl.Frontier) / st.VisitRatePerSec
	}
	for _, sp := range active {
		st.ActiveSpans = append(st.ActiveSpans, ActiveSpan{
			Name: sp.Name, Seconds: sp.Duration.Seconds(),
		})
	}
	return st
}

// phaseLedger folds the root spans, finished and open, into one entry
// per name in first-start order. Span IDs are handed out in start
// order, so sorting by ID is sorting by start.
func phaseLedger(done, open []obs.SpanRecord) []PhaseStatus {
	finished := map[int64]bool{}
	var roots []obs.SpanRecord
	for _, r := range done {
		if r.ParentID == 0 {
			finished[r.ID] = true
			roots = append(roots, r)
		}
	}
	running := map[int64]bool{}
	for _, r := range open {
		if r.ParentID == 0 && !finished[r.ID] {
			running[r.ID] = true
			roots = append(roots, r)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].ID < roots[j].ID })
	var out []PhaseStatus
	idx := map[string]int{}
	for _, r := range roots {
		i, ok := idx[r.Name]
		if !ok {
			i = len(out)
			idx[r.Name] = i
			out = append(out, PhaseStatus{Name: r.Name, State: "done"})
		}
		if running[r.ID] {
			out[i].State = "running"
			continue
		}
		out[i].Runs++
		out[i].Seconds += r.Duration.Seconds()
	}
	return out
}

// NewMux builds the ops-plane mux: the built-in endpoints below, the
// extras, the root index, and — when withPprof is set — the
// net/http/pprof handlers, registered here explicitly. (Importing
// net/http/pprof also registers them on http.DefaultServeMux; nothing
// in this repository serves that mux.) view may be nil: /red answers
// 404 and /statusz carries no rate or ETA. visits may be nil: /tracez
// answers 404.
func NewMux(tel *obs.Telemetry, withPprof bool, view *window.View, visits *tracez.Reservoir, extras ...Route) *http.ServeMux {
	routes := []Route{
		{Pattern: "/metrics", Desc: "metrics registry snapshot (JSON)",
			Handler: writer("application/json", tel.Metrics.WriteJSON)},
		{Pattern: "/metrics.txt", Desc: "metrics registry snapshot (terminal rendering)",
			Handler: writer("text/plain; charset=utf-8", func(w io.Writer) error {
				_, err := io.WriteString(w, tel.Metrics.RenderText())
				return err
			})},
		{Pattern: "/metrics.prom", Desc: "metrics registry (Prometheus text exposition)",
			Handler: prom.Handler(tel.Metrics)},
		{Pattern: "/spans", Desc: "finished span trace (JSON lines)",
			Handler: writer("application/x-ndjson", tel.Tracer.WriteJSONL)},
		{Pattern: "/events", Desc: "decision-evidence event log (JSON lines)",
			Handler: writer("application/x-ndjson", tel.Events.WriteJSONL)},
		{Pattern: "/healthz", Desc: "liveness probe (always 200 while the process serves)",
			Handler: writer("text/plain; charset=utf-8", func(w io.Writer) error {
				_, err := fmt.Fprintln(w, "ok")
				return err
			})},
		{Pattern: "/readyz", Desc: "readiness probe (200 once the study is constructed)",
			Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; charset=utf-8")
				if tel.Status.Ready() {
					fmt.Fprintln(w, "ready")
					return
				}
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, "not ready: %s\n", tel.Status.State())
			})},
		{Pattern: "/red", Desc: "sliding-window RED view (rates, error ratios, latency percentiles)",
			Handler: redHandler(view)},
		{Pattern: "/statusz", Desc: "live run status: phases, crawl frontier, ETA (JSON; HTML for browsers)",
			Handler: statuszHandler(tel, view)},
		{Pattern: "/tracez", Desc: "trace analytics: critical path, phase attribution, slowest-visit exemplars (JSON; HTML for browsers)",
			Handler: tracez.Handler(tel, visits)},
	}
	routes = append(routes, extras...)
	if withPprof {
		routes = append(routes, Route{Pattern: "/debug/pprof/", Desc: "net/http/pprof profiling endpoints",
			Handler: http.HandlerFunc(pprof.Index)})
	}

	mux := http.NewServeMux()
	for _, r := range routes {
		mux.Handle(r.Pattern, r.Handler)
	}
	if withPprof {
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", indexHandler(routes))
	return mux
}

// writer serves whatever write produces under one content type.
func writer(contentType string, write func(io.Writer) error) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", contentType)
		_ = write(w)
	})
}

// indexHandler serves the root discovery page: every registered
// endpoint with its description, as HTML (or plain text for curl-ish
// clients that don't ask for HTML). Unknown paths still 404.
func indexHandler(routes []Route) http.Handler {
	sorted := append([]Route(nil), routes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pattern < sorted[j].Pattern })
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		if !obs.WantsHTML(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for _, rt := range sorted {
				fmt.Fprintf(w, "%-16s %s\n", rt.Pattern, rt.Desc)
			}
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, "<!DOCTYPE html><html><head><title>canvassing ops plane</title></head><body>")
		fmt.Fprint(w, "<h1>canvassing ops plane</h1><ul>")
		for _, rt := range sorted {
			fmt.Fprintf(w, `<li><a href="%s"><code>%s</code></a> — %s</li>`, rt.Pattern, rt.Pattern, rt.Desc)
		}
		fmt.Fprint(w, "</ul></body></html>")
	})
}

// redHandler serves the windowed RED snapshot as JSON. A nil view
// (sampler disabled) answers 404 so probes can tell it apart from an
// idle window.
func redHandler(view *window.View) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if view == nil {
			http.Error(w, "windowed view disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, view.RED())
	})
}

// statuszHandler serves the live run status — JSON by default, a small
// HTML dashboard when the client asks for text/html.
func statuszHandler(tel *obs.Telemetry, view *window.View) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := BuildStatusz(tel, view)
		if obs.WantsHTML(r) {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeStatuszHTML(w, st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, st)
	})
}

func writeStatuszHTML(w http.ResponseWriter, st Statusz) {
	fmt.Fprint(w, "<!DOCTYPE html><html><head><title>canvassing /statusz</title></head><body>")
	fmt.Fprintf(w, "<h1>run status: %s</h1>", st.State)
	fmt.Fprintf(w, "<p>uptime %.1fs", st.UptimeSeconds)
	if st.VisitRatePerSec > 0 {
		fmt.Fprintf(w, " · %.1f visits/s", st.VisitRatePerSec)
	}
	if st.ETASeconds > 0 {
		fmt.Fprintf(w, " · ETA %s for %s",
			(time.Duration(st.ETASeconds * float64(time.Second))).Round(time.Second), st.ETACondition)
	}
	fmt.Fprint(w, "</p>")
	if len(st.Crawls) > 0 {
		fmt.Fprint(w, "<h2>crawls</h2><table border=1 cellpadding=4><tr><th>condition</th><th>frontier</th><th>total</th><th>done</th></tr>")
		for _, c := range st.Crawls {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%d</td><td>%d</td><td>%v</td></tr>",
				c.Condition, c.Frontier, c.Total, c.Done)
		}
		fmt.Fprint(w, "</table>")
	}
	if len(st.Phases) > 0 {
		fmt.Fprint(w, "<h2>phases</h2><table border=1 cellpadding=4><tr><th>phase</th><th>state</th><th>runs</th><th>seconds</th></tr>")
		for _, p := range st.Phases {
			fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%d</td><td>%.3f</td></tr>",
				p.Name, p.State, p.Runs, p.Seconds)
		}
		fmt.Fprint(w, "</table>")
	}
	if len(st.ActiveSpans) > 0 {
		fmt.Fprint(w, "<h2>active spans</h2><ul>")
		for _, sp := range st.ActiveSpans {
			fmt.Fprintf(w, "<li><code>%s</code> %.3fs</li>", sp.Name, sp.Seconds)
		}
		fmt.Fprint(w, "</ul>")
	}
	if st.Checkpoint != nil {
		fmt.Fprintf(w, "<h2>checkpoint</h2><p>%s · %d writes</p>", st.Checkpoint.Dir, st.Checkpoint.Writes)
	}
	fmt.Fprint(w, "</body></html>")
}

// Plane is a running ops plane: its HTTP server, the address it bound,
// and its window sampler. All methods are nil-safe so callers can
// unconditionally defer Close after a Start that may decline to serve.
type Plane struct {
	srv    *http.Server
	addr   string
	view   *window.View
	served chan struct{} // closed once the serve loop has returned
}

// Addr reports the bound listen address, with the real port when ":0"
// was asked for ("" for a nil plane).
func (p *Plane) Addr() string {
	if p == nil {
		return ""
	}
	return p.addr
}

// URL reports the http:// base URL ("" for a nil plane).
func (p *Plane) URL() string {
	if p == nil {
		return ""
	}
	return "http://" + p.addr
}

// Shutdown stops the sampler and gracefully stops the server, waiting
// for in-flight requests up to ctx's deadline.
func (p *Plane) Shutdown(ctx context.Context) error {
	if p == nil {
		return nil
	}
	p.view.Stop()
	err := p.srv.Shutdown(ctx)
	<-p.served
	return err
}

// Close stops the sampler and the server immediately.
func (p *Plane) Close() error {
	if p == nil {
		return nil
	}
	p.view.Stop()
	err := p.srv.Close()
	<-p.served
	return err
}

// Serve binds addr (":0" picks a free port), builds a windowed view
// over tel's registry, starts its sampler, and serves the full ops
// plane plus extras in the background. A failure to bind is returned
// synchronously. visits may be nil when the run captures no exemplars.
func Serve(addr string, tel *obs.Telemetry, withPprof bool, win time.Duration, visits *tracez.Reservoir, extras ...Route) (*Plane, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	view := window.New(tel.Metrics, win)
	p := &Plane{
		srv:    &http.Server{Handler: NewMux(tel, withPprof, view, visits, extras...)},
		addr:   ln.Addr().String(),
		view:   view,
		served: make(chan struct{}),
	}
	go func() {
		defer close(p.served)
		// Serve returns only once Shutdown or Close has been called
		// (ErrServerClosed) or the listener fails; either way the plane
		// is done serving.
		_ = p.srv.Serve(ln)
	}()
	view.Start(0)
	return p, nil
}

// Start serves the ops plane when the parsed CLI asked for one
// (-status or -pprof) and reports the bound address on stderr. With
// neither flag set it returns (nil, nil); the nil Plane's methods are
// all no-ops. visits feeds /tracez and may be nil.
func Start(cli *obs.CLI, tel *obs.Telemetry, visits *tracez.Reservoir) (*Plane, error) {
	addr, withPprof := cli.OpsAddr()
	if addr == "" {
		return nil, nil
	}
	p, err := Serve(addr, tel, withPprof, cli.Window, visits)
	if err != nil {
		return nil, err
	}
	label := "ops plane"
	if withPprof {
		label = "ops plane (with pprof)"
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving %s on %s\n", label, p.URL())
	return p, nil
}

// PrintMetrics writes the phase-timing table and the metrics snapshot
// to w when -metrics was given.
func PrintMetrics(cli *obs.CLI, tel *obs.Telemetry, w io.Writer) {
	if !cli.Metrics {
		return
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, tracez.PhaseTimings(tel.Tracer.Records()))
	fmt.Fprintln(w)
	fmt.Fprint(w, tel.Metrics.RenderText())
}

// writeJSON marshals v indented (map keys come out sorted, so the
// payload is stable for a given state).
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
