// These tests sit in an external test package so they can drive the
// obs endpoints — registry, spans, events, probes, the phase ledger —
// through the one mux that serves them, ops.NewMux (ops imports obs).
package obs_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
)

func TestMuxEndpoints(t *testing.T) {
	tel := obs.NewTelemetry()
	tel.Metrics.Counter("crawl.visits").Add(7)
	tel.Tracer.Start("crawl").End()
	mux := ops.NewMux(tel, true, nil, nil)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/metrics")
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["crawl.visits"] != 7 {
		t.Fatalf("counter = %d, want 7", snap.Counters["crawl.visits"])
	}

	if body := get("/metrics.txt").Body.String(); !strings.Contains(body, "crawl.visits") {
		t.Fatalf("/metrics.txt missing counter:\n%s", body)
	}

	if body := get("/spans").Body.String(); !strings.Contains(body, `"crawl"`) {
		t.Fatalf("/spans missing span:\n%s", body)
	}

	if code := get("/debug/pprof/cmdline").Code; code != 200 {
		t.Fatalf("pprof cmdline status = %d", code)
	}
}

func TestMuxWithoutPprof(t *testing.T) {
	mux := ops.NewMux(obs.NewTelemetry(), false, nil, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != 404 {
		t.Fatalf("pprof must be absent unless requested, got %d", rec.Code)
	}
}

// TestIndexPage: "/" lists every registered endpoint (extras included)
// as text for probes and HTML for browsers; unknown paths still 404.
func TestIndexPage(t *testing.T) {
	extra := ops.Route{Pattern: "/extra", Desc: "an extra route",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {})}
	mux := ops.NewMux(obs.NewTelemetry(), true, nil, nil, extra)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("index status = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"/metrics", "/spans", "/events", "/healthz", "/readyz", "/extra", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %s:\n%s", want, body)
		}
	}
	if strings.Contains(body, "<html>") {
		t.Fatal("plain request must get plain text")
	}

	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("Accept", "text/html")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if !strings.Contains(rec.Body.String(), "<html>") {
		t.Fatal("browser request must get HTML")
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown path = %d, want 404", rec.Code)
	}
}

// TestReadyzFollowsStatus: the probe mirrors the status tracker.
func TestReadyzFollowsStatus(t *testing.T) {
	tel := obs.NewTelemetry()
	mux := ops.NewMux(tel, false, nil, nil)
	probe := func() int {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
		return rec.Code
	}
	if probe() != 503 {
		t.Fatal("init must be 503")
	}
	tel.Status.MarkRunning()
	if probe() != 200 {
		t.Fatal("running must be 200")
	}
}

// TestPhaseLedgerViaTracer: the /statusz phase ledger is built from the
// tracer's spans at request time — root spans only, running while
// open, runs and seconds from finished spans, re-entrant phases merged.
func TestPhaseLedgerViaTracer(t *testing.T) {
	tel := obs.NewTelemetry()
	root := tel.Tracer.Start("crawl")
	child := root.StartChild("visit")

	phases := ops.BuildStatusz(tel, nil).Phases
	if len(phases) != 1 || phases[0].Name != "crawl" || phases[0].State != "running" {
		t.Fatalf("phases mid-span = %+v", phases)
	}

	child.End()
	if phases := ops.BuildStatusz(tel, nil).Phases; len(phases) != 1 || phases[0].State != "running" {
		t.Fatalf("finished child of an open phase leaked into the ledger: %+v", phases)
	}
	root.End()
	phases = ops.BuildStatusz(tel, nil).Phases
	if len(phases) != 1 {
		t.Fatalf("child span leaked into the ledger: %+v", phases)
	}
	p := phases[0]
	if p.State != "done" || p.Runs != 1 || p.Seconds < 0 {
		t.Fatalf("phase after end = %+v", p)
	}

	// Re-entrant phase: a second root span with the same name.
	tel.Tracer.Start("crawl").End()
	if phases := ops.BuildStatusz(tel, nil).Phases; phases[0].Runs != 2 {
		t.Fatalf("re-entrant runs = %d, want 2", phases[0].Runs)
	}
}
