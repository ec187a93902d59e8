package ops

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"canvassing/internal/obs"
	"canvassing/internal/obs/prom"
	"canvassing/internal/obs/window"
)

// testPlane builds a telemetry bundle with some registry state, a
// manually-driven window view, and the full ops mux.
func testPlane(t *testing.T) (*obs.Telemetry, *window.View, *httptest.Server) {
	t.Helper()
	tel := obs.NewTelemetry()
	tel.Metrics.Counter("crawl.visits.ok").Add(90)
	tel.Metrics.Counter("crawl.visits.failed").Add(10)
	tel.Metrics.Histogram("crawl.visit.seconds", obs.LatencyBuckets()).Observe(0.2)
	view := window.New(tel.Metrics, 10*time.Second)
	srv := httptest.NewServer(NewMux(tel, false, view, nil))
	t.Cleanup(srv.Close)
	return tel, view, srv
}

func get(t *testing.T, url string, hdr ...string) (int, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, string(body)
}

func TestMetricsPromEndpoint(t *testing.T) {
	_, _, srv := testPlane(t)
	code, body := get(t, srv.URL+"/metrics.prom")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if err := prom.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition from /metrics.prom: %v\n%s", err, body)
	}
	if !strings.Contains(body, "crawl_visits_ok 90") {
		t.Fatalf("missing counter:\n%s", body)
	}
}

func TestREDEndpoint(t *testing.T) {
	tel, view, srv := testPlane(t)
	t0 := time.Unix(1000, 0)
	view.SampleAt(t0)
	tel.Metrics.Counter("crawl.visits.ok").Add(10)
	view.SampleAt(t0.Add(10 * time.Second))

	code, body := get(t, srv.URL+"/red")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var red window.Snapshot
	if err := json.Unmarshal([]byte(body), &red); err != nil {
		t.Fatalf("bad /red JSON: %v\n%s", err, body)
	}
	if red.Rates["crawl.visits.ok"] != 1 {
		t.Fatalf("rate = %v, want 1/s\n%s", red.Rates["crawl.visits.ok"], body)
	}
}

func TestREDDisabled(t *testing.T) {
	tel := obs.NewTelemetry()
	srv := httptest.NewServer(NewMux(tel, false, nil, nil))
	defer srv.Close()
	if code, _ := get(t, srv.URL+"/red"); code != 404 {
		t.Fatalf("nil view /red status %d, want 404", code)
	}
}

func TestStatuszJSONWithETA(t *testing.T) {
	tel, view, srv := testPlane(t)
	tel.Status.MarkRunning()
	tel.Status.CrawlProgress("control", 100, 200, false)
	// Window shows 10 visits/s → ETA (200-100)/10 = 10s.
	t0 := time.Unix(1000, 0)
	view.SampleAt(t0)
	tel.Metrics.Counter("crawl.visits.ok").Add(100)
	view.SampleAt(t0.Add(10 * time.Second))

	sp := tel.Tracer.Start("crawl")
	defer sp.End()

	code, body := get(t, srv.URL+"/statusz")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var st Statusz
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("bad /statusz JSON: %v\n%s", err, body)
	}
	if st.State != obs.StateRunning {
		t.Fatalf("state = %q", st.State)
	}
	if len(st.Crawls) != 1 || st.Crawls[0].Frontier != 100 {
		t.Fatalf("crawls = %+v", st.Crawls)
	}
	if st.VisitRatePerSec != 10 {
		t.Fatalf("visit rate = %v", st.VisitRatePerSec)
	}
	if st.ETACondition != "control" || st.ETASeconds != 10 {
		t.Fatalf("ETA = %q %v, want control 10s", st.ETACondition, st.ETASeconds)
	}
	found := false
	for _, s := range st.ActiveSpans {
		if s.Name == "crawl" {
			found = true
		}
	}
	if !found {
		t.Fatalf("open span missing from ActiveSpans: %+v", st.ActiveSpans)
	}
	// The phase ledger is built from the tracer: the open root span
	// appears as running.
	running := false
	for _, p := range st.Phases {
		if p.Name == "crawl" && p.State == "running" {
			running = true
		}
	}
	if !running {
		t.Fatalf("phase ledger = %+v, want crawl running", st.Phases)
	}
}

func TestStatuszHTML(t *testing.T) {
	tel, _, srv := testPlane(t)
	tel.Status.MarkRunning()
	tel.Status.CrawlProgress("control", 5, 10, false)
	code, body := get(t, srv.URL+"/statusz", "Accept", "text/html")
	if code != 200 || !strings.Contains(body, "<html>") || !strings.Contains(body, "control") {
		t.Fatalf("statusz HTML: status %d\n%s", code, body)
	}
}

// TestHealthReadyTransitions walks the full lifecycle through the
// probe endpoints: init → 503, running → 200, done → 200, failed → 503.
// /healthz answers 200 throughout.
func TestHealthReadyTransitions(t *testing.T) {
	tel, _, srv := testPlane(t)
	check := func(wantReady int, state string) {
		t.Helper()
		if code, _ := get(t, srv.URL+"/healthz"); code != 200 {
			t.Fatalf("[%s] healthz = %d, want 200", state, code)
		}
		code, body := get(t, srv.URL+"/readyz")
		if code != wantReady {
			t.Fatalf("[%s] readyz = %d (%q), want %d", state, code, strings.TrimSpace(body), wantReady)
		}
	}
	check(503, "init")
	tel.Status.MarkRunning()
	check(200, "running")
	tel.Status.MarkDone()
	check(200, "done")
	tel.Status.MarkFailed()
	check(503, "failed")
}

// TestIndexListsOpsRoutes: the root page advertises the ops extras.
func TestIndexListsOpsRoutes(t *testing.T) {
	_, _, srv := testPlane(t)
	code, body := get(t, srv.URL+"/")
	if code != 200 {
		t.Fatalf("index status %d", code)
	}
	for _, want := range []string{"/metrics.prom", "/red", "/statusz", "/healthz", "/readyz", "/metrics"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index missing %s:\n%s", want, body)
		}
	}
	if code, _ := get(t, srv.URL+"/no-such-endpoint"); code != 404 {
		t.Fatalf("unknown path status %d, want 404", code)
	}
}

// TestServeLifecycle starts a real plane on :0, hits it, and shuts it
// down gracefully.
func TestServeLifecycle(t *testing.T) {
	tel := obs.NewTelemetry()
	plane, err := Serve("127.0.0.1:0", tel, false, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plane.Addr() == "" || strings.HasSuffix(plane.Addr(), ":0") {
		t.Fatalf("bound addr = %q, want a real port", plane.Addr())
	}
	if code, _ := get(t, plane.URL()+"/healthz"); code != 200 {
		t.Fatalf("healthz over real listener = %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := plane.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(plane.URL() + "/healthz"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}

// TestServeBindError: an address that cannot be bound fails
// synchronously, before anything starts.
func TestServeBindError(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", obs.NewTelemetry(), false, time.Second, nil); err == nil {
		t.Fatal("expected bind error")
	}
}

// TestStartRespectsFlags covers ops.Start: no flags → nil plane
// (whose methods are no-ops); -status → plane without pprof; -pprof
// wins over -status and adds /debug/pprof.
func TestStartRespectsFlags(t *testing.T) {
	tel := obs.NewTelemetry()

	plane, err := Start(&obs.CLI{}, tel, nil)
	if err != nil || plane != nil {
		t.Fatalf("no-flag Start = %v, %v", plane, err)
	}
	if plane.Addr() != "" || plane.Close() != nil || plane.Shutdown(context.Background()) != nil {
		t.Fatal("nil plane methods must no-op")
	}

	plane, err = Start(&obs.CLI{Status: "127.0.0.1:0", Window: time.Second}, tel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	if code, _ := get(t, plane.URL()+"/statusz"); code != 200 {
		t.Fatal("statusz not served under -status")
	}
	if code, _ := get(t, plane.URL()+"/debug/pprof/cmdline"); code != 404 {
		t.Fatal("-status must not expose pprof")
	}

	pp, err := Start(&obs.CLI{Status: "ignored", Pprof: "127.0.0.1:0"}, tel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pp.Close()
	if code, _ := get(t, pp.URL()+"/debug/pprof/cmdline"); code != 200 {
		t.Fatal("-pprof must expose pprof")
	}
	if code, _ := get(t, pp.URL()+"/statusz"); code != 200 {
		t.Fatal("-pprof must still serve the ops plane")
	}
}

// TestServeShutdownStopsServeLoop: once Shutdown returns, the serve
// loop of a ":0" plane has exited and nothing answers on its port.
func TestServeShutdownStopsServeLoop(t *testing.T) {
	plane, err := Serve("127.0.0.1:0", obs.NewTelemetry(), false, time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, plane.URL()+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	select {
	case <-plane.served:
		t.Fatal("serve loop exited before Shutdown")
	default:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := plane.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-plane.served:
	default:
		t.Fatal("serve loop still running after Shutdown returned")
	}
	if _, err := http.Get(plane.URL() + "/healthz"); err == nil {
		t.Fatal("server still answering after Shutdown")
	}
}
