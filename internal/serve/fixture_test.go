package serve

import (
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"canvassing"
	"canvassing/internal/blocklist"
	"canvassing/internal/bundle"
	"canvassing/internal/detect"
	"canvassing/internal/imaging"
	"canvassing/internal/obs/event"
)

// The fixtures live in the package's own tests so that tests of
// unexported code can use them; package serve_test reaches them
// through the exported names below.

// fixture is one real (small) study, run once per test binary.
var fixture struct {
	once     sync.Once
	dir      string
	lists    *blocklist.StandardLists
	canvases []detect.CanvasInfo
	err      error
}

// FixtureDir runs the shared study (seed 11, the serve-smoke
// parameters) and returns its bundle directory.
func FixtureDir(tb testing.TB) string {
	tb.Helper()
	fixture.once.Do(func() {
		dir, err := os.MkdirTemp("", "serve-fixture")
		if err != nil {
			fixture.err = err
			return
		}
		st := canvassing.Run(canvassing.Options{
			Seed: 11, Scale: 0.02, Workers: 2, WithAdblock: true,
		})
		if err := st.WriteBundle(dir); err != nil {
			fixture.err = err
			return
		}
		fixture.dir = dir
		fixture.lists = canvassing.ListsForSeed(11)
		for i := range st.Sites {
			fixture.canvases = append(fixture.canvases, st.Sites[i].All...)
		}
	})
	if fixture.err != nil {
		tb.Fatal(fixture.err)
	}
	return fixture.dir
}

// FixtureCanvases returns every extraction the shared study's control
// crawl recorded, data URL and verdict included, in crawl order.
func FixtureCanvases(tb testing.TB) []detect.CanvasInfo {
	tb.Helper()
	FixtureDir(tb)
	return fixture.canvases
}

// FixtureService loads a service over the shared study's bundle. The
// blocklists are built once and shared: they are read-only after
// construction.
func FixtureService(tb testing.TB, window time.Duration) *Service {
	tb.Helper()
	svc, err := Load(Config{
		Dir:      FixtureDir(tb),
		Window:   window,
		ListsFor: func(uint64) *blocklist.StandardLists { return fixture.lists },
	})
	if err != nil {
		tb.Fatal(err)
	}
	return svc
}

// APIMux mounts just the verdict API routes (no ops plane, no
// listener) for in-process request tests.
func APIMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()
	for _, r := range s.Routes() {
		mux.Handle(r.Pattern, r.Handler)
	}
	return mux
}

// RemoveFixture deletes the shared study's bundle directory, if one was
// written.
func RemoveFixture() {
	if fixture.dir != "" {
		os.RemoveAll(fixture.dir)
	}
}

// HandBuiltService serves a hand-built in-memory bundle (no study run,
// no disk), the fuzzers' fixture: iterations must be cheap, and the
// interesting surface is the request parsing, not the index contents.
func HandBuiltService(window time.Duration) (*Service, error) {
	b := &bundle.Bundle{Manifest: bundle.Manifest{Seed: 1, Scale: 0.01, Conditions: []string{"control"}}}
	b.Events = []event.Event{
		{Kind: event.DetectClassify, Crawl: "control", Site: "a.example", Subject: "hash-fp",
			Verdict: "fingerprintable", Detail: detect.EventDetail("https://t.example/fp.js", 240, 60, imaging.PNG)},
		{Kind: event.DetectClassify, Crawl: "control", Site: "b.example", Subject: "hash-small",
			Verdict: "excluded", Evidence: "small-canvas", Detail: detect.EventDetail("https://t.example/px.js", 4, 4, imaging.PNG)},
		{Kind: event.ClusterAssign, Site: "a.example", Subject: "hash-fp", Detail: "popular"},
		{Kind: event.AttribEvidence, Subject: "hash-fp", Verdict: "acme", Evidence: "demo-hash"},
		{Kind: event.BlocklistMatch, Crawl: "abp", Site: "a.example", Subject: "https://t.example/fp.js",
			Verdict: "blocked", Evidence: "||t.example^", Detail: "EasyList"},
	}
	return New(b, Config{
		Window:   window,
		ListsFor: func(uint64) *blocklist.StandardLists { return blocklist.NewStandardLists(1) },
	})
}
