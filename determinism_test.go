package canvassing

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"canvassing/internal/bundle"
	"canvassing/internal/crawler"
	"canvassing/internal/obs/event"
)

// The determinism oracle: the crawler's pool width must be invisible
// in every serialized artifact of a whole study. For each seed the
// serial crawl (Workers=1) writes a reference bundle, and crawls at
// widths {2, 8} must reproduce it exactly — events.jsonl and report.txt
// byte for byte, and manifest.json and metrics.json in their
// deterministic projection with the width itself masked (maskWidth:
// the manifest's workers field and the crawl.workers gauge; histogram
// sums/extremes/buckets are wall-clock and vary between ANY two runs,
// serial ones included — see bundle.DeterministicMetrics). Two of the
// seeds crawl under fault injection so the oracle covers degraded
// pages, retries, and visit.outcome events.
//
// This test runs in the default `go test ./...` sweep and therefore
// joins `make check`.

// oracleCase pairs a seed with a fault rate; nonzero rates must
// produce degraded pages or the fault half of the oracle is vacuous.
type oracleCase struct {
	seed  uint64
	fault float64
}

// Rates are chosen per seed so the crawl actually produces degraded
// (truncated-but-partially-loaded) pages, which are rare at this
// scale: plans that truncate AND leave surviving scripts need a high
// plan rate to show up in an 800-site web.
var oracleCases = []oracleCase{
	{seed: 1, fault: 0},
	{seed: 7, fault: 0.5},
	{seed: 42, fault: 0.35},
}

var oracleWidths = []int{2, 8}

// oracleBundle runs the full pipeline (control + adblock re-crawls +
// every experiment the bundle's report.txt triggers) at the given
// crawler width and writes its bundle to a temp dir.
func oracleBundle(t *testing.T, c oracleCase, workers int) (string, *Study) {
	t.Helper()
	s := Run(Options{
		Seed:        c.seed,
		Scale:       0.02,
		Workers:     workers,
		WithAdblock: true,
		FaultRate:   c.fault,
		// Per-visit tracing stays on in the oracle: capturing exemplar
		// trees must never move a bundle byte.
		TraceVisits: true,
	})
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := s.WriteBundle(dir); err != nil {
		t.Fatal(err)
	}
	return dir, s
}

// readFile loads one bundle artifact.
func readFile(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// deterministicMetrics loads a bundle's metrics.json and projects it.
func deterministicMetrics(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := bundle.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return bundle.DeterministicMetrics(b.Metrics)
}

func TestAnalysisDeterminismOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline 9 times")
	}
	for _, c := range oracleCases {
		refDir, refStudy := oracleBundle(t, c, 1)
		refManifest := maskWidth(t, readFile(t, refDir, "manifest.json"))
		refEvents := readFile(t, refDir, "events.jsonl")
		refReport := readFile(t, refDir, "report.txt")
		refMetrics := maskWidth(t, deterministicMetrics(t, refDir))
		if len(refEvents) == 0 {
			t.Fatalf("seed %d: serial reference recorded no events", c.seed)
		}
		if c.fault > 0 {
			// The faulted seeds must actually exercise degradation, or
			// this oracle proves nothing about the resilience path.
			if st := refStudy.Control.Stats().Total; st.Degraded == 0 || st.Failed == 0 {
				t.Fatalf("seed %d rate %.2f: no degraded/failed pages (degraded=%d failed=%d)",
					c.seed, c.fault, st.Degraded, st.Failed)
			}
		}
		for _, w := range oracleWidths {
			dir, _ := oracleBundle(t, c, w)
			if got := maskWidth(t, readFile(t, dir, "manifest.json")); !bytes.Equal(got, refManifest) {
				t.Errorf("seed %d width %d: manifest.json differs from serial\n got: %s\nwant: %s",
					c.seed, w, got, refManifest)
			}
			if got := readFile(t, dir, "events.jsonl"); !bytes.Equal(got, refEvents) {
				t.Errorf("seed %d width %d: events.jsonl differs from serial (%d vs %d bytes); first divergence at byte %d",
					c.seed, w, len(got), len(refEvents), firstDiff(got, refEvents))
			}
			if got := maskWidth(t, deterministicMetrics(t, dir)); !bytes.Equal(got, refMetrics) {
				t.Errorf("seed %d width %d: deterministic metrics differ from serial\n got: %s\nwant: %s",
					c.seed, w, got, refMetrics)
			}
			// report.txt carries every rendered experiment; it has no
			// wall-clock content, so it must reproduce too.
			if got := readFile(t, dir, "report.txt"); !bytes.Equal(got, refReport) {
				t.Errorf("seed %d width %d: report.txt differs from serial", c.seed, w)
			}
		}
	}
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestDisplayListMemoOracle: the study's display-list memo and call
// memo must be invisible. With the display-list memo a repeated
// drawing's toDataURL is served without a replay, and an E8 extraction
// whose hooked pixels were encoded before is served without an encode;
// without it every extraction replays its element's display list and
// encodes.
// With the call memo a pure script function called again with the same
// arguments returns without running. The study runs with neither memo,
// with both, and with the display-list memo alone; all three must write
// byte-identical bundles and record identical extractions, Seq
// included, on every page of every crawl. A replay that reached the
// page's tracer would shift Seq here. The report is rendered before the
// bundle is written, so events.jsonl carries E8's randomize.verdict
// events, each with its site's extraction and distinct-URL counts.
func TestDisplayListMemoOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline three times per seed")
	}
	for _, seed := range []uint64{3, 11} {
		run := func(memo, calls bool) (string, *Study) {
			s := New(Options{Seed: seed, Scale: 0.02, Workers: 2, WithAdblock: true, WithM1: true})
			if !memo {
				s.memo = nil
			}
			if !calls {
				s.calls = nil
			}
			s.RunControl()
			s.Analyze()
			s.RunAdblock()
			s.RunM1()
			s.RenderAll()
			dir := filepath.Join(t.TempDir(), "bundle")
			if err := s.WriteBundle(dir); err != nil {
				t.Fatal(err)
			}
			return dir, s
		}
		refDir, ref := run(false, false)
		if !bytes.Contains(readFile(t, refDir, "events.jsonl"), []byte(event.RandomizeVerdict)) {
			t.Fatalf("seed %d: the bundle holds no %s events", seed, event.RandomizeVerdict)
		}
		for _, calls := range []bool{true, false} {
			dir, s := run(true, calls)
			for _, name := range []string{"manifest.json", "events.jsonl", "report.txt"} {
				if got, want := readFile(t, dir, name), readFile(t, refDir, name); !bytes.Equal(got, want) {
					t.Errorf("seed %d, call memo %v: %s differs with the memos; first divergence at byte %d", seed, calls, name, firstDiff(got, want))
				}
			}
			if got, want := deterministicMetrics(t, dir), deterministicMetrics(t, refDir); !bytes.Equal(got, want) {
				t.Errorf("seed %d, call memo %v: deterministic metrics differ with the memos\n got: %s\nwant: %s", seed, calls, got, want)
			}
			// A memo hit returns the string the miss stored, so equal URLs
			// sharing their bytes count the hits the memo served.
			first, shared := map[string]*byte{}, 0
			for i, pair := range [][2]*crawler.Result{{ref.Control, s.Control}, {ref.ABP, s.ABP}, {ref.UBO, s.UBO}, {ref.M1, s.M1}} {
				for j, p := range pair[0].Pages {
					got := pair[1].Pages[j].Extractions
					if !reflect.DeepEqual(p.Extractions, got) {
						t.Fatalf("seed %d crawl %d page %s: extractions differ with the memos", seed, i, p.Domain)
					}
					for _, e := range got {
						if b, ok := first[e.DataURL]; !ok {
							first[e.DataURL] = unsafe.StringData(e.DataURL)
						} else if b == unsafe.StringData(e.DataURL) {
							shared++
						}
					}
				}
			}
			if shared == 0 {
				t.Fatalf("seed %d: the memo served no extraction", seed)
			}
		}
	}
}
