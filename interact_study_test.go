package canvassing

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"canvassing/internal/services"
)

// The interaction engine's study-level contracts:
//
//  1. Width invariance — an interaction-enabled study must produce
//     byte-identical deterministic bundle artifacts at any crawl pool
//     width. The engine runs inside visit(), so its
//     telemetry (interact metrics, interact.dispatch events, the EX3
//     re-crawl's analysis events) rides the same ordered-commit
//     pipeline the oracle in determinism_test.go pins for load-time
//     crawls; this is the oracle for the new axis.
//
//  2. Interrupt/resume — a checkpointed interaction study interrupted
//     mid-control-crawl and resumed must reproduce the uninterrupted
//     bundle, EX3 re-crawl included.
//
//  3. Zero-residue off switch — with Options.Interact false, no bundle
//     artifact and no generated site may carry any trace of the
//     engine: no deferred deployments, no interact metrics, no
//     interact.dispatch events, no EX3 report section. Together with
//     the existing determinism oracle this pins the "Interact=false is
//     byte-identical to builds without the engine" guarantee.

// interactOpts is the shared run shape: small web, fault injection on
// one seed so dispatches interleave with retries, tracing on because
// exemplar capture must stay invisible.
func interactOpts(seed uint64, workers int, fault float64) Options {
	return Options{
		Seed:        seed,
		Scale:       0.02,
		Workers:     workers,
		FaultRate:   fault,
		TraceVisits: true,
		Interact:    true,
	}
}

// interactBundle runs the interaction pipeline (control crawl, full
// analysis, and — via the report render — the EX3 interaction
// re-crawl) and writes its bundle.
func interactBundle(t *testing.T, seed uint64, workers int, fault float64) string {
	t.Helper()
	s := Run(interactOpts(seed, workers, fault))
	// Force the lazy EX3 re-crawl through the same width under test;
	// WriteBundle's report render would do this anyway, but being
	// explicit keeps the test honest if report sections move.
	s.InteractionGap()
	return writeBundleDir(t, s)
}

func TestInteractDispatchWidthInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the interaction pipeline at several widths")
	}
	cases := []struct {
		seed  uint64
		fault float64
	}{
		{seed: 7, fault: 0},
		{seed: 42, fault: 0.35},
	}
	for _, c := range cases {
		refDir := interactBundle(t, c.seed, 1, c.fault)
		for _, width := range []int{8} {
			gotDir := interactBundle(t, c.seed, width, c.fault)
			for _, name := range []string{"events.jsonl", "report.txt"} {
				want := readFile(t, refDir, name)
				got := readFile(t, gotDir, name)
				if !bytes.Equal(got, want) {
					t.Errorf("seed %d width %d: %s diverges from serial (%d vs %d bytes; first diff at %d)",
						c.seed, width, name, len(got), len(want), firstDiff(got, want))
				}
			}
			// The manifest records the pool width and the metrics carry
			// the width gauge/utilization histogram; mask those exactly
			// as the crawl-width oracle in internal/crawler does and
			// require everything else to match.
			want := maskWidth(t, readFile(t, refDir, "manifest.json"))
			got := maskWidth(t, readFile(t, gotDir, "manifest.json"))
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d width %d: manifest diverges beyond the workers field\n got: %s\nwant: %s",
					c.seed, width, got, want)
			}
			want = maskWidth(t, deterministicMetrics(t, refDir))
			got = maskWidth(t, deterministicMetrics(t, gotDir))
			if !bytes.Equal(got, want) {
				t.Errorf("seed %d width %d: deterministic metrics diverge\n got: %s\nwant: %s",
					c.seed, width, got, want)
			}
		}
		// The oracle is vacuous unless the run actually dispatched.
		ev := readFile(t, refDir, "events.jsonl")
		if !bytes.Contains(ev, []byte(`"interact.dispatch"`)) {
			t.Fatalf("seed %d: no interact.dispatch events; the width oracle tested nothing", c.seed)
		}
	}
}

// maskWidth strips the only values legitimately tied to the crawl pool
// width — the manifest's workers field, the crawl.workers gauge, and
// the worker-utilization histogram — and re-marshals with sorted keys
// so the rest of the document compares byte-for-byte.
func maskWidth(t *testing.T, doc []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	var strip func(any)
	strip = func(n any) {
		switch m := n.(type) {
		case map[string]any:
			delete(m, "workers")
			delete(m, "crawl.workers")
			delete(m, "crawl.worker.utilization")
			for _, c := range m {
				strip(c)
			}
		case []any:
			for _, c := range m {
				strip(c)
			}
		}
	}
	strip(v)
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestInteractResumeOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the interaction pipeline three times")
	}
	opts := interactOpts(7, 8, 0.35)
	opts.CheckpointEvery = 100

	// Baseline: uninterrupted.
	base := opts
	base.CheckpointDir = t.TempDir()
	ref := checkpointedRun(base, 0)
	if ref.Halted {
		t.Fatal("baseline halted without a StopAfter")
	}
	refDir := writeBundleDir(t, ref)

	// Interrupt mid-control-crawl, then resume.
	ckptDir := t.TempDir()
	cut := opts
	cut.CheckpointDir = ckptDir
	interrupted := checkpointedRun(cut, 4)
	if !interrupted.Halted {
		t.Fatal("StopAfter 4 did not interrupt the study")
	}
	resumed, err := Resume(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Options.Interact {
		t.Fatal("resume dropped Options.Interact")
	}
	gotDir := writeBundleDir(t, resumed)

	for _, name := range []string{"manifest.json", "events.jsonl", "report.txt"} {
		want := readFile(t, refDir, name)
		got := readFile(t, gotDir, name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs after resume (%d vs %d bytes; first diff at %d)",
				name, len(got), len(want), firstDiff(got, want))
		}
	}
	if got, want := deterministicMetrics(t, gotDir), deterministicMetrics(t, refDir); !bytes.Equal(got, want) {
		t.Errorf("deterministic metrics differ after resume\n got: %s\nwant: %s", got, want)
	}
}

func TestInteractOffLeavesNoResidue(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	opts := interactOpts(7, 4, 0)
	opts.Interact = false
	s := Run(opts)
	dir := writeBundleDir(t, s)

	// No deferred deployment may exist in the generated world, and no
	// site may reference a deferred vendor's host.
	for domain, deps := range s.Web.Truth {
		for _, d := range deps {
			if d.Deferred {
				t.Fatalf("Interact=false planted deferred vendor %s on %s", d.VendorSlug, domain)
			}
		}
	}
	patterns := make([]string, 0, 4)
	for _, v := range services.Deferred() {
		patterns = append(patterns, v.URLPattern)
	}
	for _, site := range s.Web.Sites {
		for _, sc := range site.Scripts {
			for _, pat := range patterns {
				if strings.Contains(sc.URL.Host, pat) {
					t.Fatalf("Interact=false site %s references deferred host %s", site.Domain, sc.URL.Host)
				}
			}
		}
	}

	// No bundle artifact may mention the engine.
	for _, name := range []string{"events.jsonl", "report.txt", "metrics.deterministic.json"} {
		var body []byte
		if name == "metrics.deterministic.json" {
			body = deterministicMetrics(t, dir)
		} else {
			body = readFile(t, dir, name)
		}
		if bytes.Contains(bytes.ToLower(body), []byte("interact")) {
			t.Errorf("Interact=false left engine residue in %s", name)
		}
	}
}

// TestInteractionGapReportsGap pins the experiment's headline: on an
// interaction-enabled web the EX3 result must report a nonzero
// population of interaction-only fingerprinters, attribute at least one
// gated vendor, and attribute nothing to timer-deferred Forter (the
// settle drain already surfaces it at load time).
func TestInteractionGapReportsGap(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline plus the EX3 re-crawl")
	}
	s := Run(interactOpts(7, 4, 0))
	r := s.InteractionGap()
	if len(r.InteractionOnly) == 0 {
		t.Fatal("no interaction-only fingerprinting sites at smoke scale")
	}
	if r.InteractFPPop+r.InteractFPTail <= r.LoadFPPop+r.LoadFPTail {
		t.Fatalf("interaction crawl found no lift: load %d vs interact %d",
			r.LoadFPPop+r.LoadFPTail, r.InteractFPPop+r.InteractFPTail)
	}
	attributed := 0
	for _, v := range r.Vendors {
		if v.Name == "Forter" && v.Sites != 0 {
			t.Errorf("timer-deferred Forter attributed %d interaction-only sites", v.Sites)
		}
		attributed += v.Sites
	}
	if attributed == 0 {
		t.Error("no interaction-only site attributed to any gated vendor")
	}
	// Memoized: the second call must not re-crawl (same pointer data).
	again := s.InteractionGap()
	if len(again.InteractionOnly) != len(r.InteractionOnly) {
		t.Error("InteractionGap is not stable across calls")
	}
}
