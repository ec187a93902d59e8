package canvassing

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"canvassing/internal/obs"
	"canvassing/internal/obs/tracez"
)

var updateGolden = flag.Bool("update", false, "regenerate golden files")

// Volatile fragments of the telemetry report: wall-clock durations,
// histogram summaries, percentages, and the table rules/padding whose
// widths follow the duration and percentage strings (a table pads its
// last column too, so how many blanks end a row depends on timing).
// Masking them leaves the stable skeleton — section order, metric
// names, counter values, crawl stats — which is exactly what the
// golden test should pin.
var (
	histSummaryRe = regexp.MustCompile(`mean=\S+ p50=\S+ p95=\S+ max=\S+`)
	durationRe    = regexp.MustCompile(`\b[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s|m|h)\b`)
	percentRe     = regexp.MustCompile(`[0-9]+(\.[0-9]+)?%`)
	spaceRunRe    = regexp.MustCompile(`  +`)
	dashRunRe     = regexp.MustCompile(`--+`)
	trailBlankRe  = regexp.MustCompile(`(?m) +$`)
)

// normalizeVolatile masks timing-dependent substrings so the report
// compares stably across machines and runs.
func normalizeVolatile(s string) string {
	s = histSummaryRe.ReplaceAllString(s, "mean=X p50=X p95=X max=X")
	s = durationRe.ReplaceAllString(s, "DUR")
	s = percentRe.ReplaceAllString(s, "PCT")
	s = spaceRunRe.ReplaceAllString(s, "  ")
	s = dashRunRe.ReplaceAllString(s, "--")
	s = trailBlankRe.ReplaceAllString(s, "")
	return s
}

// TestNormalizePhaseTablePadding: two phase tables whose only
// difference is how wide a share is (5.0% against 15.0%, so the row is
// padded with two blanks or one) must normalize to the same text, or
// the golden above flips whenever a phase crosses 10% of the run.
func TestNormalizePhaseTablePadding(t *testing.T) {
	table := func(webgen time.Duration) string {
		t0 := time.Unix(0, 0)
		return tracez.PhaseTimings([]obs.SpanRecord{
			{ID: 1, Name: "webgen", Start: t0, Duration: webgen},
			{ID: 2, Name: "crawl.control", Start: t0.Add(webgen), Duration: 100*time.Millisecond - webgen},
		})
	}
	narrow, wide := table(5*time.Millisecond), table(15*time.Millisecond)
	if !strings.Contains(narrow, "5.0%  \n") || !strings.Contains(wide, "15.0% \n") {
		t.Fatalf("fixture no longer pads the share column:\n%s\n%s", narrow, wide)
	}
	if a, b := normalizeVolatile(narrow), normalizeVolatile(wide); a != b {
		t.Errorf("phase tables differing only in share width normalize apart:\n%q\n%q", a, b)
	}
}

// TestTelemetryReportGolden pins the shape of Study.TelemetryReport():
// the crawl summary lines, phase-timing table rows, and the full metric
// name set with their deterministic counter values. The crawler's
// ordered-commit pipeline makes those counters identical at any pool
// width (TestCrawlTelemetryWidthInvariant pins that); Workers stays 1
// here only to keep the fixture's history stable. Run with -update
// after an intentional format change.
func TestTelemetryReportGolden(t *testing.T) {
	s := New(Options{Seed: 11, Scale: 0.02, Workers: 1})
	s.RunControl()
	s.Analyze()
	got := normalizeVolatile(s.TelemetryReport())

	goldenPath := filepath.Join("testdata", "telemetry_report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("telemetry report drifted from golden file.\ndiff hint: got %d bytes, want %d bytes.\n--- got ---\n%s\nRe-run with -update if the change is intentional.",
			len(got), len(want), got)
	}

	// Sanity beyond the byte compare: the masked report still carries
	// the sections readers rely on, and the analysis pass's phase and
	// counters.
	for _, substr := range []string{"Control crawl", "Phase timings",
		"analyze.control", "analysis.canvases",
		"Metrics", "crawl.visits.ok"} {
		if !strings.Contains(got, substr) {
			t.Fatalf("report lost section %q", substr)
		}
	}
}
