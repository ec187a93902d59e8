package bundle

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canvassing/internal/checkpoint"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
)

// fixtureTelemetry builds a telemetry whose event log covers two crawl
// conditions and whose registry has a counter and a histogram.
func fixtureTelemetry() *obs.Telemetry {
	tel := obs.NewTelemetry()
	tel.Metrics.Counter("crawl.visits.ok").Add(7)
	tel.Metrics.Histogram("crawl.visit.seconds", obs.LatencyBuckets()).Observe(0.25)
	sp := tel.Tracer.Start("crawl")
	sp.End()
	for _, e := range []event.Event{
		{Kind: event.DetectClassify, Crawl: "control", Site: "a.com", Subject: "h1", Verdict: "fingerprintable"},
		{Kind: event.DetectClassify, Crawl: "control", Site: "b.com", Subject: "h2", Verdict: "fingerprintable"},
		{Kind: event.DetectClassify, Crawl: "abp", Site: "a.com", Subject: "h1", Verdict: "fingerprintable"},
		{Kind: event.BlocklistMatch, Crawl: "abp", Site: "b.com", Subject: "https://t.example/fp.js", Verdict: "blocked", Evidence: "||t.example^", Detail: "EasyList"},
		{Kind: event.AttribEvidence, Site: "a.com", Verdict: "acme", Evidence: "demo-hash"},
		{Kind: event.AttribEvidence, Site: "b.com", Verdict: "acme", Evidence: "url-pattern"},
	} {
		tel.Events.Record(e)
	}
	return tel
}

func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tel := fixtureTelemetry()
	m := Manifest{Seed: 42, Scale: 0.05, Workers: 4, Notes: "test"}
	if err := Write(dir, m, tel); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestFile, MetricsFile, obs.TraceFile, EventsFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("bundle file %s missing: %v", name, err)
		}
	}
	if err := WriteReport(dir, "report.txt", "hello"); err != nil {
		t.Fatal(err)
	}

	b, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Seed != 42 || b.Manifest.Scale != 0.05 || b.Manifest.Workers != 4 {
		t.Fatalf("manifest params lost: %+v", b.Manifest)
	}
	if b.Manifest.BundleSchema != SchemaVersion || b.Manifest.EventSchema != event.SchemaVersion {
		t.Fatalf("schema stamps wrong: %+v", b.Manifest)
	}
	if b.Manifest.GoVersion == "" {
		t.Fatal("go version not stamped")
	}
	if got := strings.Join(b.Manifest.Conditions, ","); got != "abp,control" {
		t.Fatalf("conditions = %q", got)
	}
	if b.Manifest.Events != 6 || len(b.Events) != 6 {
		t.Fatalf("events = %d/%d, want 6", b.Manifest.Events, len(b.Events))
	}
	if b.Metrics.Counters["crawl.visits.ok"] != 7 {
		t.Fatalf("metrics lost: %+v", b.Metrics.Counters)
	}
	if b.Metrics.Histograms["crawl.visit.seconds"].Count != 1 {
		t.Fatal("histogram snapshot lost")
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, Manifest{}, fixtureTelemetry()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	hacked := strings.Replace(string(raw), `"bundle_schema": 1`, `"bundle_schema": 99`, 1)
	if hacked == string(raw) {
		t.Fatal("test setup: schema field not found")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(hacked), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("newer bundle schema must be rejected, got %v", err)
	}
}

// TestLoadRejectsCheckpointedDir is the stale-verdict regression test:
// a directory holding a checkpoint.json sidecar belongs to an
// interrupted study, and Load must refuse it (serving half-finished
// artifacts silently gives wrong answers) while LoadPartial still
// opens it for deliberate inspection (cmd/runsdiff).
func TestLoadRejectsCheckpointedDir(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, Manifest{Seed: 1}, fixtureTelemetry()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, CheckpointSidecar), []byte(`{"schema":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load must reject a dir holding a checkpoint sidecar")
	}
	if !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("error must wrap ErrCheckpointed, got %v", err)
	}
	if !strings.Contains(err.Error(), "resume") {
		t.Fatalf("error should tell the operator to resume the run, got %v", err)
	}
	if _, err := LoadPartial(dir); err != nil {
		t.Fatalf("LoadPartial must still open it: %v", err)
	}
	// Removing the sidecar makes the same dir loadable again.
	if err := os.Remove(filepath.Join(dir, CheckpointSidecar)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Fatalf("Load after sidecar removal: %v", err)
	}
}

// TestCheckpointSidecarNameAgrees pins the duplicated file-name
// constant to the one internal/checkpoint actually writes.
func TestCheckpointSidecarNameAgrees(t *testing.T) {
	if CheckpointSidecar != checkpoint.FileName {
		t.Fatalf("bundle.CheckpointSidecar = %q, checkpoint.FileName = %q", CheckpointSidecar, checkpoint.FileName)
	}
}

func TestDiffFlipsAndChanges(t *testing.T) {
	a := &Bundle{Events: []event.Event{
		{Kind: event.DetectClassify, Crawl: "control", Site: "a.com", Verdict: "fingerprintable"},
		{Kind: event.DetectClassify, Crawl: "control", Site: "b.com", Verdict: "fingerprintable"},
		{Kind: event.DetectClassify, Crawl: "control", Site: "c.com", Verdict: "excluded", Evidence: "small-canvas"},
		{Kind: event.AttribEvidence, Site: "a.com", Verdict: "acme", Evidence: "demo-hash"},
	}}
	a.Metrics.Counters = map[string]int64{"crawl.scripts.blocked": 0}
	b := &Bundle{Events: []event.Event{
		{Kind: event.DetectClassify, Crawl: "abp", Site: "b.com", Verdict: "fingerprintable"},
		{Kind: event.DetectClassify, Crawl: "abp", Site: "c.com", Verdict: "fingerprintable"},
		{Kind: event.AttribEvidence, Site: "a.com", Verdict: "acme", Evidence: "demo-hash"},
		{Kind: event.AttribEvidence, Site: "a.com", Verdict: "other", Evidence: "url-pattern"},
	}}
	b.Metrics.Counters = map[string]int64{"crawl.scripts.blocked": 12}

	d := Compute(a, b, "control", "abp")
	if d.FPSitesA != 2 || d.FPSitesB != 2 {
		t.Fatalf("fp sites = %d/%d, want 2/2", d.FPSitesA, d.FPSitesB)
	}
	// a.com lost, c.com gained; b.com stable.
	if d.Lost() != 1 || d.Gained() != 1 {
		t.Fatalf("flips = %d lost %d gained: %+v", d.Lost(), d.Gained(), d.Flips)
	}
	if d.Flips[0].Site != "a.com" || d.Flips[0].Direction != "lost" {
		t.Fatalf("flip order wrong: %+v", d.Flips)
	}
	// The flip identity: lost - gained == fpA - fpB.
	if d.Lost()-d.Gained() != d.FPSitesA-d.FPSitesB {
		t.Fatal("flip identity broken")
	}
	if len(d.AttribChanges) != 1 || d.AttribChanges[0].Site != "a.com" ||
		d.AttribChanges[0].Before != "acme" || d.AttribChanges[0].After != "acme+other" {
		t.Fatalf("attrib changes wrong: %+v", d.AttribChanges)
	}
	if len(d.CounterDeltas) != 1 || d.CounterDeltas[0].Name != "crawl.scripts.blocked" {
		t.Fatalf("counter deltas wrong: %+v", d.CounterDeltas)
	}

	text := d.Render()
	for _, want := range []string{"verdict flips", "lost", "a.com", "gained", "c.com", "attribution changes", "crawl.scripts.blocked"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

func TestDiffHistogramRegressions(t *testing.T) {
	mk := func(mean float64) *Bundle {
		b := &Bundle{}
		b.Metrics.Histograms = map[string]obs.HistogramSnapshot{
			"crawl.visit.seconds": {Count: 10, Sum: mean * 10},
		}
		return b
	}
	d := Compute(mk(0.1), mk(0.2), "control", "control")
	if len(d.HistDeltas) != 1 || d.HistDeltas[0].RelPct != 100 {
		t.Fatalf("regression not flagged: %+v", d.HistDeltas)
	}
	d = Compute(mk(0.1), mk(0.11), "control", "control")
	if len(d.HistDeltas) != 0 {
		t.Fatalf("10%% drift must not be flagged: %+v", d.HistDeltas)
	}
}
