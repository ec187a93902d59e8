package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canvassing/internal/crawler"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
)

// testWriter builds a writer with live telemetry sources and a few
// recorded observations, so checkpoints carry real state.
func testWriter(t *testing.T, dir string) (*Writer, *obs.Telemetry) {
	t.Helper()
	tel := obs.NewTelemetry()
	tel.Metrics.Counter("crawl.visits.ok").Add(7)
	tel.Metrics.Histogram("crawl.visit.seconds", obs.LatencyBuckets()).Observe(0.25)
	tel.Events.Record(event.Event{Kind: event.VisitOutcome, Crawl: "control", Site: "a.example", Verdict: "ok"})
	w := NewWriter(dir, 64)
	w.Metrics = tel.Metrics
	w.Events = tel.Events
	return w, tel
}

// commitState fabricates a crawler commit at the given frontier.
func commitState(frontier, total int, final bool) crawler.CommitState {
	pages := make([]*crawler.PageResult, frontier)
	for i := range pages {
		pages[i] = &crawler.PageResult{Domain: "site.example", OK: true}
	}
	return crawler.CommitState{
		Condition: "control",
		Frontier:  frontier,
		Total:     total,
		Pages:     pages,
		Final:     final,
	}
}

func TestWriteLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, tel := testWriter(t, dir)
	w.Faults = netsim.NewFaultModel(9, 0.2)
	w.Faults.Force("down.example", netsim.FaultPlan{Kind: netsim.FaultOutage, Truncate: 1})
	if err := w.SetOpts(map[string]any{"seed": 9, "scale": 0.05}); err != nil {
		t.Fatal(err)
	}

	hook := w.Hook("intel-mac", "abp-sim")
	if hook(commitState(128, 600, false)) {
		t.Fatal("hook with StopAfter=0 requested a stop")
	}
	if err := w.FinishPhase("crawl.control"); err != nil {
		t.Fatal(err)
	}

	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Schema != SchemaVersion {
		t.Fatalf("schema = %d, want %d", cp.Schema, SchemaVersion)
	}
	if cp.Sequence != 2 {
		t.Fatalf("sequence = %d after two writes, want 2", cp.Sequence)
	}
	if !cp.PhaseDone("crawl.control") || cp.PhaseDone("analyze") {
		t.Fatalf("phases = %v", cp.Phases)
	}
	cs := cp.Crawl("control")
	if cs == nil {
		t.Fatal("control crawl state missing")
	}
	if cs.Frontier != 128 || cs.Total != 600 || cs.Done {
		t.Fatalf("crawl state = %+v", cs)
	}
	if cs.Machine != "intel-mac" || cs.Extension != "abp-sim" {
		t.Fatalf("machine/extension = %q/%q", cs.Machine, cs.Extension)
	}
	if len(cs.Pages) != 128 {
		t.Fatalf("pages = %d, want 128", len(cs.Pages))
	}
	if cp.Metrics.Counters["crawl.visits.ok"] != 7 {
		t.Fatalf("metrics snapshot lost counters: %v", cp.Metrics.Counters)
	}
	if len(cp.Events) != 1 || cp.EventsSeq != tel.Events.Total() {
		t.Fatalf("events = %d seq = %d", len(cp.Events), cp.EventsSeq)
	}
	if cp.Faults == nil || cp.Faults.Seed != 9 || cp.Faults.Rate != 0.2 {
		t.Fatalf("fault cursor = %+v", cp.Faults)
	}
	restored := netsim.RestoreFaultModel(*cp.Faults)
	if restored.PlanFor("down.example").Kind != netsim.FaultOutage {
		t.Fatal("forced fault plan lost in the cursor roundtrip")
	}
	if cp.Crawl("abp") != nil {
		t.Fatal("phantom crawl state")
	}
}

// TestHookStopAfter: the interruption lever. The stopping write must
// land on disk BEFORE the stop is requested, and a Final commit is
// never stopped (there is nothing left to interrupt).
func TestHookStopAfter(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	w.StopAfter = 2
	hook := w.Hook("intel-mac", "")
	if hook(commitState(64, 600, false)) {
		t.Fatal("stopped before StopAfter writes")
	}
	if !hook(commitState(128, 600, false)) {
		t.Fatal("did not stop at StopAfter writes")
	}
	if !w.Stopped() {
		t.Fatal("Stopped() false after a stop")
	}
	// The checkpoint on disk reflects the stopping commit.
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs := cp.Crawl("control"); cs == nil || cs.Frontier != 128 {
		t.Fatalf("stopping write not on disk: %+v", cp.Crawls)
	}

	w2, _ := testWriter(t, t.TempDir())
	w2.StopAfter = 1
	if w2.Hook("intel-mac", "")(commitState(600, 600, true)) {
		t.Fatal("a Final commit must never be stopped")
	}
}

// TestAdoptContinuesSequence: a resumed run's writer inherits the
// loaded state, so sequence numbers and finished phases continue
// instead of restarting.
func TestAdoptContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	hook := w.Hook("intel-mac", "")
	hook(commitState(64, 600, false))
	if err := w.FinishPhase("crawl.control"); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	w2, _ := testWriter(t, dir)
	w2.Adopt(cp)
	wantSeq := cp.Sequence + 1
	if err := w2.FinishPhase("analyze"); err != nil {
		t.Fatal(err)
	}
	cp2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Sequence != wantSeq {
		t.Fatalf("sequence = %d, want %d (continuation, not restart)", cp2.Sequence, wantSeq)
	}
	if !cp2.PhaseDone("crawl.control") || !cp2.PhaseDone("analyze") {
		t.Fatalf("phases lost across Adopt: %v", cp2.Phases)
	}
	if cp2.Crawl("control") == nil {
		t.Fatal("crawl state lost across Adopt")
	}
	// Finishing an already-finished phase must not duplicate it.
	if err := w2.FinishPhase("analyze"); err != nil {
		t.Fatal(err)
	}
	cp3, _ := Load(dir)
	count := 0
	for _, p := range cp3.Phases {
		if p == "analyze" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("phase recorded %d times", count)
	}
}

// TestAtomicSidecar: every cut appends one complete frame to the one
// journal file, so each write leaves a loadable checkpoint and the
// directory never holds anything but checkpoint.json (no temp files).
func TestAtomicSidecar(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	hook := w.Hook("intel-mac", "")
	for i := 1; i <= 5; i++ {
		hook(commitState(i*64, 600, false))
		if _, err := Load(dir); err != nil {
			t.Fatalf("write %d left an unreadable sidecar: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		t.Fatalf("dir contents = %v, want just %s", entries, FileName)
	}
}

// TestLoadToleratesRetiredSnapshotFlag: builds that had a page-body
// snapshot store wrote schema-3 frames carrying "has_snapshots":true.
// Nothing reads the flag any more, and the frame shape is otherwise
// unchanged, so such a journal must still load: a strict decoder would
// strand it without a schema bump.
func TestLoadToleratesRetiredSnapshotFlag(t *testing.T) {
	dir := t.TempDir()
	frame := fmt.Sprintf(`{"schema":%d,"seq":4,`, SchemaVersion) +
		`"opts":{"Seed":11,"Scale":0.02,"WithAdblock":true,"CheckpointEvery":100},` +
		`"metrics":{"counters":{"crawl.visits.failed":1,"crawl.visits.ok":1},"gauges":{"crawl.workers":2}},` +
		`"events_seq":0,"has_snapshots":true,` +
		`"crawls":[{"from":0,"condition":"control","total":800,"frontier":2,"machine":"intel-ubuntu","pages":[` +
		`{"Domain":"site-000001.com","Rank":1,"OK":false,"FailReason":"unreachable"},` +
		`{"Domain":"site-000002.com","Rank":2,"OK":true}]}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(frame), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(dir)
	if err != nil {
		t.Fatalf("Load refused a frame with the retired has_snapshots flag: %v", err)
	}
	cs := cp.Crawl("control")
	if cs == nil || cs.Frontier != 2 || cs.Total != 800 || len(cs.Pages) != 2 || cs.Pages[1].Domain != "site-000002.com" {
		t.Fatalf("control crawl = %+v, want 2 of 800 pages ending at site-000002.com", cs)
	}
	if cp.Sequence != 4 || cp.Metrics.Counters["crawl.visits.ok"] != 1 || len(cp.Opts) == 0 {
		t.Fatalf("head = seq %d, counters %v, opts %s", cp.Sequence, cp.Metrics.Counters, cp.Opts)
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	// A complete frame (newline-terminated): without the newline it
	// would be a torn tail and never reach the schema gate.
	data := []byte(fmt.Sprintf("{\"schema\": %d, \"seq\": 1, \"metrics\": {}}\n", SchemaVersion+1))
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil {
		t.Fatal("Load accepted a newer-schema checkpoint")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("schema v%d", SchemaVersion+1)) {
		t.Fatalf("error does not name the schema: %v", err)
	}
	if _, err := Load(t.TempDir()); err == nil {
		t.Fatal("Load invented a checkpoint in an empty directory")
	}

	// A v1 sidecar was one indented document spread over many lines;
	// it must fail cleanly, not load as a partial journal.
	v1 := "{\n  \"schema\": 1,\n  \"seq\": 3,\n  \"crawls\": [\n    {\n      \"condition\": \"control\",\n      \"total\": 600,\n      \"frontier\": 64,\n      \"pages\": []\n    }\n  ],\n  \"metrics\": {},\n  \"events_seq\": 0\n}\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a v1 multi-line checkpoint")
	}

	// A complete v2 frame is refused too: a v2 metrics snapshot holds
	// the script parse-cache counters this build no longer has, and
	// resuming one would put them back into the bundle.
	v2 := `{"schema":2,"seq":1,"crawls":[{"from":0,"condition":"control","total":2,"frontier":1,` +
		`"pages":[{"Domain":"a.example","OK":true}]}],"metrics":{"counters":{"crawl.visits.ok":1}},"events_seq":0}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, FileName), []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "schema v2") {
		t.Fatalf("Load of a complete v2 frame: err = %v, want a schema v2 refusal", err)
	}
}

// TestCheckpointJSONSafe guards the marshal path against the +Inf
// histogram-bound hazard: a registry with populated histograms (whose
// top bucket bound is +Inf) must checkpoint and reload cleanly.
func TestCheckpointJSONSafe(t *testing.T) {
	dir := t.TempDir()
	tel := obs.NewTelemetry()
	h := tel.Metrics.Histogram("crawl.visit.seconds", obs.LatencyBuckets())
	h.Observe(0.1)
	h.Observe(1e9) // lands in the +Inf bucket
	tel.Metrics.Histogram("empty.histogram", obs.LatencyBuckets())
	w := NewWriter(dir, 0)
	if w.Every() != 256 {
		t.Fatalf("default cadence = %d, want 256", w.Every())
	}
	w.Metrics = tel.Metrics
	w.Events = tel.Events
	if err := w.FinishPhase("analyze"); err != nil {
		t.Fatal(err)
	}
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Metrics.Histograms["crawl.visit.seconds"].Count != 2 {
		t.Fatal("histogram lost in roundtrip")
	}
	reg := obs.NewRegistry()
	reg.Restore(cp.Metrics)
	if got := reg.Snapshot().Histograms["crawl.visit.seconds"].Count; got != 2 {
		t.Fatalf("restored histogram count = %d, want 2", got)
	}
}
