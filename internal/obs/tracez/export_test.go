package tracez

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"canvassing/internal/obs"
)

// TestExportRoundTrip: write → read preserves the stream summaries,
// the retained trees (structure and labels included), and the picked
// classification.
func TestExportRoundTrip(t *testing.T) {
	r := NewReservoir(3, 4, 4)
	for i := 0; i < 50; i++ {
		vt := mkVisit("control", domainOf(i), i, int64((i*13)%40))
		vt.Root.Children = []*Span{{Name: "connect", Wall: ms, Labels: map[string]string{"fault": "outage"}}}
		r.Offer(vt)
	}
	bt := mkVisit("analyze.control", "shard-0000", 0, 7)
	bt.Kind = "batch"
	r.Offer(bt)

	dir := t.TempDir()
	path := filepath.Join(dir, ExemplarsFile)
	if err := WriteExemplars(path, r); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadExemplars(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Schema != SchemaVersion {
		t.Fatalf("schema = %d", ex.Schema)
	}
	if len(ex.Conditions) != 2 {
		t.Fatalf("conditions = %+v", ex.Conditions)
	}
	want := r.Snapshot()
	for i, ce := range ex.Conditions {
		w := want[i]
		if ce.Condition != w.Condition || ce.Kind != w.Kind || ce.Offered != w.Offered ||
			ce.CostSum != w.CostSum || ce.MaxCost != w.MaxCost {
			t.Fatalf("condition %d summary: %+v vs %+v", i, ce, w)
		}
		if len(ce.Slow) != len(w.Slow) || len(ce.Head) != len(w.Head) {
			t.Fatalf("condition %d exemplar counts: %d/%d vs %d/%d",
				i, len(ce.Slow), len(ce.Head), len(w.Slow), len(w.Head))
		}
		for j := range ce.Slow {
			if ce.Slow[j].Domain != w.Slow[j].Domain || ce.Slow[j].Cost != w.Slow[j].Cost {
				t.Fatalf("slow[%d] diverged: %+v vs %+v", j, ce.Slow[j], w.Slow[j])
			}
		}
	}
	// Tree structure and labels survive the round trip.
	ctl := ex.Conditions[0]
	if len(ctl.Slow[0].Root.Children) != 1 || ctl.Slow[0].Root.Children[0].Labels["fault"] != "outage" {
		t.Fatalf("tree lost in round trip: %+v", ctl.Slow[0].Root)
	}

	// A sidecar from before the phase report moved to trace.jsonl ends
	// with a critical_path trailer; it still loads, trailer skipped.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"critical_path":{"roots":2,"total_wall_ns":600000000}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if old, err := ReadExemplars(path); err != nil || len(old.Conditions) != len(ex.Conditions) {
		t.Fatalf("sidecar with trailer: %v, %+v", err, old)
	}

	// Selection-relevant views over the decoded export.
	if got := ex.Slowest(3); len(got) != 3 || got[0].Cost < got[1].Cost {
		t.Fatalf("Slowest = %+v", got)
	}
	if forest := ex.VisitForest(); len(forest) != len(ctl.Slow)+len(ctl.Head) {
		t.Fatalf("visit forest = %d trees", len(forest))
	}
}

func domainOf(i int) string {
	return string(rune('a'+i%26)) + "-site.com"
}

// TestWriteExemplarsNilReservoir: the nil path is how every binary
// calls WriteExemplars when -tracez is off — no file, no error.
func TestWriteExemplarsNilReservoir(t *testing.T) {
	path := filepath.Join(t.TempDir(), ExemplarsFile)
	if err := WriteExemplars(path, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("nil reservoir must not create the sidecar")
	}
}

func TestReadExemplarsSchemaGate(t *testing.T) {
	path := filepath.Join(t.TempDir(), ExemplarsFile)
	if err := os.WriteFile(path, []byte(`{"tracez_schema":999,"conditions":[]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExemplars(path); err == nil {
		t.Fatal("future schema must be rejected")
	}
}

// TestLoadRunDir: trace.jsonl is required, the sidecar optional — the
// exact contract tracescope depends on for runs made without -tracez.
func TestLoadRunDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadRunDir(dir); err == nil {
		t.Fatal("missing trace.jsonl must error")
	}
	var buf bytes.Buffer
	tr := obs.NewTracer()
	tr.Start("crawl.control").End()
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, obs.TraceFile), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rd, err := LoadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rd.Phases) != 1 || rd.Export != nil {
		t.Fatalf("rundir = %+v", rd)
	}

	r := NewReservoir(1, 2, 2)
	r.Offer(mkVisit("control", "x.com", 0, 5))
	if err := WriteExemplars(filepath.Join(dir, ExemplarsFile), r); err != nil {
		t.Fatal(err)
	}
	rd, err = LoadRunDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Export == nil || len(rd.Export.Conditions) != 1 {
		t.Fatalf("sidecar not loaded: %+v", rd.Export)
	}
}
