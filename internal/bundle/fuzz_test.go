package bundle

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzBundleLoad: Load on arbitrary manifest.json, events.jsonl and
// metrics.json bytes — what `serve -bundle` and runsdiff read from
// disk — returns an error or a bundle that Compute, Render and
// RenderComparison take without a panic, and that a diff against
// itself finds unchanged.
func FuzzBundleLoad(f *testing.F) {
	fixture := func(run, name string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", run, name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, run := range []string{"run_a", "run_b"} {
		f.Add(fixture(run, ManifestFile), fixture(run, EventsFile), fixture(run, MetricsFile))
	}
	manifest, events, metrics := fixture("run_a", ManifestFile), fixture("run_a", EventsFile), fixture("run_a", MetricsFile)
	newer := bytes.Replace(manifest, []byte(`"bundle_schema": 1`),
		[]byte(fmt.Sprintf(`"bundle_schema": %d`, SchemaVersion+1)), 1)
	if bytes.Equal(newer, manifest) {
		f.Fatal("run_a's manifest no longer carries bundle_schema 1")
	}
	f.Add(newer, events, metrics)
	// A torn events line: the last record loses its tail and newline.
	f.Add(manifest, events[:len(events)-10], metrics)
	f.Fuzz(func(t *testing.T, manifest, events, metrics []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{ManifestFile: manifest, EventsFile: events, MetricsFile: metrics} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		b, err := Load(dir)
		if err != nil {
			return
		}
		d := Compute(b, b, "control", "control")
		d.Render()
		RenderComparison(b, b, d)
		if n := len(d.Flips) + len(d.AttribChanges) + len(d.CounterDeltas) + len(d.HistDeltas) + len(d.OutcomeDeltas); n != 0 {
			t.Fatalf("a bundle diffed against itself reports %d changes: %+v", n, d)
		}
	})
}
