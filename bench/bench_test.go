package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary when a
// workload re-executes itself as a child.
func TestMain(m *testing.M) {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(runChild(raw))
	}
	os.Exit(m.Run())
}

// smokeConfig shrinks every workload: a 200-site web, one set-up sample,
// and a 1 s serve window. At 200 sites and a 16-page cadence, the 20th
// checkpoint write lands inside the ABP re-crawl, as the 30th does at
// full size.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.scale = 0.005
	cfg.ckptEvery = 16
	cfg.stopAfter = 20
	cfg.setupSamples = 1
	cfg.refSamples = 1
	cfg.warmup = 200 * time.Millisecond
	cfg.window = time.Second
	cfg.workDir = t.TempDir()
	return cfg
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload in both modes through the command-line
// entry point and checks that the result line carries exactly the
// metrics BENCHMARK.json names, with their units, and that every check
// passed.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t)
	for _, w := range spec.Workloads {
		for trace, want := range [][]benchmarkMetric{spec.EndToEnd, spec.PerLayer} {
			w, trace, want := w, trace, want
			t.Run(fmt.Sprintf("%s/trace%d", w.Name, trace), func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "3", "-seconds", "1", "-trace", fmt.Sprint(trace)}
				if code := benchMain(args, &out, cfg); code != 0 {
					t.Fatalf("exit code %d; output:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool              `json:"correct"`
					Attempted int64             `json:"attempted"`
					Failed    int64             `json:"failed"`
					Metrics   map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", m.Name, got.Value)
					}
					if !strings.Contains(out.String(), fmt.Sprintf("%s %s ", w.Name, m.Name)) {
						t.Errorf("metric %s not printed as <workload> <metric> <value> <unit>", m.Name)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; with [1, 2]: [0.75, 1.5, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
