// Package benchfmt is the shared model for benchmark snapshots: it
// parses `go test -bench` output into Results, reads and writes the
// dated BENCH_<date>.json files `make bench` produces, and compares
// two snapshots for regressions. cmd/benchjson (capture) and
// cmd/benchdiff (gate) are thin CLIs over this package.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including any -cpu suffix.
	Name string `json:"name"`
	// Package is the Go package the benchmark ran in (from the
	// preceding "pkg:" line; empty if none was seen).
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Metrics holds the remaining "<value> <unit>" pairs: B/op,
	// allocs/op, and any b.ReportMetric custom units.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Key identifies a benchmark across snapshots (name alone can repeat
// between packages).
func (r Result) Key() string {
	if r.Package == "" {
		return r.Name
	}
	return r.Package + "." + r.Name
}

// ParseLine parses one "BenchmarkName-8  N  X ns/op [V unit]..." line;
// ok is false for non-benchmark lines.
func ParseLine(line, pkg string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Package: pkg, Iterations: iters}
	// The remainder is "<value> <unit>" pairs; ns/op first by convention
	// but don't rely on it.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			r.NsPerOp = v
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = v
	}
	return r, true
}

// Parse reads a `go test -bench` stream, tracking "pkg:" lines so each
// Result carries its package.
func Parse(r io.Reader) ([]Result, error) {
	var results []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		if res, ok := ParseLine(line, pkg); ok {
			results = append(results, res)
		}
	}
	return results, sc.Err()
}

// ReadFile loads a JSON snapshot written by WriteFile / cmd/benchjson.
func ReadFile(path string) ([]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []Result
	if err := json.Unmarshal(data, &results); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return results, nil
}

// WriteFile writes the snapshot as indented JSON.
func WriteFile(path string, results []Result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// CompareOpts tunes the regression gate.
type CompareOpts struct {
	// ThresholdPct is the ns/op increase (percent) that counts as a
	// regression. `make bench` runs at -benchtime 1x, where a single
	// iteration carries scheduler and cache noise, so the default gate
	// is deliberately loose: DefaultThresholdPct.
	ThresholdPct float64
	// MinNs exempts benchmarks whose baseline ns/op is below this
	// floor — sub-100µs single-iteration timings are mostly noise.
	MinNs float64
}

// Defaults for CompareOpts, shared with cmd/benchdiff's flag help.
const (
	DefaultThresholdPct = 400
	DefaultMinNs        = 100_000
)

func (o CompareOpts) withDefaults() CompareOpts {
	if o.ThresholdPct <= 0 {
		o.ThresholdPct = DefaultThresholdPct
	}
	if o.MinNs < 0 {
		o.MinNs = 0
	} else if o.MinNs == 0 {
		o.MinNs = DefaultMinNs
	}
	return o
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Key   string
	OldNs float64
	NewNs float64
	// Pct is the ns/op change in percent (positive = slower).
	Pct float64
	// Gated reports the delta was eligible for the gate (baseline at or
	// above MinNs); Regression additionally means it breached the
	// threshold.
	Gated      bool
	Regression bool
}

// Comparison is the full result of comparing two snapshots.
type Comparison struct {
	Deltas []Delta
	// Missing lists benchmarks present in the baseline but absent from
	// the new snapshot (deleted or renamed — surfaced, not gated).
	Missing []string
	// Added lists benchmarks new in the fresh snapshot.
	Added []string
}

// Regressions returns the deltas that breached the gate.
func (c Comparison) Regressions() []Delta {
	var out []Delta
	for _, d := range c.Deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// Compare matches benchmarks by key and flags regressions per opts.
// Deltas come back sorted worst-first.
func Compare(old, fresh []Result, opts CompareOpts) Comparison {
	opts = opts.withDefaults()
	oldIdx := map[string]Result{}
	for _, r := range old {
		oldIdx[r.Key()] = r
	}
	var c Comparison
	seen := map[string]bool{}
	for _, nr := range fresh {
		key := nr.Key()
		seen[key] = true
		or, ok := oldIdx[key]
		if !ok {
			c.Added = append(c.Added, key)
			continue
		}
		d := Delta{Key: key, OldNs: or.NsPerOp, NewNs: nr.NsPerOp}
		if or.NsPerOp > 0 {
			d.Pct = 100 * (nr.NsPerOp - or.NsPerOp) / or.NsPerOp
		}
		d.Gated = or.NsPerOp >= opts.MinNs
		d.Regression = d.Gated && d.Pct > opts.ThresholdPct
		c.Deltas = append(c.Deltas, d)
	}
	for _, r := range old {
		if !seen[r.Key()] {
			c.Missing = append(c.Missing, r.Key())
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool {
		if c.Deltas[i].Pct != c.Deltas[j].Pct {
			return c.Deltas[i].Pct > c.Deltas[j].Pct
		}
		return c.Deltas[i].Key < c.Deltas[j].Key
	})
	sort.Strings(c.Missing)
	sort.Strings(c.Added)
	return c
}
