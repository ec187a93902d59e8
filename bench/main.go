// Command bench is the repository benchmark. It runs three workloads,
// each pass in fresh child processes so no process-global cache carries
// over between passes, checks their outputs, and prints every metric as
// "<workload> <metric> <value> <unit>":
//
//   - study: the paper pipeline (New, RunControl, Analyze, RunAdblock,
//     RunM1, RenderAll, WriteBundle) at Scale 0.1;
//   - study-resume: the same study halted by its checkpoint writer in
//     one process and resumed from the sidecar in a second;
//   - serve: the verdict service over a control-only bundle, driven by
//     a closed loop of two clients sending the mixed request round.
//
// Run it from the repository root through bench/run.sh, which builds it
// first:
//
//	bash bench/run.sh -workload study -seed 3 -seconds 10 -trace 0
//	bash bench/run.sh -seed 3 -count 5 -trace 1
//
// With -workload, the last line of standard output is one JSON object
// holding the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1). Without it, every workload runs -count times in
// alternating order and the medians and quartiles are printed. Results,
// with a host header, go to a JSON file under .bench_build/results.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"items_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layerCounts are the per-layer counts and ratios read from the
// program's registries.
var layerCounts = []metricDef{
	{"crawler.pages", "count"},
	{"crawler.visit_fail_ratio", "ratio"},
	{"crawler.scripts_executed", "count"},
	{"crawler.extractions", "count"},
	{"jsvm.steps", "count"},
	{"jsvm.parse_hit_ratio", "ratio"},
	{"blocklist.scripts_blocked", "count"},
	{"analysis.cache_hit_ratio", "ratio"},
	{"checkpoint.writes", "count"},
	{"checkpoint.sidecar_mb", "MB"},
	{"serve.requests", "count"},
	{"serve.coalesced_ratio", "ratio"},
}

// perLayer are the metrics of the traced run. Every one is defined on
// every workload; a layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"cpu_total_s", "s"}, {"alloc_mb", "MB"}, {"trace.overhead_ratio", "ratio"}}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_pct", "%"})
	}
	defs = append(defs, metricDef{"canvas.text_cpu_pct", "%"})
	return append(defs, layerCounts...)
}()

// extraUnits are the units of figures printed and recorded but not
// part of the JSON result line.
var extraUnits = map[string]string{
	"crawler.queue_wait_s":  "s",
	"serve.handler_mean_us": "us",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measured is one run of one workload.
type measured struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	spans     []procSpan
}

// primary lists the metrics of the run's mode: the ones its JSON
// result line carries.
func (m *measured) primary() []metricDef {
	if m.Traced {
		return perLayer
	}
	return endToEnd
}

func (m *measured) set(name string, v float64, unit string) { m.Metrics[name] = metric{v, unit} }

// addPass folds a pass's checks and operation counts into the run.
func (m *measured) addPass(p *pass) {
	m.Attempted += p.ops
	m.Failed += p.opErrors
	m.addChecks(p.checks...)
}

// addChecks records checks; each counts as one attempted operation.
func (m *measured) addChecks(cs ...check) {
	for _, c := range cs {
		m.Checks = append(m.Checks, c)
		m.Attempted++
		if !c.OK {
			m.Failed++
		}
	}
}

func (m *measured) correct() bool { return m.Failed == 0 }

// measure runs workload w for at least seconds of passes and reports
// its end-to-end metrics.
func measure(cfg config, w *workload, seed uint64, seconds time.Duration) (*measured, error) {
	r, err := newRunner(cfg, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := w.prepare(r); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < cfg.setupSamples; i++ {
		s, err := w.setup(r)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	m := &measured{Workload: w.name, Seed: seed, Metrics: map[string]metric{}}
	var refs, lat, rss []float64
	sampleReference := func() error {
		for i := 0; i < cfg.refSamples; i++ {
			s, err := r.reference()
			if err != nil {
				return err
			}
			refs = append(refs, s)
		}
		return nil
	}
	if err := sampleReference(); err != nil {
		return nil, err
	}
	var items, itemS float64
	passes := 0
	for start := time.Now(); passes == 0 || time.Since(start) < seconds; passes++ {
		p, err := w.pass(r, false)
		if err != nil {
			return nil, err
		}
		if err := sampleReference(); err != nil {
			return nil, err
		}
		m.addPass(p)
		setups = append(setups, p.setupS...)
		lat = append(lat, p.latencyMS...)
		rss = append(rss, p.rssMB)
		items += p.items
		itemS += p.itemS
	}
	lat = sorted(lat)
	q := tailQuantile(len(lat))
	raw := map[string]metric{
		"setup_s":         {median(setups), "s"},
		"latency_p50_ms":  {quantile(lat, 0.5), "ms"},
		"latency_tail_ms": {quantile(lat, q), "ms"},
		"items_per_s":     {items / itemS, "1/s"},
	}
	// Times are corrected to the reference host's speed (reference.go);
	// the raw values are kept beside them.
	slowdown := median(refs) / refNominalS
	for name, v := range raw {
		m.Metrics["raw."+name] = v
		if name == "items_per_s" {
			v.Value *= slowdown
		} else {
			v.Value /= slowdown
		}
		m.Metrics[name] = v
	}
	m.set("host.reference_s", median(refs), "s")
	m.set("host.slowdown", slowdown, "ratio")
	m.set("peak_rss_mb", median(rss), "MB")
	m.set("latency_tail_quantile", q, "quantile")
	if len(lat) >= 10_000 {
		m.set("raw.latency_p999_ms", quantile(lat, 0.999), "ms")
	}
	m.set("latency_samples", float64(len(lat)), "count")
	m.set("setup_samples", float64(len(setups)), "count")
	m.set("passes", float64(passes), "count")
	return m, nil
}

// measureTraced runs one untraced and one traced pass of w and reports
// its per-layer metrics.
func measureTraced(cfg config, w *workload, seed uint64) (*measured, error) {
	r, err := newRunner(cfg, seed)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := w.prepare(r); err != nil {
		return nil, err
	}
	plain, err := w.pass(r, false)
	if err != nil {
		return nil, err
	}
	traced, err := w.pass(r, true)
	if err != nil {
		return nil, err
	}
	m := &measured{Workload: w.name, Seed: seed, Traced: true, Metrics: map[string]metric{}, spans: traced.spans}
	m.addPass(plain)
	m.addPass(traced)

	cpu := &layerCPU{}
	for _, path := range traced.profiles {
		c, err := attributeProfile(path)
		if err != nil {
			return nil, err
		}
		cpu.add(c)
	}
	pct := func(s float64) float64 {
		if cpu.TotalS == 0 {
			return 0
		}
		return 100 * s / cpu.TotalS
	}
	m.set("cpu_total_s", cpu.TotalS, "s")
	m.set("alloc_mb", traced.allocMB, "MB")
	m.set("trace.overhead_ratio", traced.unitS/plain.unitS-1, "ratio")
	sum := 0.0
	for _, l := range layers {
		m.set(l+".cpu_pct", pct(cpu.Layers[l]), "%")
		m.set(l+".cpu_s", cpu.Layers[l], "s")
		sum += pct(cpu.Layers[l])
	}
	m.set("canvas.text_cpu_pct", pct(cpu.TextS), "%")
	m.set("canvas.text_cpu_s", cpu.TextS, "s")
	m.addChecks(newCheck("layers.sum", math.Abs(sum-100) <= 1, "layer shares sum to %.2f%% of %.2f s", sum, cpu.TotalS))
	for _, d := range layerCounts {
		m.set(d.name, traced.counts[d.name], d.unit)
	}
	for name, unit := range extraUnits {
		if v, ok := traced.counts[name]; ok {
			m.set(name, v, unit)
		}
	}
	for name, v := range traced.extra {
		m.set(name, v, "us")
	}
	for _, s := range traced.spans {
		if s.Name != "setup" {
			m.set(wallMetric(s.Name), m.Metrics[wallMetric(s.Name)].Value+s.End-s.Start, "s")
		}
	}
	return m, nil
}

// wallMetric names the wall-time metric of a span: "crawler.control"
// becomes "crawler.control_wall_s", "report" becomes "report.wall_s".
func wallMetric(spanName string) string {
	if strings.Contains(spanName, ".") {
		return spanName + "_wall_s"
	}
	return spanName + ".wall_s"
}

// host describes the machine a result was measured on.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				h.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		h.Commit += dirty
	}
	return h
}

// summary is the median and quartiles of one metric over repeated runs.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type results struct {
	Host    host                          `json:"host"`
	Seed    uint64                        `json:"seed"`
	Seconds int                           `json:"seconds"`
	Runs    []*measured                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary,omitempty"`
}

func main() {
	if raw, ok := os.LookupEnv(childEnv); ok {
		os.Exit(runChild(raw))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, defaultConfig()))
}

// benchMain parses flags, runs what they ask for and returns the exit
// code: 0 when every check passed, 1 on a failed check or run, 2 on a
// usage error.
func benchMain(args []string, stdout io.Writer, cfg config) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (study, study-resume, serve) and end with a JSON result line")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 15, "seconds of passes to measure per run; also the serve window")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	count := fs.Int("count", 1, "runs of each workload, alternating the order (without -workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *count < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -count must be positive and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
		*count = 1
	}
	if cfg.window == 0 {
		cfg.window = time.Duration(*seconds) * time.Second
	}

	res := &results{Host: hostInfo(), Seed: *seed, Seconds: *seconds}
	for i := 0; i < *count; i++ {
		order := append([]*workload(nil), selected...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			var m *measured
			var err error
			if *trace == 1 {
				m, err = measureTraced(cfg, w, *seed)
			} else {
				m, err = measure(cfg, w, *seed, time.Duration(*seconds)*time.Second)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
			res.Runs = append(res.Runs, m)
			printRun(os.Stderr, m)
		}
	}

	label := "all"
	if *name != "" {
		label = *name
	}
	out := filepath.Join(cfg.workDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", label, *seed, *trace))
	if len(res.Runs) > 1 {
		res.Summary = summarize(res.Runs)
	}
	ok := true
	for _, m := range res.Runs {
		ok = ok && m.correct()
	}
	if err := writeResults(out, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printReport(stdout, res)
	if *name != "" {
		if err := printResultLine(stdout, res.Runs[0]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// printRun prints one run's checks as it finishes.
func printRun(w io.Writer, m *measured) {
	for _, c := range m.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %s %s %s: %s\n", m.Workload, c.Name, status, c.Detail)
	}
}

// printReport prints every metric as "<workload> <metric> <value>
// <unit>": one run's values, or the medians of repeated runs with their
// quartiles.
func printReport(w io.Writer, res *results) {
	if res.Summary == nil {
		m := res.Runs[0]
		for _, name := range metricOrder(m) {
			fmt.Fprintf(w, "%s %s %s %s\n", m.Workload, name, formatValue(m.Metrics[name].Value), m.Metrics[name].Unit)
		}
		return
	}
	var names []string
	for wl := range res.Summary {
		names = append(names, wl)
	}
	sort.Strings(names)
	for _, wl := range names {
		s := res.Summary[wl]
		var first *measured
		for _, m := range res.Runs {
			if m.Workload == wl {
				first = m
				break
			}
		}
		for _, name := range metricOrder(first) {
			v := s[name]
			fmt.Fprintf(w, "%s %s %s %s q1=%s q3=%s n=%d\n", wl, name, formatValue(v.Median), v.Unit,
				formatValue(v.Q1), formatValue(v.Q3), v.N)
		}
	}
}

// metricOrder lists the run's primary metrics first, then the rest by
// name.
func metricOrder(m *measured) []string {
	var out []string
	seen := map[string]bool{}
	for _, d := range m.primary() {
		out = append(out, d.name)
		seen[d.name] = true
	}
	var rest []string
	for name := range m.Metrics {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func formatValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// summarize reduces repeated runs to medians and quartiles per
// workload and metric.
func summarize(runs []*measured) map[string]map[string]summary {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, m := range runs {
		key := m.Workload
		if values[key] == nil {
			values[key] = map[string][]float64{}
		}
		for name, v := range m.Metrics {
			values[key][name] = append(values[key][name], v.Value)
			units[name] = v.Unit
		}
	}
	out := map[string]map[string]summary{}
	for key, byName := range values {
		out[key] = map[string]summary{}
		for name, vs := range byName {
			q1, q3 := quartiles(vs)
			out[key][name] = summary{Median: median(vs), Q1: q1, Q3: q3, N: len(vs), Unit: units[name]}
		}
	}
	return out
}

func writeResults(path string, res *results) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, m := range res.Runs {
		if len(m.spans) == 0 {
			continue
		}
		if err := writeSpans(filepath.Join(filepath.Dir(path), fmt.Sprintf("trace-%s-seed%d.jsonl", m.Workload, m.Seed)), m.spans); err != nil {
			return err
		}
	}
	return nil
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, spans []procSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printResultLine prints the JSON line the run is judged by: the
// primary metrics of its mode and the operation counts.
func printResultLine(w io.Writer, m *measured) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: m.correct(), Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]metric{}}
	for _, d := range m.primary() {
		line.Metrics[d.name] = m.Metrics[d.name]
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
