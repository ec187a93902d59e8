package obs

import (
	"flag"
	"time"
)

// CLI is the shared observability flag set every binary wires the same
// way: -metrics (print the snapshot / phase table), -pprof / -status
// (live ops-plane endpoint), -window (RED window width), and -outdir
// (run-bundle directory, whose trace.jsonl is the span export).
// BindCLI is the single place this wiring lives.
type CLI struct {
	// Metrics requests the rendered metrics/phase report after the run.
	Metrics bool
	// Pprof is the live ops-plane address WITH profiling endpoints
	// ("" = off).
	Pprof string
	// Status is the live ops-plane address without profiling
	// ("" = off). When both Status and Pprof are set, Pprof wins —
	// it is Status plus /debug/pprof.
	Status string
	// Window is the sliding window for the live RED views (/red and
	// the /statusz rates/ETA). Zero selects one minute.
	Window time.Duration
	// OutDir is the run-bundle output directory ("" = off).
	OutDir string
	// Tracez enables per-visit span-tree capture into the bounded
	// exemplar reservoir: served live at /tracez on the ops plane and
	// written as trace_exemplars.jsonl next to the bundle with
	// -outdir. Never changes bundle bytes.
	Tracez bool
}

// BindCLI registers the shared observability flags on fs (use
// flag.CommandLine in main) and returns the destination struct.
func BindCLI(fs *flag.FlagSet) *CLI {
	c := &CLI{}
	fs.BoolVar(&c.Metrics, "metrics", false, "print the metrics snapshot and phase timings after the run")
	fs.StringVar(&c.Pprof, "pprof", "", "serve the live ops plane plus /debug/pprof on this address during the run")
	fs.StringVar(&c.Status, "status", "", "serve the live ops plane (/statusz, /healthz, /readyz, /metrics.prom, /red, ...) on this address during the run")
	fs.DurationVar(&c.Window, "window", 0, "sliding window for the live RED metric views (default 1m)")
	fs.StringVar(&c.OutDir, "outdir", "", "write a run bundle (manifest, metrics, trace, events, reports) to this directory")
	fs.BoolVar(&c.Tracez, "tracez", false, "capture per-visit span trees into the bounded exemplar reservoir (/tracez endpoint; trace_exemplars.jsonl with -outdir)")
	return c
}

// OpsAddr resolves the ops-plane serve address and whether profiling
// endpoints were requested ("" when no serving flag was given).
func (c *CLI) OpsAddr() (addr string, withPprof bool) {
	if c.Pprof != "" {
		return c.Pprof, true
	}
	return c.Status, false
}

// FaultCLI is the shared fault-injection flag set the crawling
// binaries bind alongside CLI: -faults (per-site fault probability),
// -retries, and -visit-timeout. It is a separate struct so
// analysis-only binaries don't advertise crawl knobs, and it carries
// plain values so obs stays dependency-free — callers build the
// netsim.FaultModel themselves.
type FaultCLI struct {
	// Rate is the fraction of sites given a deterministic fault plan
	// (0 disables injection entirely).
	Rate float64
	// Retries is the per-visit retry budget (0 = crawler default).
	Retries int
	// VisitTimeout is the virtual per-attempt deadline (0 = default).
	VisitTimeout time.Duration
}

// BindFaultCLI registers the fault-injection flags on fs and returns
// the destination struct.
func BindFaultCLI(fs *flag.FlagSet) *FaultCLI {
	c := &FaultCLI{}
	fs.Float64Var(&c.Rate, "faults", 0, "fraction of sites given a seeded fault plan (0 disables fault injection)")
	fs.IntVar(&c.Retries, "retries", 0, "visit retry budget under -faults (0 = default 3)")
	fs.DurationVar(&c.VisitTimeout, "visit-timeout", 0, "virtual per-attempt visit deadline under -faults (0 = default 5s)")
	return c
}
