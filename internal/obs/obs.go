// Package obs is the crawl telemetry layer: a dependency-free,
// concurrency-safe metrics registry (atomic counters, gauges, and
// fixed-bucket latency histograms), lightweight hierarchical span
// recording with JSON-lines export, the live run-status tracker, and
// snapshot/render APIs for terminal tables and JSON dumps.
//
// The paper's crawler ran for weeks over 40k sites; its §3.2
// limitations hinge on knowing what the crawler actually did
// (timeouts, blocked scripts, failed visits). Everything here exists
// so the reproduction pipeline is never blind in the same way: the
// crawler reports visit latency, queue wait, parse time, and jsvm
// step budgets; the study wraps every phase in spans so a run ends
// with a phase-timing table.
//
// obs only records. Reading spans back — the phase-timing table, the
// critical-path report — is internal/obs/tracez's job, and the HTTP
// surface is assembled and served by internal/obs/ops.
//
// All types are safe for concurrent use. A nil *Telemetry disables
// instrumentation at the call sites that accept one; the registry and
// tracer themselves never need nil checks once constructed.
package obs

import "canvassing/internal/obs/event"

// Telemetry bundles the three halves of the observability layer: the
// metrics registry (counters, gauges, histograms), the span tracer
// (hierarchical phases), and the decision-event sink (per-canvas /
// per-script provenance). One Telemetry is shared by a whole pipeline
// run so every crawl and analysis phase accumulates into it.
type Telemetry struct {
	Metrics *Registry
	Tracer  *Tracer
	Events  *event.Sink
	// Status is the live run-progress tracker behind /healthz, /readyz,
	// and /statusz. It is deliberately NOT part of the registry: nothing
	// in it reaches a bundle or checkpoint, so the ops plane never
	// perturbs deterministic artifacts. Nil on bare Telemetry literals;
	// every consumer nil-checks (Status methods are nil-safe).
	Status *Status
}

// NewTelemetry returns an empty telemetry bundle.
func NewTelemetry() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Tracer: NewTracer(), Events: event.NewSink(0), Status: NewStatus()}
}
