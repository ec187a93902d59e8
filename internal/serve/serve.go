// Package serve is the detection-as-a-service layer: it loads a
// finished study's run bundle (manifest + evidence event log), builds
// in-memory read indexes over the recorded verdicts, cluster
// assignments, attributions, and blocklist decisions, and answers JSON
// lookups at production rates:
//
//	POST /v1/classify        canvas hash or data-URL → verdict + heuristic breakdown
//	POST /v1/classify/batch  bulk hash lookup: one round trip, many verdicts
//	GET  /v1/cluster/{hash}  canvas group: members, cohorts, vendor attribution
//	GET  /v1/block?url=      would the standard lists block it, which rule/list
//	GET  /v1/site/{domain}   per-site prevalence summary
//	GET  /v1/stats           index summary (deterministic; serve -check uses it)
//
// Serving is strictly read-only over the bundle: loading builds
// immutable indexes and never rewrites an artifact byte
// (TestServeBundleInvariance), and every response is a pure function
// of the bundle regardless of GOMAXPROCS (TestServeShardInvariance).
// Concurrent identical lookups coalesce through a windowed singleflight
// Batcher so hot keys cost one index probe per window.
package serve

import (
	"fmt"
	"time"

	"canvassing/internal/blocklist"
	"canvassing/internal/bundle"
	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
)

// Config configures service construction.
type Config struct {
	// Dir is the bundle directory to load (Load only).
	Dir string
	// Window is the lookup-batching window (DefaultWindow when <= 0).
	Window time.Duration
	// ListsFor rebuilds the blocklists for the bundle's seed —
	// canvassing.ListsForSeed in the binaries. Nil leaves /v1/block
	// answering 404 (the lists live in the root package, which this
	// package must not import).
	ListsFor func(seed uint64) *blocklist.StandardLists
}

// Service is a loaded, queryable verdict service.
type Service struct {
	Bundle *bundle.Bundle
	Index  *Index
	// Lists is the reconstructed blocklist set (nil without ListsFor).
	Lists *blocklist.StandardLists
	// Tel is the service's own telemetry (request counters and the
	// latency histogram) — deliberately separate from the bundle's
	// recorded metrics, which stay frozen on disk.
	Tel *obs.Telemetry

	batch *Batcher

	reqs    *obs.Counter
	errs    *obs.Counter
	latency *obs.Histogram
}

// Load reads the bundle from disk and builds the service. It uses bundle.Load, so a directory holding a
// checkpoint.json sidecar — a half-finished study — is refused rather
// than served as stale verdicts.
func Load(cfg Config) (*Service, error) {
	b, err := bundle.Load(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return New(b, cfg)
}

// New builds a service over an already-loaded bundle — the in-memory
// entry point tests and fuzz fixtures use. Index construction is
// deterministic: one ordered pass over the event log.
func New(b *bundle.Bundle, cfg Config) (*Service, error) {
	if b == nil {
		return nil, fmt.Errorf("serve: nil bundle")
	}
	tel := obs.NewTelemetry()
	svc := &Service{
		Bundle:  b,
		Index:   BuildIndex(b),
		Tel:     tel,
		batch:   NewBatcher(cfg.Window),
		reqs:    tel.Metrics.Counter("serve.requests"),
		errs:    tel.Metrics.Counter("serve.errors"),
		latency: tel.Metrics.Histogram("serve.latency.seconds", obs.LatencyBuckets()),
	}
	if cfg.ListsFor != nil {
		svc.Lists = cfg.ListsFor(b.Manifest.Seed)
	}
	tel.Status.MarkDone()
	return svc, nil
}

// Batcher exposes the lookup batcher (tests observe its counters).
func (s *Service) Batcher() *Batcher { return s.batch }

// Start serves the API on the full ops plane (/metrics.prom, /red,
// /statusz, /tracez, and the obs debug endpoints) on addr (":0" picks
// a port). win is the RED sliding window (0 = 1 minute).
func (s *Service) Start(addr string, withPprof bool, win time.Duration) (*ops.Plane, error) {
	return ops.Serve(addr, s.Tel, withPprof, win, nil, s.Routes()...)
}
