// Package bundle writes and loads run-artifact bundles: one directory
// per study run holding the manifest (seed, scale, schema versions),
// the metrics snapshot, the span trace, the evidence event log, and any
// rendered reports. A bundle is the durable, diffable record of a run —
// cmd/runsdiff loads two of them and explains what changed and why.
package bundle

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
)

// SchemaVersion is the bundle layout version, independent of the event
// wire schema (which travels in Manifest.EventSchema).
const SchemaVersion = 1

// Well-known file names inside a bundle directory. The span trace is
// obs.TraceFile.
const (
	ManifestFile = "manifest.json"
	MetricsFile  = "metrics.json"
	EventsFile   = "events.jsonl"
	// MetricsDeterministicFile is the seed-reproducible projection of
	// MetricsFile (see DeterministicMetrics). It exists so shell-level
	// comparisons — `cmp`, `make resume-smoke` — can assert determinism
	// without a Go loader to strip the wall-clock histogram fields.
	MetricsDeterministicFile = "metrics.deterministic.json"
)

// Manifest identifies a run: what produced the bundle and under which
// configuration, so two bundles can be compared meaningfully.
type Manifest struct {
	BundleSchema int     `json:"bundle_schema"`
	EventSchema  int     `json:"event_schema"`
	GoVersion    string  `json:"go_version"`
	Seed         uint64  `json:"seed"`
	Scale        float64 `json:"scale"`
	Workers      int     `json:"workers"`
	// Conditions lists the distinct crawl condition labels present in
	// the event log ("control", "abp", ...).
	Conditions []string `json:"conditions,omitempty"`
	// Events counts retained events; EventsTotal counts recorded ones
	// (they differ when the ring wrapped and dropped the oldest).
	Events        int    `json:"events"`
	EventsTotal   uint64 `json:"events_total"`
	EventsDropped uint64 `json:"events_dropped"`
	// Notes is free-form provenance ("cmd/repro -scale 0.1", ...).
	Notes string `json:"notes,omitempty"`
}

// Write creates dir and writes manifest.json, metrics.json,
// trace.jsonl, and events.jsonl from the run's telemetry. Schema
// versions, the go version, and the event-log tallies are stamped on
// the manifest automatically; the caller supplies the run parameters.
func Write(dir string, m Manifest, tel *obs.Telemetry) error {
	if tel == nil {
		return fmt.Errorf("bundle: nil telemetry")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	m.BundleSchema = SchemaVersion
	m.EventSchema = event.SchemaVersion
	m.GoVersion = runtime.Version()
	m.Conditions = tel.Events.Conditions()
	m.Events = tel.Events.Len()
	m.EventsTotal = tel.Events.Total()
	m.EventsDropped = tel.Events.Dropped()
	if err := writeJSON(filepath.Join(dir, ManifestFile), m); err != nil {
		return err
	}
	if err := writeWith(filepath.Join(dir, MetricsFile), tel.Metrics.WriteJSON); err != nil {
		return err
	}
	det := append(DeterministicMetrics(tel.Metrics.Snapshot()), '\n')
	if err := os.WriteFile(filepath.Join(dir, MetricsDeterministicFile), det, 0o644); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	if err := writeWith(filepath.Join(dir, obs.TraceFile), tel.Tracer.WriteJSONL); err != nil {
		return err
	}
	return writeWith(filepath.Join(dir, EventsFile), tel.Events.WriteJSONL)
}

// WriteReport adds a rendered report file to an existing bundle.
func WriteReport(dir, name, text string) error {
	if !strings.HasSuffix(text, "\n") {
		text += "\n"
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("bundle: %s: %w", path, err)
	}
	return nil
}

func writeWith(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bundle: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("bundle: %s: %w", path, err)
	}
	return f.Close()
}

// Bundle is a loaded run bundle.
type Bundle struct {
	Dir      string
	Manifest Manifest
	Metrics  obs.Snapshot
	Events   []event.Event
}

// CheckpointSidecar is the checkpoint file name internal/checkpoint
// maintains next to an interrupted study's artifacts. It is duplicated
// here (and pinned equal by a test) so the read path can reject
// half-finished bundles without bundle importing checkpoint.
const CheckpointSidecar = "checkpoint.json"

// ErrCheckpointed marks a Load rejected because the directory holds a
// checkpoint sidecar. Errors.Is-able so callers can branch on it.
var ErrCheckpointed = fmt.Errorf("directory holds a %s sidecar", CheckpointSidecar)

// Load reads a bundle directory. The manifest and event log are
// required; a missing metrics.json degrades to an empty snapshot so
// bundles from bare (untelemetered) runs still diff.
//
// A directory holding a checkpoint.json sidecar is rejected: the
// sidecar means the study that wrote it was interrupted mid-run, so
// any artifacts next to it reflect partial work — serving or diffing
// them silently gives stale verdicts. Resume the run (cmd/repro
// -resume) to completion first, or use LoadPartial to inspect the
// partial artifacts deliberately.
func Load(dir string) (*Bundle, error) {
	if _, err := os.Stat(filepath.Join(dir, CheckpointSidecar)); err == nil {
		return nil, fmt.Errorf("bundle: refusing to load %s: %w — the run was interrupted and these artifacts are partial; resume it to completion first (or load with LoadPartial to inspect anyway)", dir, ErrCheckpointed)
	}
	return LoadPartial(dir)
}

// LoadPartial is Load without the checkpoint-sidecar guard — for
// callers that knowingly inspect an interrupted run's artifacts
// (cmd/runsdiff warns and proceeds).
func LoadPartial(dir string) (*Bundle, error) {
	b := &Bundle{Dir: dir}
	mf, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	if err := json.Unmarshal(mf, &b.Manifest); err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", ManifestFile, err)
	}
	if b.Manifest.BundleSchema > SchemaVersion {
		return nil, fmt.Errorf("bundle: %s has schema %d, this build reads <= %d",
			dir, b.Manifest.BundleSchema, SchemaVersion)
	}
	ef, err := os.Open(filepath.Join(dir, EventsFile))
	if err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	defer ef.Close()
	if b.Events, err = event.ReadJSONL(ef); err != nil {
		return nil, fmt.Errorf("bundle: %s: %w", EventsFile, err)
	}
	if mx, err := os.ReadFile(filepath.Join(dir, MetricsFile)); err == nil {
		if err := json.Unmarshal(mx, &b.Metrics); err != nil {
			return nil, fmt.Errorf("bundle: %s: %w", MetricsFile, err)
		}
	}
	return b, nil
}

// FPSites returns the set of sites classified fingerprinting under the
// given crawl condition: any detect.classify event with a
// "fingerprintable" verdict marks its site.
func (b *Bundle) FPSites(cond string) map[string]bool {
	out := map[string]bool{}
	for i := range b.Events {
		e := &b.Events[i]
		if e.Kind == event.DetectClassify && e.Crawl == cond && e.Verdict == "fingerprintable" {
			out[e.Site] = true
		}
	}
	return out
}

// Attributions returns site → "+"-joined sorted vendor slugs from the
// attribution evidence events (site-level only; group- and
// ground-truth-level evidence carries no site).
func (b *Bundle) Attributions() map[string]string {
	sets := map[string]map[string]bool{}
	for i := range b.Events {
		e := &b.Events[i]
		if e.Kind != event.AttribEvidence || e.Site == "" {
			continue
		}
		if sets[e.Site] == nil {
			sets[e.Site] = map[string]bool{}
		}
		sets[e.Site][e.Verdict] = true
	}
	out := make(map[string]string, len(sets))
	for site, set := range sets {
		slugs := make([]string, 0, len(set))
		for s := range set {
			slugs = append(slugs, s)
		}
		sort.Strings(slugs)
		out[site] = strings.Join(slugs, "+")
	}
	return out
}

// VisitOutcomes tallies the visit.outcome events of one crawl condition
// by verdict ("ok", "degraded", "refused", ...). Empty for fault-free
// runs, which record no visit outcomes.
func (b *Bundle) VisitOutcomes(cond string) map[string]int {
	out := map[string]int{}
	for i := range b.Events {
		e := &b.Events[i]
		if e.Kind == event.VisitOutcome && e.Crawl == cond {
			out[e.Verdict]++
		}
	}
	return out
}

// VerdictFlip is one site whose fingerprinting verdict differs between
// the two compared conditions.
type VerdictFlip struct {
	Site string `json:"site"`
	// Direction is "lost" (fingerprinting in A, not in B) or "gained".
	Direction string `json:"direction"`
}

// AttribChange is one site whose attributed vendor set changed.
type AttribChange struct {
	Site   string `json:"site"`
	Before string `json:"before"`
	After  string `json:"after"`
}

// MetricDelta is one counter that moved between runs.
type MetricDelta struct {
	Name string `json:"name"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

// HistDelta compares one histogram's mean across runs.
type HistDelta struct {
	Name   string  `json:"name"`
	MeanA  float64 `json:"mean_a"`
	MeanB  float64 `json:"mean_b"`
	RelPct float64 `json:"rel_pct"`
}

// Diff is the comparison of two bundles under one condition each.
type Diff struct {
	CondA, CondB       string
	FPSitesA, FPSitesB int
	// Flips lists per-site verdict changes, lost first, sites sorted.
	Flips []VerdictFlip
	// AttribChanges lists per-site vendor-set changes.
	AttribChanges []AttribChange
	// CounterDeltas lists counters whose values differ.
	CounterDeltas []MetricDelta
	// HistDeltas lists histograms whose means moved by more than 25%
	// (candidate performance regressions).
	HistDeltas []HistDelta
	// OutcomeDeltas lists visit-outcome verdict counts that differ —
	// how fault injection (or a resilience change) shifted the crawl's
	// ok/degraded/failed mix between the runs.
	OutcomeDeltas []MetricDelta
}

// Compute diffs bundle a (condition condA) against bundle b (condition
// condB): per-site fingerprinting verdict flips, attribution changes,
// and metric movements.
func Compute(a, b *Bundle, condA, condB string) Diff {
	d := Diff{CondA: condA, CondB: condB}
	fpA, fpB := a.FPSites(condA), b.FPSites(condB)
	d.FPSitesA, d.FPSitesB = len(fpA), len(fpB)
	var lost, gained []string
	for site := range fpA {
		if !fpB[site] {
			lost = append(lost, site)
		}
	}
	for site := range fpB {
		if !fpA[site] {
			gained = append(gained, site)
		}
	}
	sort.Strings(lost)
	sort.Strings(gained)
	for _, s := range lost {
		d.Flips = append(d.Flips, VerdictFlip{Site: s, Direction: "lost"})
	}
	for _, s := range gained {
		d.Flips = append(d.Flips, VerdictFlip{Site: s, Direction: "gained"})
	}

	attrA, attrB := a.Attributions(), b.Attributions()
	sites := map[string]bool{}
	for s := range attrA {
		sites[s] = true
	}
	for s := range attrB {
		sites[s] = true
	}
	var changed []string
	for s := range sites {
		if attrA[s] != attrB[s] {
			changed = append(changed, s)
		}
	}
	sort.Strings(changed)
	for _, s := range changed {
		d.AttribChanges = append(d.AttribChanges, AttribChange{Site: s, Before: attrA[s], After: attrB[s]})
	}

	names := map[string]bool{}
	for n := range a.Metrics.Counters {
		names[n] = true
	}
	for n := range b.Metrics.Counters {
		names[n] = true
	}
	var cnames []string
	for n := range names {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		if va, vb := a.Metrics.Counters[n], b.Metrics.Counters[n]; va != vb {
			d.CounterDeltas = append(d.CounterDeltas, MetricDelta{Name: n, A: va, B: vb})
		}
	}
	var hnames []string
	for n := range a.Metrics.Histograms {
		if _, ok := b.Metrics.Histograms[n]; ok {
			hnames = append(hnames, n)
		}
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		ma, mb := a.Metrics.Histograms[n].Mean(), b.Metrics.Histograms[n].Mean()
		if ma == 0 {
			continue
		}
		rel := 100 * (mb - ma) / ma
		if math.Abs(rel) > 25 {
			d.HistDeltas = append(d.HistDeltas, HistDelta{Name: n, MeanA: ma, MeanB: mb, RelPct: rel})
		}
	}

	outA, outB := a.VisitOutcomes(condA), b.VisitOutcomes(condB)
	verdicts := map[string]bool{}
	for v := range outA {
		verdicts[v] = true
	}
	for v := range outB {
		verdicts[v] = true
	}
	var vnames []string
	for v := range verdicts {
		vnames = append(vnames, v)
	}
	sort.Strings(vnames)
	for _, v := range vnames {
		if va, vb := outA[v], outB[v]; va != vb {
			d.OutcomeDeltas = append(d.OutcomeDeltas, MetricDelta{Name: v, A: int64(va), B: int64(vb)})
		}
	}
	return d
}

// Lost and Gained count the verdict flips by direction. Their
// difference equals FPSitesA - FPSitesB by construction — the same
// identity Table 2's per-condition site counts obey, which is what
// makes the flip list an explanation of the prevalence delta rather
// than a separate estimate.
func (d Diff) Lost() int {
	n := 0
	for _, f := range d.Flips {
		if f.Direction == "lost" {
			n++
		}
	}
	return n
}

// Gained counts sites fingerprinting in B but not in A.
func (d Diff) Gained() int { return len(d.Flips) - d.Lost() }

// Render formats the diff as a terminal report.
func (d Diff) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Run diff — A:%s vs B:%s\n", d.CondA, d.CondB)
	fmt.Fprintf(&sb, "  fingerprinting sites: %d → %d (delta %+d)\n",
		d.FPSitesA, d.FPSitesB, d.FPSitesB-d.FPSitesA)
	fmt.Fprintf(&sb, "  verdict flips: %d lost, %d gained\n", d.Lost(), d.Gained())
	for _, f := range d.Flips {
		fmt.Fprintf(&sb, "    %-6s %s\n", f.Direction, f.Site)
	}
	if len(d.AttribChanges) == 0 {
		sb.WriteString("  attribution: unchanged\n")
	} else {
		fmt.Fprintf(&sb, "  attribution changes: %d sites\n", len(d.AttribChanges))
		for _, c := range d.AttribChanges {
			before, after := c.Before, c.After
			if before == "" {
				before = "-"
			}
			if after == "" {
				after = "-"
			}
			fmt.Fprintf(&sb, "    %s: %s → %s\n", c.Site, before, after)
		}
	}
	if len(d.CounterDeltas) == 0 {
		sb.WriteString("  counters: unchanged\n")
	} else {
		fmt.Fprintf(&sb, "  counter deltas: %d\n", len(d.CounterDeltas))
		for _, m := range d.CounterDeltas {
			fmt.Fprintf(&sb, "    %-32s %d → %d (%+d)\n", m.Name, m.A, m.B, m.B-m.A)
		}
	}
	if len(d.HistDeltas) > 0 {
		fmt.Fprintf(&sb, "  possible metric regressions (mean moved >25%%):\n")
		for _, h := range d.HistDeltas {
			fmt.Fprintf(&sb, "    %-32s mean %.6g → %.6g (%+.1f%%)\n", h.Name, h.MeanA, h.MeanB, h.RelPct)
		}
	}
	if len(d.OutcomeDeltas) > 0 {
		fmt.Fprintf(&sb, "  visit-outcome deltas:\n")
		for _, m := range d.OutcomeDeltas {
			fmt.Fprintf(&sb, "    %-32s %d → %d (%+d)\n", m.Name, m.A, m.B, m.B-m.A)
		}
	}
	return sb.String()
}

// RenderComparison is the full runsdiff report: one identifying header
// line per bundle followed by the diff. Pinned by a golden test, so
// cmd/runsdiff stays a thin shell around it.
func RenderComparison(a, b *Bundle, d Diff) string {
	var sb strings.Builder
	describe := func(label string, bl *Bundle) {
		m := bl.Manifest
		fmt.Fprintf(&sb, "%s: %s (seed %d, scale %g, %d events", label, bl.Dir, m.Seed, m.Scale, m.Events)
		if len(m.Conditions) > 0 {
			fmt.Fprintf(&sb, ", conditions %s", strings.Join(m.Conditions, "+"))
		}
		sb.WriteString(")\n")
	}
	describe("A", a)
	describe("B", b)
	sb.WriteByte('\n')
	sb.WriteString(d.Render())
	return sb.String()
}
