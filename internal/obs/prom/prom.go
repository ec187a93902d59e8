// Package prom renders an obs metrics registry in the Prometheus text
// exposition format (version 0.0.4) — the ops-plane contract that lets
// a standard Prometheus/VictoriaMetrics scraper watch a long crawl or
// the future verdict API without any custom tooling.
//
// The registry's dotted metric names are sanitized to the Prometheus
// grammar (`crawl.visits` → `crawl_visits`, `crawl.circuit-open` →
// `crawl_circuit_open`); histograms export cumulative `_bucket` series
// with `le` labels plus `_sum` and `_count`, exactly as a native
// Prometheus histogram would. Rendering reads one registry snapshot,
// so a scrape is internally consistent and never perturbs the metrics
// it reports.
package prom

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"canvassing/internal/obs"
)

// family is one named metric of one type, ready to render.
type family struct {
	name   string // sanitized
	typ    string // "counter" | "gauge" | "histogram"
	render func(w io.Writer, name string) error
}

// Write renders the snapshot as Prometheus text exposition. Families
// are emitted in sorted (sanitized) name order, so output is
// deterministic for a given snapshot.
func Write(w io.Writer, s obs.Snapshot) error {
	var fams []family
	for name, v := range s.Counters {
		v := v
		fams = append(fams, family{name: Sanitize(name), typ: "counter",
			render: func(w io.Writer, n string) error {
				_, err := fmt.Fprintf(w, "%s %d\n", n, v)
				return err
			}})
	}
	for name, v := range s.Gauges {
		v := v
		fams = append(fams, family{name: Sanitize(name), typ: "gauge",
			render: func(w io.Writer, n string) error {
				_, err := fmt.Fprintf(w, "%s %d\n", n, v)
				return err
			}})
	}
	for name, h := range s.Histograms {
		h := h
		fams = append(fams, family{name: Sanitize(name), typ: "histogram",
			render: func(w io.Writer, n string) error { return writeHistogram(w, n, h) }})
	}
	sort.Slice(fams, func(i, j int) bool {
		if fams[i].name != fams[j].name {
			return fams[i].name < fams[j].name
		}
		return fams[i].typ < fams[j].typ
	})
	// Two raw names may sanitize to the same family name ("a.b" and
	// "a_b"). Exposition forbids duplicate families, so later ones get
	// a deterministic _dup suffix instead of silently colliding.
	seen := map[string]bool{}
	for _, f := range fams {
		name := f.name
		for seen[name] {
			name += "_dup"
		}
		seen[name] = true
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		if err := f.render(w, name); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram emits the cumulative bucket series, sum, and count.
func writeHistogram(w io.Writer, name string, h obs.HistogramSnapshot) error {
	var cum int64
	for _, b := range h.Buckets {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatFloat(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
	return err
}

// formatFloat renders a sample value the way Prometheus clients do:
// shortest round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Render returns the exposition as a byte slice.
func Render(s obs.Snapshot) []byte {
	var sb strings.Builder
	// strings.Builder never errors.
	_ = Write(&sb, s)
	return []byte(sb.String())
}

// Sanitize maps a registry metric name onto the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every illegal rune becomes '_',
// and a leading digit gets a '_' prefix.
func Sanitize(name string) string {
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			sb.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				sb.WriteByte('_')
			}
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// ValidateExposition checks text against the exposition grammar this
// package emits: every sample belongs to a family declared by a
// preceding # TYPE line, no family is declared twice, metric names
// match the Prometheus grammar, sample values parse, histogram bucket
// series are cumulative, terminate at le="+Inf", and agree with their
// _count. The test suites (and the live integration test against a
// running /metrics.prom) use it as an independent scrape check.
func ValidateExposition(text string) error {
	families := map[string]string{} // name → type
	bucketPrev := map[string]int64{}
	bucketInf := map[string]int64{}
	counts := map[string]int64{}
	var current string
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.Fields(rest)
			if len(parts) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line %q", i+1, line)
			}
			name, typ := parts[0], parts[1]
			if !validName(name) {
				return fmt.Errorf("line %d: illegal metric name %q", i+1, name)
			}
			if _, dup := families[name]; dup {
				return fmt.Errorf("line %d: family %q declared twice", i+1, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				return fmt.Errorf("line %d: unknown type %q", i+1, typ)
			}
			families[name] = typ
			current = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comments are legal anywhere
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			return fmt.Errorf("line %d: no sample value in %q", i+1, line)
		}
		series, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad sample value %q: %w", i+1, value, err)
		}
		name := series
		var le string
		if b := strings.Index(series, "{"); b >= 0 {
			name = series[:b]
			labels := series[b:]
			if !strings.HasPrefix(labels, `{le="`) || !strings.HasSuffix(labels, `"}`) {
				return fmt.Errorf("line %d: unexpected label set %q", i+1, labels)
			}
			le = labels[len(`{le="`) : len(labels)-len(`"}`)]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok && families[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if base != current {
			return fmt.Errorf("line %d: sample %q outside its family block (current %q)", i+1, name, current)
		}
		typ, ok := families[base]
		if !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE declaration", i+1, name)
		}
		if typ == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if le == "" {
					return fmt.Errorf("line %d: bucket without le label", i+1)
				}
				v, err := strconv.ParseInt(value, 10, 64)
				if err != nil {
					return fmt.Errorf("line %d: bucket count %q: %w", i+1, value, err)
				}
				if v < bucketPrev[base] {
					return fmt.Errorf("line %d: bucket series for %q not cumulative (%d after %d)", i+1, base, v, bucketPrev[base])
				}
				bucketPrev[base] = v
				if le == "+Inf" {
					bucketInf[base] = v
				}
			case strings.HasSuffix(name, "_count"):
				v, _ := strconv.ParseInt(value, 10, 64)
				counts[base] = v
			}
		}
	}
	for base, c := range counts {
		inf, ok := bucketInf[base]
		if !ok {
			return fmt.Errorf("histogram %q has no +Inf bucket", base)
		}
		if inf != c {
			return fmt.Errorf("histogram %q: +Inf bucket %d != _count %d", base, inf, c)
		}
	}
	return nil
}

// validName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		legal := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !legal {
			return false
		}
	}
	return true
}

// Handler serves the registry in exposition format — mount it at
// /metrics.prom.
func Handler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = Write(w, reg.Snapshot())
	})
}
