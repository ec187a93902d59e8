package canvassing

import (
	"fmt"
	"os"
	"path/filepath"

	"canvassing/internal/bundle"
	"canvassing/internal/imaging"
	"canvassing/internal/obs/tracez"
)

// WriteBundle writes the study's run bundle to dir: manifest.json,
// metrics.json, trace.jsonl, events.jsonl, telemetry.txt, and — when
// the analyses have run — report.txt with the full experiment suite.
// Two bundles from different runs are compared with cmd/runsdiff.
//
// With Options.TraceVisits the exemplar reservoir is also exported as
// trace_exemplars.jsonl in dir. That file is a sidecar, NOT a bundle
// artifact: it carries volatile wall-clock fields, so it stays outside
// the byte-stability contract and no bundle byte depends on it.
func (s *Study) WriteBundle(dir string) error {
	workers := s.Options.Workers
	if workers <= 0 {
		workers = 8
	}
	m := bundle.Manifest{
		Seed:    s.Options.Seed,
		Scale:   s.Options.Scale,
		Workers: workers,
		Notes:   fmt.Sprintf("canvassing study, adblock=%v m1=%v", s.Options.WithAdblock, s.Options.WithM1),
	}
	if err := bundle.Write(dir, m, s.tel); err != nil {
		return err
	}
	if s.Clustering != nil {
		if err := bundle.WriteReport(dir, "report.txt", s.RenderAll()); err != nil {
			return err
		}
	}
	if s.visits != nil {
		if err := tracez.WriteExemplars(filepath.Join(dir, tracez.ExemplarsFile), s.visits); err != nil {
			return err
		}
	}
	return bundle.WriteReport(dir, "telemetry.txt", s.TelemetryReport())
}

// DumpSampleCanvases writes example canvases from the control crawl to
// dir as PNG files — the Figure 2 / Appendix A.2 artifact: a handful of
// fingerprintable test canvases and one example per exclusion reason.
// It returns the file names written.
func (s *Study) DumpSampleCanvases(dir string, perKind int) ([]string, error) {
	if perKind <= 0 {
		perKind = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("canvassing: %w", err)
	}
	written := []string{}
	counts := map[string]int{}
	for i := range s.Sites {
		st := &s.Sites[i]
		if !st.OK {
			continue
		}
		for _, c := range st.All {
			kind := "fingerprintable"
			if !c.Fingerprintable {
				kind = string(c.Exclude)
			}
			if counts[kind] >= perKind {
				continue
			}
			format, payload, err := imaging.ParseDataURL(c.DataURL)
			if err != nil {
				continue
			}
			ext := "png"
			switch format {
			case imaging.JPEG:
				ext = "jpg"
			case imaging.WebP:
				ext = "webp"
			}
			name := fmt.Sprintf("%s-%02d-%s-%dx%d.%s",
				kind, counts[kind], st.Domain, c.W, c.H, ext)
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, payload, 0o644); err != nil {
				return written, fmt.Errorf("canvassing: %w", err)
			}
			counts[kind]++
			written = append(written, name)
		}
	}
	if len(written) == 0 {
		return nil, fmt.Errorf("canvassing: no canvases to dump (run the control crawl first)")
	}
	return written, nil
}
