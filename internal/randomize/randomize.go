// Package randomize implements canvas-randomization defenses (§5.3):
// browser or extension features that add noise to extracted canvas
// pixels, and the analysis of the fingerprinters' counter-measure — the
// double-render inconsistency check of Algorithm 1.
//
// Two noise disciplines exist in the wild and they differ in exactly the
// property the check probes:
//
//   - per-render noise (e.g. the Canvas Fingerprint Defender extension):
//     every extraction gets fresh noise, so rendering the same canvas
//     twice yields different bytes and the fingerprinter detects the
//     defense (and discards the canvas);
//   - per-session noise (e.g. Firefox): one noise pattern per site per
//     session, so repeated renderings agree and the check passes — the
//     fingerprint is poisoned but stable, and the fingerprinter cannot
//     tell (footnote 7).
package randomize

import (
	"fmt"
	"sync/atomic"

	"canvassing/internal/canvas"
	"canvassing/internal/obs/event"
	"canvassing/internal/raster"
	"canvassing/internal/stats"
)

// Mode selects the noise discipline.
type Mode uint8

// Noise disciplines.
const (
	// PerRender draws fresh noise for every extraction.
	PerRender Mode = iota
	// PerSession derives noise from the session seed and canvas content,
	// so identical canvases extract identically within a session.
	PerSession
)

// String names the mode.
func (m Mode) String() string {
	if m == PerSession {
		return "per-session"
	}
	return "per-render"
}

// amplitude is the ± pixel-value perturbation, matching the subtle noise
// real defenses inject.
const amplitude = 1

// Defense is a canvas-randomization implementation.
type Defense struct {
	mode    Mode
	seed    uint64
	counter atomic.Uint64
}

// NewDefense returns a defense with the given discipline.
func NewDefense(mode Mode, seed uint64) *Defense {
	return &Defense{mode: mode, seed: seed}
}

// Mode returns the noise discipline.
func (d *Defense) Mode() Mode { return d.mode }

// Hook returns the canvas extraction hook implementing the defense.
func (d *Defense) Hook() canvas.ExtractHook {
	return func(img *raster.Image) *raster.Image {
		var noiseSeed uint64
		switch d.mode {
		case PerSession:
			// Stable per canvas content: same pixels → same noise.
			noiseSeed = d.seed ^ stats.HashBytes(img.Pix) ^ uint64(img.W)<<32 ^ uint64(img.H)
		default:
			noiseSeed = d.seed ^ d.counter.Add(1)
		}
		return addNoise(img, noiseSeed)
	}
}

// PageHook returns an extraction hook scoped to one page visit. The
// per-render discipline draws noise from (seed, domain, render ordinal
// within the page) rather than the process-global counter Hook uses,
// so the noise a visit sees — and everything downstream of it, like
// interpreter step counts feeding traced visit cost — is a pure
// function of the page, independent of worker scheduling. Per-session
// noise is already content-keyed and needs no scoping.
func (d *Defense) PageHook(domain string) canvas.ExtractHook {
	if d.mode == PerSession {
		return d.Hook()
	}
	base := d.seed ^ stats.HashString("defense-page:"+domain)
	var renders uint64
	return func(img *raster.Image) *raster.Image {
		renders++
		return addNoise(img, base^renders)
	}
}

// addNoise perturbs ~1/16 of pixels' low bits deterministically from seed.
func addNoise(img *raster.Image, seed uint64) *raster.Image {
	out := img.Clone()
	rng := stats.NewRNG(seed)
	for i := 0; i < len(out.Pix); i += 4 {
		// Noise only where something was drawn; fully transparent pixels
		// stay clean (as real farbling implementations behave).
		if out.Pix[i+3] == 0 {
			continue
		}
		r := rng.Uint64()
		if r%16 != 0 {
			continue
		}
		ch := int(r>>8) % 3
		delta := int(r>>16)%(2*amplitude+1) - amplitude
		v := int(out.Pix[i+ch]) + delta
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		out.Pix[i+ch] = uint8(v)
	}
	return out
}

// DetectRandomization runs Algorithm 1 outside a fingerprinting script:
// render twice via the render function and compare. It reports whether a
// randomization defense is detectable.
func DetectRandomization(render func() string) bool {
	return render() != render()
}

// CheckInconsistency applies Algorithm 1 to a site's extraction stream:
// it reports true when the site extracted at least one pair of canvases
// but no two extractions agreed — the signature of a per-render
// randomization defense. Each verdict is recorded to sink (nil
// disables) under the crawl condition label, with the defense mode as
// evidence so a run diff can separate per-render from per-session
// outcomes.
func CheckInconsistency(sink *event.Sink, crawl, site, mode string, dataURLs []string) bool {
	counts := map[string]int{}
	hasPair := false
	for _, u := range dataURLs {
		counts[u]++
		if counts[u] >= 2 {
			hasPair = true
		}
	}
	detected := !hasPair && len(dataURLs) >= 2
	if sink != nil {
		verdict := "consistent"
		if detected {
			verdict = "randomized"
		} else if len(dataURLs) < 2 {
			verdict = "no-pair"
		}
		sink.Record(event.Event{
			Kind:     event.RandomizeVerdict,
			Crawl:    crawl,
			Site:     site,
			Verdict:  verdict,
			Evidence: mode,
			Detail:   fmt.Sprintf("%d extractions, %d distinct", len(dataURLs), len(counts)),
		})
	}
	return detected
}
