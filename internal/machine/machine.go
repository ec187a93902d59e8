// Package machine models the hardware/software rendering stack a crawl
// runs on: GPU, operating system, display gamma, anti-aliasing behavior
// and subpixel text positioning.
//
// This is the substitution for real rendering diversity (§3.1 of the
// paper): canvas fingerprints exist because the same Canvas API calls
// produce subtly different pixels on different machines. A Profile
// deterministically perturbs the rasterizer's anti-aliasing coverage and
// the text layer's subpixel placement, so that:
//
//   - the same draw-command stream on the same Profile always yields
//     byte-identical pixels (fingerprints are stable), and
//   - the same stream on a different Profile yields different pixels
//     (fingerprints are discriminating), while
//   - cross-site grouping is invariant: if two sites produce identical
//     canvases on one machine, they do on every machine, which is exactly
//     the validation the paper ran with an Intel desktop and an M1 laptop.
package machine

import (
	"fmt"
	"math"
	"strconv"
	"sync"

	"canvassing/internal/stats"
)

// Profile describes one rendering stack.
type Profile struct {
	// Name is a human-readable identifier, e.g. "intel-ubuntu".
	Name string
	// GPU and OS are the strings a navigator/WebGL probe would reveal.
	GPU string
	OS  string
	// Gamma bends anti-aliasing coverage (display gamma + driver LUTs).
	// 1.0 is linear; real stacks are roughly 0.8–1.3.
	Gamma float64
	// AAStrength scales how much partial coverage survives rounding;
	// models differing MSAA/greyscale-AA implementations.
	AAStrength float64
	// SubpixelJitter is the maximum magnitude, in pixels, of
	// deterministic per-glyph placement offsets (font hinting engines
	// shift glyph outlines by sub-pixel amounts that differ per stack).
	SubpixelJitter float64
	// Seed decorrelates the deterministic jitter across profiles.
	Seed uint64

	lutOnce sync.Once
	lut     *[256]uint8
}

// Intel returns the profile of the paper's primary crawl machine
// (Intel running Ubuntu 22.04).
func Intel() *Profile {
	return &Profile{
		Name:           "intel-ubuntu",
		GPU:            "Mesa Intel(R) UHD Graphics 630",
		OS:             "Linux x86_64",
		Gamma:          1.0,
		AAStrength:     1.0,
		SubpixelJitter: 0.08,
		Seed:           0x1A7E1,
	}
}

// AppleM1 returns the profile of the validation crawl machine
// (Apple-silicon laptop).
func AppleM1() *Profile {
	return &Profile{
		Name:           "apple-m1",
		GPU:            "Apple M1",
		OS:             "macOS arm64",
		Gamma:          1.12,
		AAStrength:     0.94,
		SubpixelJitter: 0.11,
		Seed:           0xA99E1,
	}
}

// Profiles returns the built-in profile set.
func Profiles() []*Profile { return []*Profile{Intel(), AppleM1()} }

// Synthetic derives an arbitrary additional profile from a label, for
// experiments that want a population of machines.
func Synthetic(label string) *Profile {
	h := stats.HashString("machine:" + label)
	return &Profile{
		Name:           label,
		GPU:            fmt.Sprintf("SyntheticGPU-%04x", h&0xFFFF),
		OS:             fmt.Sprintf("SynthOS %d.%d", (h>>16)&7+1, (h>>20)&9),
		Gamma:          0.85 + float64((h>>24)&0xFF)/512.0, // 0.85..1.35
		AAStrength:     0.85 + float64((h>>32)&0xFF)/850.0, // 0.85..1.15
		SubpixelJitter: 0.04 + float64((h>>40)&0x3F)/640.0, // 0.04..0.14
		Seed:           h,
	}
}

// CoverageLUT returns the 256-entry anti-aliasing coverage remap for this
// profile. The LUT is monotone with fixed endpoints (0→0, 255→255), so
// fully-covered and fully-empty pixels are identical across machines and
// only anti-aliased edge pixels differ — matching how real rasterizers
// disagree at glyph and shape edges but not in solid interiors.
// The table is computed once per profile; it sits on the rasterizer's
// hot path.
func (p *Profile) CoverageLUT() *[256]uint8 {
	p.lutOnce.Do(func() { p.lut = p.computeCoverageLUT() })
	return p.lut
}

func (p *Profile) computeCoverageLUT() *[256]uint8 {
	var lut [256]uint8
	inv := 1 / p.Gamma
	for i := 1; i < 255; i++ {
		v := math.Pow(float64(i)/255, inv) * 255 * p.AAStrength
		// Tiny per-profile dither in the low bits, stable per index.
		d := float64(stats.HashString(fmt.Sprintf("%d:%d", p.Seed, i))%3) - 1
		v += d
		if v < 1 {
			v = 1 // monotone floor: nonzero coverage stays nonzero
		}
		if v > 255 {
			v = 255
		}
		lut[i] = uint8(v)
	}
	lut[0] = 0
	lut[255] = 255
	// Enforce monotonicity after dithering.
	for i := 1; i < 256; i++ {
		if lut[i] < lut[i-1] {
			lut[i] = lut[i-1]
		}
	}
	return &lut
}

// GlyphOffset returns the deterministic subpixel offset this machine
// applies when placing glyph r at horizontal pen position penX. Real
// hinting engines decide placement from the glyph and its position; the
// hash makes that decision stable per (machine, glyph, position).
func (p *Profile) GlyphOffset(r rune, penX float64) (dx, dy float64) {
	q := int64(penX * 4) // quantize position to quarter pixels
	// The key is "seed:rune:q" in decimal, built without fmt: it is
	// hashed once per drawn glyph.
	var buf [64]byte
	key := strconv.AppendUint(buf[:0], p.Seed, 10)
	key = append(key, ':')
	key = strconv.AppendInt(key, int64(r), 10)
	key = append(key, ':')
	key = strconv.AppendInt(key, q, 10)
	h := stats.HashBytes(key)
	dx = (float64(h&0xFF)/255 - 0.5) * 2 * p.SubpixelJitter
	dy = (float64((h>>8)&0xFF)/255 - 0.5) * 2 * p.SubpixelJitter
	return dx, dy
}

// UserAgent returns the User-Agent string the crawler presents when
// running on this profile.
func (p *Profile) UserAgent() string {
	return fmt.Sprintf("Mozilla/5.0 (%s) CanvassingCrawler/1.0 GPU/%s", p.OS, p.GPU)
}
