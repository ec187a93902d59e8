// Package font implements the embedded stroke font used by the canvas
// layer: CSS-ish font-string parsing, glyph layout, and text measurement.
//
// Real canvas fingerprinting leans on the enormous diversity of installed
// fonts and text rasterizers. Here that diversity is modeled in two ways:
// glyph skeletons are deterministic, and the *family* requested by the
// draw call perturbs widths and slants slightly (as two real fonts would),
// while per-machine rendering perturbation is layered on top by the canvas
// package using machine profiles.
package font

import (
	"math"
	"strconv"
	"strings"

	"canvassing/internal/geom"
	"canvassing/internal/stats"
)

// unitsPerEm relates glyph-grid units to font pixels: a glyph grid spans
// 18 units from descender (-4) to cap (14); we map size px to 20 units so
// a 20px font has a 14px cap height, close to common latin fonts.
const unitsPerEm = 20.0

// Font is a parsed canvas font specification.
type Font struct {
	SizePx float64
	Family string
	Bold   bool
	Italic bool
}

// DefaultFont is the Canvas default "10px sans-serif".
func DefaultFont() Font { return Font{SizePx: 10, Family: "sans-serif"} }

// ParseFont parses a CSS-like canvas font string: optional "italic" and
// "bold"/numeric weight tokens, a size with px or pt units, then the
// family (possibly quoted, possibly multi-word). It reports whether the
// string was well-formed; on failure the default font is returned,
// matching browsers which ignore invalid assignments to ctx.font.
func ParseFont(s string) (Font, bool) {
	f := DefaultFont()
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) == 0 {
		return f, false
	}
	i := 0
	for i < len(fields) {
		tok := strings.ToLower(fields[i])
		switch {
		case tok == "italic" || tok == "oblique":
			f.Italic = true
			i++
		case tok == "bold" || tok == "bolder":
			f.Bold = true
			i++
		case tok == "normal":
			i++
		case isNumericWeight(tok):
			if w, _ := strconv.Atoi(tok); w >= 600 {
				f.Bold = true
			}
			i++
		default:
			goto size
		}
	}
size:
	if i >= len(fields) {
		return DefaultFont(), false
	}
	sz, ok := parseSize(fields[i])
	if !ok {
		return DefaultFont(), false
	}
	f.SizePx = sz
	i++
	if i >= len(fields) {
		return DefaultFont(), false
	}
	fam := strings.Join(fields[i:], " ")
	fam = strings.Trim(fam, `'"`)
	// Multi-family lists: first family wins (we "have" every font).
	if idx := strings.IndexByte(fam, ','); idx >= 0 {
		fam = strings.Trim(strings.TrimSpace(fam[:idx]), `'"`)
	}
	if fam == "" {
		return DefaultFont(), false
	}
	f.Family = fam
	return f, true
}

func isNumericWeight(s string) bool {
	if len(s) != 3 {
		return false
	}
	n, err := strconv.Atoi(s)
	return err == nil && n >= 100 && n <= 900 && n%100 == 0
}

func parseSize(s string) (float64, bool) {
	switch {
	case strings.HasSuffix(s, "px"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "px"), 64)
		return v, err == nil && v > 0
	case strings.HasSuffix(s, "pt"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "pt"), 64)
		return v * 4 / 3, err == nil && v > 0
	case strings.HasSuffix(s, "em"):
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "em"), 64)
		return v * 16, err == nil && v > 0
	}
	return 0, false
}

// Glyph is one laid-out glyph: its rune, stroke polylines positioned in
// user space (y grows DOWN, matching canvas device coordinates), the pen
// advance it consumed, and whether it is an emoji (color glyph).
type Glyph struct {
	Rune    rune
	Strokes [][]geom.Point
	Advance float64
	Emoji   bool
}

// parsedGlyph is the decoded form of a glyphData entry.
type parsedGlyph struct {
	adv     float64
	strokes [][]geom.Point // grid units, y-up
}

// glyphs is glyphData parsed once at package init, and notdef the one
// box glyph every rune the font lacks shares. Both are read-only after
// init, so lookups take no lock, allocate nothing, and never grow.
var (
	glyphs = parseGlyphTable()
	notdef = parseGlyphSource(notdefGlyph)
)

func parseGlyphTable() map[rune]*parsedGlyph {
	m := make(map[rune]*parsedGlyph, len(glyphData))
	for r, src := range glyphData {
		m[r] = parseGlyphSource(src)
	}
	return m
}

func lookupGlyph(r rune) *parsedGlyph {
	if g, ok := glyphs[r]; ok {
		return g
	}
	return notdef
}

func parseGlyphSource(src string) *parsedGlyph {
	colon := strings.IndexByte(src, ':')
	adv, _ := strconv.ParseFloat(src[:colon], 64)
	g := &parsedGlyph{adv: adv}
	body := src[colon+1:]
	if body == "" {
		return g
	}
	for _, poly := range strings.Split(body, ";") {
		var pts []geom.Point
		for _, pair := range strings.Fields(poly) {
			comma := strings.IndexByte(pair, ',')
			x, _ := strconv.ParseFloat(pair[:comma], 64)
			y, _ := strconv.ParseFloat(pair[comma+1:], 64)
			pts = append(pts, geom.Point{X: x, Y: y})
		}
		if len(pts) >= 2 {
			g.strokes = append(g.strokes, pts)
		}
	}
	return g
}

// FamilyMetrics captures how a requested font family perturbs rendering
// relative to the base design, standing in for real inter-font diversity.
type FamilyMetrics struct {
	WidthFactor float64 // advance-width multiplier, ~0.93..1.07
	SlantRad    float64 // inherent slant, tiny for most families
	WeightBoost float64 // extra stroke weight fraction
}

// Metrics returns the deterministic metrics for a family name.
// Identical names always map to identical metrics; the canonical
// "sans-serif" default is the neutral reference.
func Metrics(family string) FamilyMetrics {
	fam := strings.ToLower(strings.TrimSpace(family))
	if fam == "sans-serif" || fam == "" {
		return FamilyMetrics{WidthFactor: 1}
	}
	h := stats.HashString("font-family:" + fam)
	m := FamilyMetrics{
		WidthFactor: 0.93 + float64(h%1400)/10000.0,       // 0.93 .. 1.07
		SlantRad:    (float64((h>>16)%100) - 50) / 5000.0, // ±0.01 rad
		WeightBoost: float64((h>>32)%20) / 100.0,          // 0 .. 0.19
	}
	if strings.Contains(fam, "mono") || strings.Contains(fam, "courier") {
		m.WidthFactor = 1.1 // monospace reads wider in this design
	}
	if strings.Contains(fam, "serif") && !strings.Contains(fam, "sans") {
		m.WeightBoost += 0.05
	}
	return m
}

// LineWidth returns the stroke width used to draw text of this font.
func LineWidth(f Font) float64 {
	w := math.Max(0.8, f.SizePx/14)
	if f.Bold {
		w *= 1.6
	}
	return w * (1 + Metrics(f.Family).WeightBoost)
}

// Layout positions the glyphs of text starting at pen position (x, y) in
// user space, where y is the text BASELINE and the y axis grows down
// (canvas convention). It returns the laid-out glyphs and the total
// advance width.
func Layout(text string, f Font, x, y float64) ([]Glyph, float64) {
	scale := f.SizePx / unitsPerEm
	fm := Metrics(f.Family)
	slant := fm.SlantRad
	if f.Italic {
		slant += 0.21
	}
	pen := x
	var out []Glyph
	for _, r := range text {
		if isEmoji(r) {
			g := emojiGlyph(r, scale, pen, y)
			out = append(out, g)
			pen += g.Advance
			continue
		}
		pg := lookupGlyph(r)
		adv := pg.adv * scale * fm.WidthFactor
		g := Glyph{Rune: r, Advance: adv}
		for _, poly := range pg.strokes {
			pts := make([]geom.Point, len(poly))
			for i, p := range poly {
				// Flip y (grid is y-up), apply slant shear then pen offset.
				gy := -p.Y * scale
				gx := p.X*scale*fm.WidthFactor - gy*slant
				pts[i] = geom.Point{X: pen + gx, Y: y + gy}
			}
			g.Strokes = append(g.Strokes, pts)
		}
		out = append(out, g)
		pen += adv
	}
	return out, pen - x
}

// Measure returns the advance width of text in f, matching
// ctx.measureText().width.
func Measure(text string, f Font) float64 {
	scale := f.SizePx / unitsPerEm
	fm := Metrics(f.Family)
	w := 0.0
	for _, r := range text {
		if isEmoji(r) {
			w += emojiAdvance * scale
			continue
		}
		w += lookupGlyph(r).adv * scale * fm.WidthFactor
	}
	return w
}

// Ascent returns the distance from baseline to the top of capitals.
func Ascent(f Font) float64 { return 14 * f.SizePx / unitsPerEm }

// Descent returns the distance from baseline to the lowest descender.
func Descent(f Font) float64 { return 4 * f.SizePx / unitsPerEm }

const emojiAdvance = 18.0

// isEmoji reports whether the rune is rendered as a color emoji glyph.
// The ranges cover the emoticon and misc-symbol blocks that fingerprint
// scripts commonly draw (e.g. U+1F603 in FingerprintJS's canvas).
func isEmoji(r rune) bool {
	switch {
	case r >= 0x1F300 && r <= 0x1FAFF:
		return true
	case r >= 0x2600 && r <= 0x27BF:
		return true
	case r == 0x263A || r == 0x2764:
		return true
	}
	return false
}

// emojiGlyph builds the color-emoji placeholder: a face outline with
// rune-dependent features, so distinct emoji produce distinct pixels.
// The canvas layer detects Emoji glyphs and fills rather than strokes the
// first (face) polyline.
func emojiGlyph(r rune, scale, pen, baseline float64) Glyph {
	radius := emojiAdvance / 2 * scale * 0.9
	cx := pen + emojiAdvance/2*scale
	cy := baseline - 7*scale // optical center above baseline

	// Face circle (32-gon).
	face := make([]geom.Point, 0, 32)
	for i := 0; i < 32; i++ {
		a := 2 * math.Pi * float64(i) / 32
		s, c := math.Sincos(a)
		face = append(face, geom.Point{X: cx + radius*c, Y: cy + radius*s})
	}
	// Eyes.
	eyeDY := -radius * 0.3
	eyeDX := radius * 0.35
	eyeR := radius * (0.10 + float64(uint32(r)%5)*0.02)
	mkEye := func(ex float64) []geom.Point {
		pts := make([]geom.Point, 0, 8)
		for i := 0; i < 8; i++ {
			a := 2 * math.Pi * float64(i) / 8
			s, c := math.Sincos(a)
			pts = append(pts, geom.Point{X: ex + eyeR*c, Y: cy + eyeDY + eyeR*s})
		}
		return pts
	}
	// Mouth arc: curvature varies by rune so 😀 and 😜 differ.
	mouth := make([]geom.Point, 0, 9)
	curve := 0.3 + float64(uint32(r)%7)*0.06
	for i := 0; i <= 8; i++ {
		t := float64(i)/8*2 - 1 // -1..1
		mouth = append(mouth, geom.Point{
			X: cx + t*radius*0.55,
			Y: cy + radius*0.35 + (1-t*t)*radius*curve*0.5,
		})
	}
	return Glyph{
		Rune:    r,
		Emoji:   true,
		Advance: emojiAdvance * scale,
		Strokes: [][]geom.Point{face, mkEye(cx - eyeDX), mkEye(cx + eyeDX), mouth},
	}
}
