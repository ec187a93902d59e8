package canvas

import (
	"canvassing/internal/font"
	"canvassing/internal/geom"
	"canvassing/internal/raster"
)

// SetFont assigns ctx.font from a CSS font string; invalid values are
// ignored per spec.
func (c *Context2D) SetFont(s string) {
	c.trace("font=", []string{s}, "")
	c.rec(opFont, s)
	if f, ok := font.ParseFont(s); ok {
		c.state.font = f
		c.state.fontStr = s
	}
}

// Font returns the current ctx.font string.
func (c *Context2D) Font() string {
	c.trace("font", nil, c.state.fontStr)
	return c.state.fontStr
}

// SetTextAlign assigns ctx.textAlign.
func (c *Context2D) SetTextAlign(s string) {
	c.trace("textAlign=", []string{s}, "")
	c.rec(opTextAlign, s)
	switch s {
	case "start", "end", "left", "right", "center":
		c.state.textAlign = s
	}
}

// SetTextBaseline assigns ctx.textBaseline.
func (c *Context2D) SetTextBaseline(s string) {
	c.trace("textBaseline=", []string{s}, "")
	c.rec(opTextBaseline, s)
	switch s {
	case "alphabetic", "top", "middle", "bottom", "hanging", "ideographic":
		c.state.textBaseline = s
	}
}

// TextMetrics is the object returned by measureText.
type TextMetrics struct {
	Width float64
}

// MeasureText implements ctx.measureText.
func (c *Context2D) MeasureText(text string) TextMetrics {
	w := font.Measure(text, c.state.font)
	c.trace("measureText", []string{text}, fstr(w))
	return TextMetrics{Width: w}
}

// FillText draws filled text at (x, y), as ctx.fillText.
func (c *Context2D) FillText(text string, x, y float64) {
	c.trace("fillText", []string{text, fstr(x), fstr(y)}, "")
	if c.rec(opFillText, text, x, y) {
		return
	}
	c.drawText(text, x, y, c.state.fillPaint, false)
}

// StrokeText draws outlined text, as ctx.strokeText.
func (c *Context2D) StrokeText(text string, x, y float64) {
	c.trace("strokeText", []string{text, fstr(x), fstr(y)}, "")
	if c.rec(opStrokeText, text, x, y) {
		return
	}
	c.drawText(text, x, y, c.state.strokePaint, true)
}

// emojiFace and emojiInk paint the emoji placeholder's face and features.
var (
	emojiFace raster.Paint = raster.Solid{C: raster.RGBA{R: 255, G: 204, B: 51, A: 255}}
	emojiInk  raster.Paint = raster.Solid{C: raster.RGBA{R: 60, G: 40, B: 20, A: 255}}
)

// drawText lays out text, applies alignment/baseline adjustments and the
// machine profile's per-glyph subpixel offsets, then paints every glyph
// stroke through the prevailing transform. The subpixel offsets are the
// text-specific machine entropy: two profiles place the same glyphs a
// fraction of a pixel apart, changing anti-aliased edge pixels only.
func (c *Context2D) drawText(text string, x, y float64, paint raster.Paint, outline bool) {
	f := c.state.font
	switch c.state.textBaseline {
	case "top", "hanging":
		y += font.Ascent(f)
	case "middle":
		y += (font.Ascent(f) - font.Descent(f)) / 2
	case "bottom", "ideographic":
		y -= font.Descent(f)
	}
	switch c.state.textAlign {
	case "center":
		x -= font.Measure(text, f) / 2
	case "right", "end":
		x -= font.Measure(text, f)
	}
	glyphs, _ := font.Layout(text, f, x, y)
	m := c.state.transform
	prof := c.el.profile

	textWidth := raster.StrokeStyle{
		Width:      font.LineWidth(f),
		Cap:        raster.CapRound,
		Join:       raster.JoinRound,
		MiterLimit: 10,
	}
	if outline {
		textWidth.Width = c.state.lineWidth
	}

	penX := x
	for _, g := range glyphs {
		dx, dy := prof.GlyphOffset(g.Rune, penX)
		penX += g.Advance
		if g.Emoji && !outline {
			c.drawEmoji(g, dx, dy, m)
			continue
		}
		r := c.rasterizer()
		for _, stroke := range g.Strokes {
			r.Stroke(c.place(stroke, dx, dy, m), false, textWidth)
		}
		c.rasterize(r, paint)
	}
}

// place maps a glyph stroke, offset by (dx, dy), through m into the
// context's point scratch; the result is valid until the next call.
func (c *Context2D) place(stroke []geom.Point, dx, dy float64, m geom.Matrix) []geom.Point {
	c.pts = c.pts[:0]
	for _, p := range stroke {
		c.pts = append(c.pts, m.Apply(geom.Pt(p.X+dx, p.Y+dy)))
	}
	return c.pts
}

// drawEmoji paints the color-emoji placeholder: filled face disc, then
// stroked features in a dark ink, ignoring the current fill paint the way
// real color-emoji glyphs ignore CSS color.
func (c *Context2D) drawEmoji(g font.Glyph, dx, dy float64, m geom.Matrix) {
	if len(g.Strokes) == 0 {
		return
	}
	face := c.rasterizer()
	face.AddPolygon(c.place(g.Strokes[0], dx, dy, m))
	c.rasterize(face, emojiFace)

	features := c.rasterizer()
	for _, s := range g.Strokes[1:] {
		features.Stroke(c.place(s, dx, dy, m), false, raster.StrokeStyle{
			Width: 1.2, Cap: raster.CapRound, Join: raster.JoinRound, MiterLimit: 10,
		})
	}
	c.rasterize(features, emojiInk)
}
