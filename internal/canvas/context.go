package canvas

import (
	"fmt"
	"math"
	"strconv"

	"canvassing/internal/font"
	"canvassing/internal/geom"
	"canvassing/internal/raster"
)

// drawState is the saveable part of a 2D context (the save/restore stack).
type drawState struct {
	fillPaint    raster.Paint
	fillStyleStr string
	strokePaint  raster.Paint
	strokeStyle  string
	lineWidth    float64
	lineCap      raster.LineCap
	lineJoin     raster.LineJoin
	miterLimit   float64
	globalAlpha  float64
	compositeOp  raster.CompositeOp
	font         font.Font
	fontStr      string
	textAlign    string
	textBaseline string
	transform    geom.Matrix
	clip         *geom.Rect
	shadowColor  raster.RGBA
	shadowOX     float64
	shadowOY     float64
	shadowBlur   float64
	lineDash     []float64
	dashOffset   float64
}

func defaultState() drawState {
	return drawState{
		fillPaint:    raster.Solid{C: raster.RGBA{A: 255}},
		fillStyleStr: "#000000",
		strokePaint:  raster.Solid{C: raster.RGBA{A: 255}},
		strokeStyle:  "#000000",
		lineWidth:    1,
		miterLimit:   10,
		globalAlpha:  1,
		font:         font.DefaultFont(),
		fontStr:      "10px sans-serif",
		textAlign:    "start",
		textBaseline: "alphabetic",
		transform:    geom.Identity(),
	}
}

// subpath is a sequence of already-transformed device-space points.
type subpath struct {
	pts    []geom.Point
	closed bool
}

// Context2D is a CanvasRenderingContext2D.
type Context2D struct {
	el    *Element
	state drawState
	stack []drawState
	path  []subpath
	cur   geom.Point // current point (device space)
	began bool

	// r is the one Rasterizer every draw on this context goes through,
	// Reset per glyph or shape, and pts is scratch for the device-space
	// points of one glyph stroke or shadow polygon. Both keep their
	// buffers, so drawing stops allocating once they have grown.
	r   raster.Rasterizer
	pts []geom.Point

	// grads are the gradients the element's display list created, in
	// order; the list refers to them by index.
	grads []*Gradient
}

func newContext2D(e *Element) *Context2D {
	return &Context2D{el: e, state: defaultState()}
}

func (c *Context2D) resetState() {
	c.state = defaultState()
	c.stack = nil
	c.path = nil
	c.began = false
	c.grads = nil
}

func (c *Context2D) trace(member string, args []string, ret string) {
	if c.el.tracer != nil {
		c.el.tracer.Trace("CanvasRenderingContext2D", member, args, ret)
	}
}

func fstr(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Canvas returns the owning element, like the ctx.canvas property.
func (c *Context2D) Canvas() *Element { return c.el }

// --- state save/restore -------------------------------------------------

// Save pushes the current drawing state, as ctx.save().
func (c *Context2D) Save() {
	c.trace("save", nil, "")
	c.rec(opSave, "")
	c.stack = append(c.stack, c.state)
}

// Restore pops the drawing state, as ctx.restore(). Popping an empty stack
// is a no-op, matching the spec.
func (c *Context2D) Restore() {
	c.trace("restore", nil, "")
	c.rec(opRestore, "")
	if n := len(c.stack); n > 0 {
		c.state = c.stack[n-1]
		c.stack = c.stack[:n-1]
	}
}

// --- transforms ----------------------------------------------------------

// Translate applies ctx.translate(x, y).
func (c *Context2D) Translate(x, y float64) {
	c.trace("translate", []string{fstr(x), fstr(y)}, "")
	c.rec(opTranslate, "", x, y)
	c.state.transform = c.state.transform.Translate(x, y)
}

// Scale applies ctx.scale(sx, sy).
func (c *Context2D) Scale(sx, sy float64) {
	c.trace("scale", []string{fstr(sx), fstr(sy)}, "")
	c.rec(opScale, "", sx, sy)
	c.state.transform = c.state.transform.Scale(sx, sy)
}

// Rotate applies ctx.rotate(theta).
func (c *Context2D) Rotate(theta float64) {
	c.trace("rotate", []string{fstr(theta)}, "")
	c.rec(opRotate, "", theta)
	c.state.transform = c.state.transform.Rotate(theta)
}

// Transform applies ctx.transform(a, b, c, d, e, f).
func (c *Context2D) Transform(a, b, cc, d, e, f float64) {
	c.trace("transform", []string{fstr(a), fstr(b), fstr(cc), fstr(d), fstr(e), fstr(f)}, "")
	c.rec(opTransform, "", a, b, cc, d, e, f)
	c.state.transform = c.state.transform.Mul(geom.Matrix{A: a, B: b, C: cc, D: d, E: e, F: f})
}

// SetTransform applies ctx.setTransform(a, b, c, d, e, f).
func (c *Context2D) SetTransform(a, b, cc, d, e, f float64) {
	c.trace("setTransform", []string{fstr(a), fstr(b), fstr(cc), fstr(d), fstr(e), fstr(f)}, "")
	c.rec(opSetTransform, "", a, b, cc, d, e, f)
	c.state.transform = geom.Matrix{A: a, B: b, C: cc, D: d, E: e, F: f}
}

// ResetTransform applies ctx.resetTransform().
func (c *Context2D) ResetTransform() {
	c.trace("resetTransform", nil, "")
	c.rec(opResetTransform, "")
	c.state.transform = geom.Identity()
}

// --- style properties ------------------------------------------------------

// SetFillStyle assigns ctx.fillStyle from a CSS color string. Invalid
// colors are ignored, as in browsers.
func (c *Context2D) SetFillStyle(style string) {
	c.trace("fillStyle=", []string{style}, "")
	c.rec(opFillStyle, style)
	if col, ok := ParseColor(style); ok {
		c.state.fillPaint = raster.Solid{C: col}
		c.state.fillStyleStr = style
	}
}

// SetFillGradient assigns a gradient to ctx.fillStyle.
func (c *Context2D) SetFillGradient(g raster.Paint) {
	c.trace("fillStyle=", []string{"[object CanvasGradient]"}, "")
	if g != nil {
		c.recGradient(opFillGradient, g)
		c.state.fillPaint = g
		c.state.fillStyleStr = "[object CanvasGradient]"
	}
}

// FillStyle returns the current fillStyle string.
func (c *Context2D) FillStyle() string {
	c.trace("fillStyle", nil, c.state.fillStyleStr)
	return c.state.fillStyleStr
}

// SetStrokeStyle assigns ctx.strokeStyle from a CSS color string.
func (c *Context2D) SetStrokeStyle(style string) {
	c.trace("strokeStyle=", []string{style}, "")
	c.rec(opStrokeStyle, style)
	if col, ok := ParseColor(style); ok {
		c.state.strokePaint = raster.Solid{C: col}
		c.state.strokeStyle = style
	}
}

// SetStrokeGradient assigns a gradient to ctx.strokeStyle.
func (c *Context2D) SetStrokeGradient(g raster.Paint) {
	c.trace("strokeStyle=", []string{"[object CanvasGradient]"}, "")
	if g != nil {
		c.recGradient(opStrokeGradient, g)
		c.state.strokePaint = g
		c.state.strokeStyle = "[object CanvasGradient]"
	}
}

// SetLineWidth assigns ctx.lineWidth; non-positive and non-finite values
// are ignored per spec.
func (c *Context2D) SetLineWidth(w float64) {
	c.trace("lineWidth=", []string{fstr(w)}, "")
	c.rec(opLineWidth, "", w)
	if w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w) {
		c.state.lineWidth = w
	}
}

// SetLineCap assigns ctx.lineCap.
func (c *Context2D) SetLineCap(s string) {
	c.trace("lineCap=", []string{s}, "")
	c.rec(opLineCap, s)
	if v, ok := raster.ParseLineCap(s); ok {
		c.state.lineCap = v
	}
}

// SetLineJoin assigns ctx.lineJoin.
func (c *Context2D) SetLineJoin(s string) {
	c.trace("lineJoin=", []string{s}, "")
	c.rec(opLineJoin, s)
	if v, ok := raster.ParseLineJoin(s); ok {
		c.state.lineJoin = v
	}
}

// SetMiterLimit assigns ctx.miterLimit.
func (c *Context2D) SetMiterLimit(v float64) {
	c.trace("miterLimit=", []string{fstr(v)}, "")
	c.rec(opMiterLimit, "", v)
	if v > 0 {
		c.state.miterLimit = v
	}
}

// SetLineDash assigns ctx.setLineDash(segments). Negative entries make
// the call a no-op, per spec.
func (c *Context2D) SetLineDash(segments []float64) {
	args := make([]string, len(segments))
	for i, s := range segments {
		args[i] = fstr(s)
	}
	c.trace("setLineDash", args, "")
	c.rec(opLineDash, "", segments...)
	for _, s := range segments {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return
		}
	}
	c.state.lineDash = append([]float64(nil), segments...)
}

// GetLineDash returns a copy of the current dash pattern.
func (c *Context2D) GetLineDash() []float64 {
	c.trace("getLineDash", nil, "")
	return append([]float64(nil), c.state.lineDash...)
}

// SetLineDashOffset assigns ctx.lineDashOffset.
func (c *Context2D) SetLineDashOffset(v float64) {
	c.trace("lineDashOffset=", []string{fstr(v)}, "")
	c.rec(opLineDashOffset, "", v)
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		c.state.dashOffset = v
	}
}

// SetGlobalAlpha assigns ctx.globalAlpha; out-of-range values ignored.
func (c *Context2D) SetGlobalAlpha(a float64) {
	c.trace("globalAlpha=", []string{fstr(a)}, "")
	c.rec(opGlobalAlpha, "", a)
	if a >= 0 && a <= 1 {
		c.state.globalAlpha = a
	}
}

// SetGlobalCompositeOperation assigns ctx.globalCompositeOperation.
func (c *Context2D) SetGlobalCompositeOperation(s string) {
	c.trace("globalCompositeOperation=", []string{s}, "")
	c.rec(opComposite, s)
	if op, ok := raster.ParseCompositeOp(s); ok {
		c.state.compositeOp = op
	}
}

// GlobalCompositeOperation returns the current operator keyword.
func (c *Context2D) GlobalCompositeOperation() string {
	s := c.state.compositeOp.String()
	c.trace("globalCompositeOperation", nil, s)
	return s
}

// SetShadow configures the shadow properties in one call (the script layer
// maps shadowColor/shadowOffsetX/... assignments onto it).
func (c *Context2D) SetShadow(colorStr string, ox, oy, blur float64) {
	c.trace("shadowColor=", []string{colorStr, fstr(ox), fstr(oy), fstr(blur)}, "")
	c.rec(opShadow, colorStr, ox, oy, blur)
	if col, ok := ParseColor(colorStr); ok {
		c.state.shadowColor = col
	}
	c.state.shadowOX, c.state.shadowOY = ox, oy
	if blur >= 0 {
		c.state.shadowBlur = blur
	}
}

// --- rectangles ------------------------------------------------------------

// FillRect draws a filled rectangle, as ctx.fillRect.
func (c *Context2D) FillRect(x, y, w, h float64) {
	c.trace("fillRect", []string{fstr(x), fstr(y), fstr(w), fstr(h)}, "")
	if c.rec(opFillRect, "", x, y, w, h) {
		return
	}
	poly := c.transformedRect(x, y, w, h)
	if c.hasShadow() {
		c.paintShadow([][]geom.Point{poly})
	}
	c.fillPolys([][]geom.Point{poly}, raster.NonZero)
}

// StrokeRect draws a rectangle outline, as ctx.strokeRect.
func (c *Context2D) StrokeRect(x, y, w, h float64) {
	c.trace("strokeRect", []string{fstr(x), fstr(y), fstr(w), fstr(h)}, "")
	if c.rec(opStrokeRect, "", x, y, w, h) {
		return
	}
	poly := c.transformedRect(x, y, w, h)
	r := c.rasterizer()
	r.Stroke(poly, true, c.strokeStyleNow())
	c.rasterize(r, c.state.strokePaint)
}

// ClearRect clears a rectangle to transparent black, as ctx.clearRect.
// Only axis-aligned clears are modeled (the transform's translation and
// scale are honored; rotation falls back to the bounding box).
func (c *Context2D) ClearRect(x, y, w, h float64) {
	c.trace("clearRect", []string{fstr(x), fstr(y), fstr(w), fstr(h)}, "")
	if c.rec(opClearRect, "", x, y, w, h) {
		return
	}
	poly := c.transformedRect(x, y, w, h)
	bounds := geom.Rect{}
	for _, p := range poly {
		bounds = bounds.ExpandToInclude(p)
	}
	c.el.bitmap().ClearRect(
		int(math.Floor(bounds.Min.X)), int(math.Floor(bounds.Min.Y)),
		int(math.Ceil(bounds.Max.X)), int(math.Ceil(bounds.Max.Y)))
}

func (c *Context2D) transformedRect(x, y, w, h float64) []geom.Point {
	m := c.state.transform
	return []geom.Point{
		m.Apply(geom.Pt(x, y)),
		m.Apply(geom.Pt(x+w, y)),
		m.Apply(geom.Pt(x+w, y+h)),
		m.Apply(geom.Pt(x, y+h)),
	}
}

// --- path construction -------------------------------------------------------

// BeginPath starts a new path, as ctx.beginPath().
func (c *Context2D) BeginPath() {
	c.trace("beginPath", nil, "")
	c.rec(opBeginPath, "")
	c.path = c.path[:0]
	c.began = true
}

// ClosePath closes the current subpath, as ctx.closePath().
func (c *Context2D) ClosePath() {
	c.trace("closePath", nil, "")
	c.rec(opClosePath, "")
	if n := len(c.path); n > 0 && len(c.path[n-1].pts) > 0 {
		c.path[n-1].closed = true
		c.cur = c.path[n-1].pts[0]
	}
}

// MoveTo starts a new subpath at (x, y), as ctx.moveTo.
func (c *Context2D) MoveTo(x, y float64) {
	c.trace("moveTo", []string{fstr(x), fstr(y)}, "")
	c.rec(opMoveTo, "", x, y)
	p := c.state.transform.Apply(geom.Pt(x, y))
	c.path = append(c.path, subpath{pts: []geom.Point{p}})
	c.cur = p
}

// LineTo appends a line segment, as ctx.lineTo.
func (c *Context2D) LineTo(x, y float64) {
	c.rec(opLineTo, "", x, y)
	c.lineTo(x, y)
}

// lineTo is LineTo unrecorded: the segments arcTo adds are part of its
// own recorded call, though the page's trace still shows them.
func (c *Context2D) lineTo(x, y float64) {
	c.trace("lineTo", []string{fstr(x), fstr(y)}, "")
	c.appendPoint(c.state.transform.Apply(geom.Pt(x, y)))
}

// appendPoint adds p to the last subpath, starting one implicitly if none
// exists (the spec's "ensure there is a subpath" step).
func (c *Context2D) appendPoint(p geom.Point) {
	if len(c.path) == 0 {
		c.path = append(c.path, subpath{pts: []geom.Point{p}})
	} else {
		last := &c.path[len(c.path)-1]
		last.pts = append(last.pts, p)
	}
	c.cur = p
}

// QuadraticCurveTo appends a quadratic Bézier, as ctx.quadraticCurveTo.
func (c *Context2D) QuadraticCurveTo(cpx, cpy, x, y float64) {
	c.trace("quadraticCurveTo", []string{fstr(cpx), fstr(cpy), fstr(x), fstr(y)}, "")
	c.rec(opQuadraticCurveTo, "", cpx, cpy, x, y)
	m := c.state.transform
	cp := m.Apply(geom.Pt(cpx, cpy))
	end := m.Apply(geom.Pt(x, y))
	start := c.ensureStart(cp)
	for _, p := range geom.FlattenQuad(nil, start, cp, end, 0.2) {
		c.appendPoint(p)
	}
}

// BezierCurveTo appends a cubic Bézier, as ctx.bezierCurveTo.
func (c *Context2D) BezierCurveTo(c1x, c1y, c2x, c2y, x, y float64) {
	c.trace("bezierCurveTo", []string{fstr(c1x), fstr(c1y), fstr(c2x), fstr(c2y), fstr(x), fstr(y)}, "")
	c.rec(opBezierCurveTo, "", c1x, c1y, c2x, c2y, x, y)
	m := c.state.transform
	c1 := m.Apply(geom.Pt(c1x, c1y))
	c2 := m.Apply(geom.Pt(c2x, c2y))
	end := m.Apply(geom.Pt(x, y))
	start := c.ensureStart(c1)
	for _, p := range geom.FlattenCubic(nil, start, c1, c2, end, 0.2) {
		c.appendPoint(p)
	}
}

// ensureStart returns the current point, creating a subpath at fallback if
// there is none yet.
func (c *Context2D) ensureStart(fallback geom.Point) geom.Point {
	if len(c.path) == 0 || len(c.path[len(c.path)-1].pts) == 0 {
		c.path = append(c.path, subpath{pts: []geom.Point{fallback}})
		c.cur = fallback
	}
	return c.cur
}

// Arc appends a circular arc, as ctx.arc(x, y, r, a0, a1, ccw).
func (c *Context2D) Arc(x, y, radius, a0, a1 float64, ccw bool) {
	c.trace("arc", []string{fstr(x), fstr(y), fstr(radius), fstr(a0), fstr(a1), fmt.Sprint(ccw)}, "")
	c.rec(opArc, "", x, y, radius, a0, a1, b2f(ccw))
	pts := geom.FlattenArc(nil, geom.Pt(x, y), radius, a0, a1, ccw, 0.2)
	m := c.state.transform
	for i, p := range pts {
		dp := m.Apply(p)
		if i == 0 && (len(c.path) == 0 || len(c.path[len(c.path)-1].pts) == 0) {
			c.path = append(c.path, subpath{pts: []geom.Point{dp}})
			c.cur = dp
			continue
		}
		c.appendPoint(dp)
	}
}

// ArcTo appends a tangent arc between the current point and (x2, y2)
// touching the control point (x1, y1), as ctx.arcTo. Degenerate inputs
// (zero radius, collinear points, no current point) reduce to lineTo, as
// the spec requires.
func (c *Context2D) ArcTo(x1, y1, x2, y2, radius float64) {
	c.trace("arcTo", []string{fstr(x1), fstr(y1), fstr(x2), fstr(y2), fstr(radius)}, "")
	c.rec(opArcTo, "", x1, y1, x2, y2, radius)
	m := c.state.transform
	p1 := geom.Pt(x1, y1)
	p2 := geom.Pt(x2, y2)
	if len(c.path) == 0 || len(c.path[len(c.path)-1].pts) == 0 {
		// No current point: behave like moveTo(x1, y1).
		dp := m.Apply(p1)
		c.path = append(c.path, subpath{pts: []geom.Point{dp}})
		c.cur = dp
		return
	}
	// Work in user space: invert the CTM for the current point.
	inv, ok := m.Invert()
	if !ok {
		return
	}
	p0 := inv.Apply(c.cur)
	d0 := p0.Sub(p1)
	d2 := p2.Sub(p1)
	cross := d0.Cross(d2)
	if radius <= 0 || d0.Len() == 0 || d2.Len() == 0 || math.Abs(cross) < 1e-9 {
		c.lineTo(x1, y1)
		return
	}
	u0 := d0.Normalize()
	u2 := d2.Normalize()
	// Half-angle between the two rays; tangent distance from p1.
	cosA := u0.Dot(u2)
	halfAngle := math.Acos(clampUnit(cosA)) / 2
	tanDist := radius / math.Tan(halfAngle)
	t0 := p1.Add(u0.Mul(tanDist)) // tangent point on incoming ray
	t2 := p1.Add(u2.Mul(tanDist)) // tangent point on outgoing ray
	// Arc center: offset from p1 along the angle bisector.
	bis := u0.Add(u2).Normalize()
	centerDist := radius / math.Sin(halfAngle)
	center := p1.Add(bis.Mul(centerDist))
	a0 := math.Atan2(t0.Y-center.Y, t0.X-center.X)
	a1 := math.Atan2(t2.Y-center.Y, t2.X-center.X)
	// arcTo always takes the minor arc between the tangent points.
	delta := math.Mod(a1-a0, 2*math.Pi)
	if delta > math.Pi {
		delta -= 2 * math.Pi
	}
	if delta < -math.Pi {
		delta += 2 * math.Pi
	}
	ccw := delta < 0
	c.lineTo(t0.X, t0.Y)
	pts := geom.FlattenArc(nil, center, radius, a0, a1, ccw, 0.2)
	for _, p := range pts[1:] {
		dp := m.Apply(p)
		c.appendPoint(dp)
	}
}

func clampUnit(v float64) float64 {
	if v < -1 {
		return -1
	}
	if v > 1 {
		return 1
	}
	return v
}

// IsPointInPath reports whether the device-space point (x, y) lies inside
// the current path under the given fill rule, as ctx.isPointInPath.
func (c *Context2D) IsPointInPath(x, y float64, rule string) bool {
	winding := 0
	crossings := 0
	for _, sp := range c.path {
		if len(sp.pts) < 3 {
			continue
		}
		n := len(sp.pts)
		for i := 0; i < n; i++ {
			a, b := sp.pts[i], sp.pts[(i+1)%n]
			if a.Y == b.Y {
				continue
			}
			lo, hi, dir := a, b, 1
			if a.Y > b.Y {
				lo, hi, dir = b, a, -1
			}
			if y < lo.Y || y >= hi.Y {
				continue
			}
			cx := lo.X + (y-lo.Y)*(hi.X-lo.X)/(hi.Y-lo.Y)
			if cx > x {
				winding += dir
				crossings++
			}
		}
	}
	inside := winding != 0
	if rule == "evenodd" {
		inside = crossings%2 == 1
	}
	c.trace("isPointInPath", []string{fstr(x), fstr(y), rule}, fmt.Sprint(inside))
	return inside
}

// Ellipse appends an axis-aligned ellipse arc, as ctx.ellipse (rotation is
// honored via the path transform).
func (c *Context2D) Ellipse(x, y, rx, ry, rotation, a0, a1 float64, ccw bool) {
	c.trace("ellipse", []string{fstr(x), fstr(y), fstr(rx), fstr(ry), fstr(rotation), fstr(a0), fstr(a1), fmt.Sprint(ccw)}, "")
	c.rec(opEllipse, "", x, y, rx, ry, rotation, a0, a1, b2f(ccw))
	if rx < 0 || ry < 0 {
		return
	}
	// Unit-circle arc scaled and rotated into place.
	unit := geom.FlattenArc(nil, geom.Pt(0, 0), 1, a0, a1, ccw, 0.2/math.Max(1, math.Max(rx, ry)))
	em := geom.Identity().Translate(x, y).Rotate(rotation).Scale(rx, ry)
	m := c.state.transform.Mul(em)
	for i, p := range unit {
		dp := m.Apply(p)
		if i == 0 && (len(c.path) == 0 || len(c.path[len(c.path)-1].pts) == 0) {
			c.path = append(c.path, subpath{pts: []geom.Point{dp}})
			c.cur = dp
			continue
		}
		c.appendPoint(dp)
	}
}

// Rect appends a closed rectangle subpath, as ctx.rect.
func (c *Context2D) Rect(x, y, w, h float64) {
	c.trace("rect", []string{fstr(x), fstr(y), fstr(w), fstr(h)}, "")
	c.rec(opRect, "", x, y, w, h)
	poly := c.transformedRect(x, y, w, h)
	c.path = append(c.path, subpath{pts: poly, closed: true})
	c.cur = poly[0]
}

// --- painting ------------------------------------------------------------------

// Fill fills the current path, as ctx.fill(rule).
func (c *Context2D) Fill(rule string) {
	c.trace("fill", []string{rule}, "")
	if c.rec(opFill, rule) {
		return
	}
	fr := raster.NonZero
	if rule == "evenodd" {
		fr = raster.EvenOdd
	}
	polys := make([][]geom.Point, 0, len(c.path))
	for _, sp := range c.path {
		if len(sp.pts) >= 3 {
			polys = append(polys, sp.pts)
		}
	}
	if c.hasShadow() {
		c.paintShadow(polys)
	}
	c.fillPolys(polys, fr)
}

// Stroke strokes the current path, as ctx.stroke().
func (c *Context2D) Stroke() {
	c.trace("stroke", nil, "")
	if c.rec(opStroke, "") {
		return
	}
	r := c.rasterizer()
	st := c.strokeStyleNow()
	for _, sp := range c.path {
		if len(sp.pts) >= 1 {
			r.Stroke(sp.pts, sp.closed, st)
		}
	}
	c.rasterize(r, c.state.strokePaint)
}

// Clip intersects the clip region with the current path's bounding box.
// Full path clipping is approximated by its rectangular bounds, which is
// exact for the rect() clips page scripts overwhelmingly use.
func (c *Context2D) Clip() {
	c.trace("clip", nil, "")
	c.rec(opClip, "")
	bounds := geom.Rect{}
	for _, sp := range c.path {
		for _, p := range sp.pts {
			bounds = bounds.ExpandToInclude(p)
		}
	}
	if bounds.Empty() {
		empty := geom.Rect{}
		c.state.clip = &empty
		return
	}
	if c.state.clip != nil {
		bounds = bounds.Intersect(*c.state.clip)
	}
	c.state.clip = &bounds
}

func (c *Context2D) strokeStyleNow() raster.StrokeStyle {
	// Approximate transformed stroke width by the sqrt of the CTM's
	// area scale, exact for uniform scales.
	scale := math.Sqrt(math.Abs(c.state.transform.Det()))
	if scale == 0 {
		scale = 1
	}
	dash := c.state.lineDash
	if len(dash) > 0 && scale != 1 {
		scaled := make([]float64, len(dash))
		for i, d := range dash {
			scaled[i] = d * scale
		}
		dash = scaled
	}
	return raster.StrokeStyle{
		Width:      c.state.lineWidth * scale,
		Cap:        c.state.lineCap,
		Join:       c.state.lineJoin,
		MiterLimit: c.state.miterLimit,
		Dash:       dash,
		DashOffset: c.state.dashOffset * scale,
	}
}

func (c *Context2D) fillPolys(polys [][]geom.Point, rule raster.FillRule) {
	if len(polys) == 0 {
		return
	}
	r := c.rasterizer()
	for _, p := range polys {
		r.AddPolygon(p)
	}
	c.rasterizeRule(r, c.state.fillPaint, rule)
}

// rasterizer returns the context's Rasterizer, emptied for a new draw.
func (c *Context2D) rasterizer() *raster.Rasterizer {
	c.r.Reset()
	return &c.r
}

func (c *Context2D) rasterize(r *raster.Rasterizer, paint raster.Paint) {
	c.rasterizeRule(r, paint, raster.NonZero)
}

func (c *Context2D) rasterizeRule(r *raster.Rasterizer, paint raster.Paint, rule raster.FillRule) {
	r.Rasterize(c.el.bitmap(), paint, raster.Options{
		Rule:        rule,
		Op:          c.state.compositeOp,
		Alpha:       uint8(c.state.globalAlpha*255 + 0.5),
		CoverageLUT: c.el.profile.CoverageLUT(),
		Clip:        c.state.clip,
	})
}

func (c *Context2D) hasShadow() bool {
	return c.state.shadowColor.A > 0 && (c.state.shadowOX != 0 || c.state.shadowOY != 0 || c.state.shadowBlur > 0)
}

// paintShadow draws an offset silhouette of polys in the shadow color.
// Blur is modeled as reduced alpha rather than a true Gaussian: it keeps
// rendering deterministic and cheap while still being machine- and
// geometry-dependent.
func (c *Context2D) paintShadow(polys [][]geom.Point) {
	r := c.rasterizer()
	for _, poly := range polys {
		c.pts = c.pts[:0]
		for _, p := range poly {
			c.pts = append(c.pts, geom.Pt(p.X+c.state.shadowOX, p.Y+c.state.shadowOY))
		}
		r.AddPolygon(c.pts)
	}
	col := c.state.shadowColor
	if c.state.shadowBlur > 0 {
		f := 1 / (1 + c.state.shadowBlur/4)
		col.A = uint8(float64(col.A) * f)
	}
	r.Rasterize(c.el.bitmap(), raster.Solid{C: col}, raster.Options{
		Op:          c.state.compositeOp,
		Alpha:       uint8(c.state.globalAlpha*255 + 0.5),
		CoverageLUT: c.el.profile.CoverageLUT(),
		Clip:        c.state.clip,
	})
}

// --- gradients -------------------------------------------------------------------

// Gradient is the object returned by createLinearGradient and
// createRadialGradient, mirroring CanvasGradient.
type Gradient struct {
	ctx *Context2D
	lin *raster.LinearGradient
	rad *raster.RadialGradient
}

// AddColorStop adds a color stop, as gradient.addColorStop(pos, color).
// Invalid colors are ignored.
func (g *Gradient) AddColorStop(pos float64, colorStr string) {
	g.ctx.trace("addColorStop", []string{fstr(pos), colorStr}, "")
	if i := g.ctx.gradIndex(g.Paint()); i >= 0 {
		g.ctx.rec(opColorStop, colorStr, float64(i), pos)
	}
	col, ok := ParseColor(colorStr)
	if !ok {
		return
	}
	if g.lin != nil {
		g.lin.AddStop(pos, col)
	} else if g.rad != nil {
		g.rad.AddStop(pos, col)
	}
}

// Paint returns the underlying paint for fillStyle assignment.
func (g *Gradient) Paint() raster.Paint {
	if g.lin != nil {
		return g.lin
	}
	return g.rad
}

// CreateLinearGradient implements ctx.createLinearGradient. Coordinates
// are device-space (the prevailing transform is applied).
func (c *Context2D) CreateLinearGradient(x0, y0, x1, y1 float64) *Gradient {
	c.trace("createLinearGradient", []string{fstr(x0), fstr(y0), fstr(x1), fstr(y1)}, "")
	m := c.state.transform
	p0 := m.Apply(geom.Pt(x0, y0))
	p1 := m.Apply(geom.Pt(x1, y1))
	g := &Gradient{ctx: c, lin: raster.NewLinearGradient(p0.X, p0.Y, p1.X, p1.Y)}
	if c.rec(opLinearGradient, "", x0, y0, x1, y1) {
		c.grads = append(c.grads, g)
	}
	return g
}

// CreateRadialGradient implements a simplified ctx.createRadialGradient
// using the outer circle.
func (c *Context2D) CreateRadialGradient(x0, y0, r0, x1, y1, r1 float64) *Gradient {
	c.trace("createRadialGradient", []string{fstr(x0), fstr(y0), fstr(r0), fstr(x1), fstr(y1), fstr(r1)}, "")
	m := c.state.transform
	p1 := m.Apply(geom.Pt(x1, y1))
	scale := math.Sqrt(math.Abs(m.Det()))
	if scale == 0 {
		scale = 1
	}
	g := &Gradient{ctx: c, rad: raster.NewRadialGradient(p1.X, p1.Y, r1*scale)}
	if c.rec(opRadialGradient, "", x0, y0, r0, x1, y1, r1) {
		c.grads = append(c.grads, g)
	}
	return g
}

// --- pixel access -------------------------------------------------------------------

// ImageData mirrors the ImageData object: RGBA bytes, row-major.
type ImageData struct {
	W, H int
	Pix  []uint8
}

// GetImageData copies pixels out of the canvas, as ctx.getImageData.
// The element's extraction hook (randomization defense) applies. It
// returns nil, which the script layer raises as an error, when w×h is
// over the ImageData area limit.
func (c *Context2D) GetImageData(x, y, w, h int) *ImageData {
	c.trace("getImageData", []string{fmt.Sprint(x), fmt.Sprint(y), fmt.Sprint(w), fmt.Sprint(h)}, "")
	if w <= 0 || h <= 0 {
		return &ImageData{}
	}
	if !fitsArea(w, h) {
		return nil
	}
	src := c.el.bitmap()
	if c.el.extractHook != nil && len(src.Pix) > 0 {
		src = c.el.extractHook(src)
	}
	out := &ImageData{W: w, H: h, Pix: make([]uint8, w*h*4)}
	for row := 0; row < h; row++ {
		for col := 0; col < w; col++ {
			px := src.At(x+col, y+row)
			i := (row*w + col) * 4
			out.Pix[i], out.Pix[i+1], out.Pix[i+2], out.Pix[i+3] = px.R, px.G, px.B, px.A
		}
	}
	return out
}

// PutImageData writes pixels back, as ctx.putImageData (no blending).
func (c *Context2D) PutImageData(d *ImageData, x, y int) {
	c.trace("putImageData", []string{fmt.Sprint(x), fmt.Sprint(y)}, "")
	if d == nil {
		return
	}
	img := c.el.bitmap()
	for row := 0; row < d.H; row++ {
		for col := 0; col < d.W; col++ {
			i := (row*d.W + col) * 4
			img.Set(x+col, y+row, raster.RGBA{
				R: d.Pix[i], G: d.Pix[i+1], B: d.Pix[i+2], A: d.Pix[i+3],
			})
		}
	}
}

// CreateImageData returns a blank ImageData, as ctx.createImageData, or
// nil when w×h is over the ImageData area limit.
func (c *Context2D) CreateImageData(w, h int) *ImageData {
	c.trace("createImageData", []string{fmt.Sprint(w), fmt.Sprint(h)}, "")
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	if !fitsArea(w, h) {
		return nil
	}
	return &ImageData{W: w, H: h, Pix: make([]uint8, w*h*4)}
}

// DrawImage blits another canvas onto this one at (dx, dy), the
// 3-argument ctx.drawImage(canvas, dx, dy) form.
func (c *Context2D) DrawImage(src *Element, dx, dy float64) {
	c.trace("drawImage", []string{"[object HTMLCanvasElement]", fstr(dx), fstr(dy)}, "")
	if src == nil {
		return
	}
	origin := c.state.transform.Apply(geom.Pt(dx, dy))
	ox, oy := int(math.Floor(origin.X+0.5)), int(math.Floor(origin.Y+0.5))
	alpha := uint8(c.state.globalAlpha*255 + 0.5)
	from, to := src.bitmap(), c.el.bitmap()
	for y := 0; y < from.H; y++ {
		for x := 0; x < from.W; x++ {
			px := from.At(x, y)
			if px.A == 0 {
				continue
			}
			to.BlendPixel(ox+x, oy+y, px, alpha, c.state.compositeOp)
		}
	}
}
