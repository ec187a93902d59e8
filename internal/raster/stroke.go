package raster

import (
	"math"

	"canvassing/internal/geom"
)

// LineCap selects stroke end-cap geometry (Canvas lineCap).
type LineCap uint8

// Cap styles.
const (
	CapButt LineCap = iota
	CapRound
	CapSquare
)

// ParseLineCap maps a Canvas lineCap keyword; unknown values keep butt.
func ParseLineCap(s string) (LineCap, bool) {
	switch s {
	case "butt":
		return CapButt, true
	case "round":
		return CapRound, true
	case "square":
		return CapSquare, true
	}
	return CapButt, false
}

// LineJoin selects stroke corner geometry (Canvas lineJoin).
type LineJoin uint8

// Join styles.
const (
	JoinMiter LineJoin = iota
	JoinRound
	JoinBevel
)

// ParseLineJoin maps a Canvas lineJoin keyword; unknown values keep miter.
func ParseLineJoin(s string) (LineJoin, bool) {
	switch s {
	case "miter":
		return JoinMiter, true
	case "round":
		return JoinRound, true
	case "bevel":
		return JoinBevel, true
	}
	return JoinMiter, false
}

// StrokeStyle configures Stroke.
type StrokeStyle struct {
	Width      float64
	Cap        LineCap
	Join       LineJoin
	MiterLimit float64
	// Dash is the on/off segment-length pattern (ctx.setLineDash); empty
	// means solid. DashOffset shifts the pattern start (ctx.lineDashOffset).
	Dash       []float64
	DashOffset float64
}

// Stroke converts a polyline (closed if closed is true) into a set of
// polygons whose non-zero-winding union is the stroked outline, and adds
// them to r. All polygons are emitted with counter-clockwise orientation in
// a y-down coordinate system so overlaps accumulate same-sign winding.
func (r *Rasterizer) Stroke(pts []geom.Point, closed bool, st StrokeStyle) {
	pts = dedupePoints(pts)
	if len(pts) == 0 || st.Width <= 0 {
		return
	}
	if len(st.Dash) > 0 {
		segs, ok := dashSegments(pts, closed, st.Dash, st.DashOffset)
		st.Dash = nil
		st.DashOffset = 0
		if ok {
			for _, seg := range segs {
				r.Stroke(seg, false, st)
			}
			return
		}
		// Past maxDashSegments the path is stroked solid, as Skia gives
		// up dashing past a fixed dash count.
	}
	hw := st.Width / 2
	if len(pts) == 1 {
		// A zero-length subpath paints nothing with butt caps, a dot with
		// round/square caps, matching browser behavior closely enough.
		switch st.Cap {
		case CapRound:
			r.addCircle(pts[0], hw)
		case CapSquare:
			p := pts[0]
			r.AddPolygon([]geom.Point{
				{X: p.X - hw, Y: p.Y - hw}, {X: p.X + hw, Y: p.Y - hw},
				{X: p.X + hw, Y: p.Y + hw}, {X: p.X - hw, Y: p.Y + hw},
			})
		}
		return
	}
	n := len(pts)
	segCount := n - 1
	if closed {
		segCount = n
	}
	for i := 0; i < segCount; i++ {
		a := pts[i]
		b := pts[(i+1)%n]
		q := segmentQuad(a, b, hw)
		r.AddPolygon(q[:])
	}
	// Joins at interior vertices.
	firstJoint, lastJoint := 1, n-1
	if closed {
		firstJoint, lastJoint = 0, n
	}
	for i := firstJoint; i < lastJoint; i++ {
		prev := pts[(i-1+n)%n]
		cur := pts[i]
		next := pts[(i+1)%n]
		r.addJoin(prev, cur, next, hw, st)
	}
	if !closed {
		r.addCap(pts[1], pts[0], hw, st.Cap)
		r.addCap(pts[n-2], pts[n-1], hw, st.Cap)
	}
}

// dedupePoints removes consecutive duplicates which would produce
// degenerate zero-length segments. Without any, it returns pts itself.
func dedupePoints(pts []geom.Point) []geom.Point {
	i := 1
	for i < len(pts) && pts[i] != pts[i-1] {
		i++
	}
	if i >= len(pts) {
		return pts
	}
	out := pts[:0:0]
	for _, p := range pts {
		if len(out) > 0 && out[len(out)-1] == p {
			continue
		}
		out = append(out, p)
	}
	return out
}

// segmentQuad returns the CCW rectangle covering segment a-b widened by hw.
func segmentQuad(a, b geom.Point, hw float64) [4]geom.Point {
	d := b.Sub(a).Normalize()
	nrm := d.Perp().Mul(hw)
	return [4]geom.Point{
		a.Add(nrm), b.Add(nrm), b.Sub(nrm), a.Sub(nrm),
	}
}

func (r *Rasterizer) addJoin(prev, cur, next geom.Point, hw float64, st StrokeStyle) {
	d0 := cur.Sub(prev).Normalize()
	d1 := next.Sub(cur).Normalize()
	cross := d0.Cross(d1)
	if math.Abs(cross) < 1e-12 {
		return // collinear: segment quads already overlap cleanly
	}
	switch st.Join {
	case JoinRound:
		r.addCircle(cur, hw)
	case JoinBevel:
		r.addBevel(cur, d0, d1, hw, cross)
	default: // miter, falling back to bevel past the miter limit
		limit := st.MiterLimit
		if limit <= 0 {
			limit = 10
		}
		// Angle between segments; miter length ratio = 1/sin(theta/2).
		cosTheta := -d0.Dot(d1)
		theta := math.Acos(clampF(cosTheta, -1, 1))
		sinHalf := math.Sin(theta / 2)
		if sinHalf < 1e-9 || 1/sinHalf > limit {
			r.addBevel(cur, d0, d1, hw, cross)
			return
		}
		// Miter tip along the bisector of the outer corner.
		n0 := outerNormal(d0, cross).Mul(hw)
		n1 := outerNormal(d1, cross).Mul(hw)
		bis := n0.Add(n1).Normalize().Mul(hw / sinHalf)
		r.AddPolygon(orientCCW([]geom.Point{
			cur, cur.Add(n0), cur.Add(bis), cur.Add(n1),
		}))
	}
}

// outerNormal returns the unit normal of direction d on the outside of the
// turn indicated by cross (the z cross product of incoming and outgoing
// directions, y-down coordinates).
func outerNormal(d geom.Point, cross float64) geom.Point {
	n := d.Perp()
	if cross > 0 {
		return n.Mul(-1)
	}
	return n
}

func (r *Rasterizer) addBevel(cur, d0, d1 geom.Point, hw, cross float64) {
	n0 := outerNormal(d0, cross).Mul(hw)
	n1 := outerNormal(d1, cross).Mul(hw)
	r.AddPolygon(orientCCW([]geom.Point{cur, cur.Add(n0), cur.Add(n1)}))
}

func (r *Rasterizer) addCap(from, end geom.Point, hw float64, cap LineCap) {
	switch cap {
	case CapRound:
		r.addCircle(end, hw)
	case CapSquare:
		d := end.Sub(from).Normalize()
		nrm := d.Perp().Mul(hw)
		ext := d.Mul(hw)
		r.AddPolygon(orientCCW([]geom.Point{
			end.Add(nrm), end.Add(nrm).Add(ext), end.Sub(nrm).Add(ext), end.Sub(nrm),
		}))
	}
}

// circleSides is the vertex count of the polygon approximating a circle.
const circleSides = 24

// unitCircle holds the sine and cosine of each circle vertex's angle.
var unitCircle = func() (t [circleSides][2]float64) {
	for i := range t {
		t[i][0], t[i][1] = math.Sincos(2 * math.Pi * float64(i) / circleSides)
	}
	return t
}()

// addCircle adds a CCW 24-gon approximating a circle.
func (r *Rasterizer) addCircle(c geom.Point, radius float64) {
	var pts [circleSides]geom.Point
	for i, sc := range unitCircle {
		pts[i] = geom.Point{X: c.X + radius*sc[1], Y: c.Y + radius*sc[0]}
	}
	r.AddPolygon(orientCCW(pts[:]))
}

// orientCCW returns pts ordered counter-clockwise in a y-down coordinate
// system (negative signed area), reversing if needed.
func orientCCW(pts []geom.Point) []geom.Point {
	area := 0.0
	for i := range pts {
		j := (i + 1) % len(pts)
		area += pts[i].Cross(pts[j])
	}
	// In y-down device space a CCW-on-screen polygon has negative
	// shoelace area; what matters here is only that all emitted polygons
	// share a sign, so normalize to negative.
	if area > 0 {
		for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
			pts[i], pts[j] = pts[j], pts[i]
		}
	}
	return pts
}

// maxDashSegments caps the dashes one stroke may emit. A pattern fine
// enough, or a path long enough, to need more (setLineDash([1e-6]) on
// a 30 px line, or any pattern along a 1e300 px line) would otherwise
// exhaust memory or never finish.
const maxDashSegments = 10_000

// dashSegments splits a polyline into the "on" sub-polylines of a dash
// pattern. Odd-length patterns repeat doubled, as the Canvas spec says.
// A pattern with no positive entries yields the original line (drawing
// nothing would hide author mistakes; browsers treat it as solid). It
// reports false when the line needs more than maxDashSegments dashes.
func dashSegments(pts []geom.Point, closed bool, dash []float64, offset float64) ([][]geom.Point, bool) {
	pattern := make([]float64, 0, len(dash)*2)
	total := 0.0
	for _, d := range dash {
		if d < 0 {
			return [][]geom.Point{pts}, true
		}
		total += d
	}
	if total <= 0 {
		return [][]geom.Point{pts}, true
	}
	pattern = append(pattern, dash...)
	if len(pattern)%2 == 1 {
		pattern = append(pattern, dash...)
	}

	walk := pts
	if closed {
		walk = append(append([]geom.Point{}, pts...), pts[0])
	}
	// Position within the repeating pattern.
	patLen := 0.0
	for _, d := range pattern {
		patLen += d
	}
	// One exact step: repeated subtraction never ends once an ulp of the
	// offset exceeds patLen (1e300 - 2 == 1e300).
	pos := math.Mod(offset, patLen)
	if pos < 0 {
		pos += patLen
	}
	if pos >= patLen {
		pos = 0 // a tiny negative remainder rounded up to patLen
	}
	idx := 0
	for pos >= pattern[idx] {
		pos -= pattern[idx]
		idx = (idx + 1) % len(pattern)
	}
	remain := pattern[idx] - pos
	on := idx%2 == 0

	var out [][]geom.Point
	var cur []geom.Point
	flush := func() {
		if len(cur) >= 2 {
			out = append(out, cur)
		}
		cur = nil
	}
	if on {
		cur = append(cur, walk[0])
	}
	for i := 0; i+1 < len(walk); i++ {
		a, b := walk[i], walk[i+1]
		segLen := b.Sub(a).Len()
		t := 0.0
		for segLen-t > remain {
			t += remain
			p := geom.Lerp(a, b, t/segLen)
			if on {
				cur = append(cur, p)
				flush()
				if len(out) > maxDashSegments {
					return nil, false
				}
			} else {
				cur = append(cur, p)
			}
			on = !on
			idx = (idx + 1) % len(pattern)
			remain = pattern[idx]
		}
		remain -= segLen - t
		if on {
			cur = append(cur, b)
		}
	}
	flush()
	return out, true
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
