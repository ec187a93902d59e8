package raster

import (
	"math"
	"slices"

	"canvassing/internal/geom"
)

// FillRule selects the polygon interior test.
type FillRule uint8

// Fill rules matching the Canvas API "nonzero" and "evenodd" keywords.
const (
	NonZero FillRule = iota
	EvenOdd
)

// subSamples is the number of vertical subsample rows per pixel. Horizontal
// coverage is computed analytically per span, so total coverage resolution
// is 4 rows × exact span overlap.
const subSamples = 4

// edge is a directed polygon edge in device space.
type edge struct {
	x0, y0, x1, y1 float64
	dir            int8 // +1 downward, -1 upward
}

// Rasterizer accumulates polygon outlines and renders them with
// anti-aliased coverage into an Image. A Rasterizer may be reused by
// calling Reset; a reused one keeps its edge and scan buffers, so
// drawing with it stops allocating once they have grown to fit. A
// Rasterizer must not be used from several goroutines at once.
type Rasterizer struct {
	edges        []edge // in insertion order
	minY, maxY   float64
	haveGeometry bool
	sc           scan
}

// scan is the scratch state of one Rasterize call: the coverage of one
// pixel row, the crossings of one subsample row, edge indices bucketed by
// the row that first reaches their top (byRow, delimited by rowStart),
// edges no subsample row has reached yet (pending), and, in insertion
// order, the edges the current subsample row can cross (active).
// Rasterize resets every field it reads.
type scan struct {
	cov                    []float64
	crossings              []crossing
	byRow, pending, active []int32
	rowStart               []int
}

type crossing struct {
	x   float64
	dir int8
}

// NewRasterizer returns an empty rasterizer.
func NewRasterizer() *Rasterizer {
	return &Rasterizer{minY: math.Inf(1), maxY: math.Inf(-1)}
}

// Reset discards accumulated geometry, retaining buffers.
func (r *Rasterizer) Reset() {
	r.edges = r.edges[:0]
	r.minY, r.maxY = math.Inf(1), math.Inf(-1)
	r.haveGeometry = false
}

// AddPolygon adds a closed polygon outline given by pts (the closing edge
// from the last to the first point is implicit). Degenerate inputs with
// fewer than three points are ignored.
func (r *Rasterizer) AddPolygon(pts []geom.Point) {
	if len(pts) < 3 {
		return
	}
	for i := 0; i < len(pts); i++ {
		j := (i + 1) % len(pts)
		r.addEdge(pts[i], pts[j])
	}
}

func (r *Rasterizer) addEdge(a, b geom.Point) {
	if a.Y == b.Y {
		return // horizontal edges never cross a scanline
	}
	e := edge{x0: a.X, y0: a.Y, x1: b.X, y1: b.Y, dir: 1}
	if a.Y > b.Y {
		e = edge{x0: b.X, y0: b.Y, x1: a.X, y1: a.Y, dir: -1}
	}
	r.edges = append(r.edges, e)
	r.minY = math.Min(r.minY, e.y0)
	r.maxY = math.Max(r.maxY, e.y1)
	r.haveGeometry = true
}

// Options configures a Rasterize call.
type Options struct {
	Rule  FillRule
	Op    CompositeOp
	Alpha uint8 // global alpha 0..255 applied on top of paint alpha
	// CoverageLUT optionally remaps the 0..255 anti-aliasing coverage
	// before blending. Machine profiles use this to model GPU/driver
	// differences in anti-aliasing: the LUT must be monotone with
	// LUT[0]==0 so geometry is unchanged while edge pixels differ.
	CoverageLUT *[256]uint8
	// Clip, when non-nil, restricts rendering to the given device-space
	// rectangle (used for ctx.clip with rectangular clips).
	Clip *geom.Rect
}

// Rasterize renders the accumulated geometry into img with paint.
func (r *Rasterizer) Rasterize(img *Image, paint Paint, opt Options) {
	if !r.haveGeometry || img.W == 0 || img.H == 0 {
		return
	}
	y0 := int(math.Floor(r.minY))
	y1 := int(math.Ceil(r.maxY))
	if y0 < 0 {
		y0 = 0
	}
	if y1 > img.H {
		y1 = img.H
	}
	clipX0, clipX1 := 0.0, float64(img.W)
	if opt.Clip != nil {
		clipX0 = math.Max(clipX0, opt.Clip.Min.X)
		clipX1 = math.Min(clipX1, opt.Clip.Max.X)
		if cy0 := int(math.Floor(opt.Clip.Min.Y)); cy0 > y0 {
			y0 = cy0
		}
		if cy1 := int(math.Ceil(opt.Clip.Max.Y)); cy1 < y1 {
			y1 = cy1
		}
		if clipX0 >= clipX1 || y0 >= y1 {
			return
		}
	}
	if y0 >= y1 {
		return // also where an infinite or NaN bottom overflowed y1
	}
	sc := &r.sc
	if cap(sc.cov) < img.W {
		sc.cov = make([]float64, img.W)
	}
	cov := sc.cov[:img.W]
	clear(cov)

	// Active-edge scan. Subsample rows only move down, so an edge joins
	// the active list once a row reaches its top and leaves it for good
	// below its bottom. The active list keeps insertion order, so each
	// row's crossings, and with them the sort's result, are exactly those
	// of a scan over every edge: !(sy < y0) and sy >= y1 are that scan's
	// tests, and they admit and keep NaN-ended edges the same way.
	sc.bucketEdges(r.edges, y0, y1)
	sc.pending = sc.pending[:0]
	sc.active = sc.active[:0]
	for y := y0; y < y1; y++ {
		lo, hi := len(cov), -1 // coverage touched in this row
		sc.pending = append(sc.pending, sc.byRow[sc.rowStart[y-y0]:sc.rowStart[y-y0+1]]...)
		for sub := 0; sub < subSamples; sub++ {
			sy := float64(y) + (float64(sub)+0.5)/subSamples
			waiting := sc.pending[:0]
			for _, ei := range sc.pending {
				if sy < r.edges[ei].y0 {
					waiting = append(waiting, ei)
					continue
				}
				sc.active = append(sc.active, ei)
				j := len(sc.active) - 1
				for ; j > 0 && sc.active[j-1] > ei; j-- {
					sc.active[j] = sc.active[j-1]
				}
				sc.active[j] = ei
			}
			sc.pending = waiting
			sc.crossings = sc.crossings[:0]
			kept := sc.active[:0]
			for _, ei := range sc.active {
				e := &r.edges[ei]
				if sy >= e.y1 {
					continue
				}
				kept = append(kept, ei)
				x := e.x0 + (sy-e.y0)*(e.x1-e.x0)/(e.y1-e.y0)
				sc.crossings = append(sc.crossings, crossing{x: x, dir: e.dir})
			}
			sc.active = kept
			if len(sc.crossings) < 2 {
				continue
			}
			sortCrossings(sc.crossings)
			winding := 0
			for i := 0; i < len(sc.crossings)-1; i++ {
				winding += int(sc.crossings[i].dir)
				inside := winding != 0
				if opt.Rule == EvenOdd {
					inside = (i % 2) == 0
				}
				if !inside {
					continue
				}
				xa := math.Max(sc.crossings[i].x, clipX0)
				xb := math.Min(sc.crossings[i+1].x, clipX1)
				if xb <= xa {
					continue
				}
				if first, last := accumulateSpan(cov, xa, xb, 1.0/subSamples); first <= last {
					lo, hi = min(lo, first), max(hi, last)
				}
			}
		}
		for x := lo; x <= hi; x++ {
			c := cov[x]
			if c <= 0 {
				continue
			}
			if c > 1 {
				c = 1
			}
			cv := uint8(math.Floor(c*255 + 0.5))
			if opt.CoverageLUT != nil {
				cv = opt.CoverageLUT[cv]
			}
			if cv == 0 {
				continue
			}
			src := paint.ColorAt(x, y)
			if opt.Alpha != 0xFF {
				src.A = mul255(src.A, opt.Alpha)
			}
			img.BlendPixel(x, y, src, cv, opt.Op)
		}
		if lo <= hi {
			clear(cov[lo : hi+1])
		}
	}
}

// sortCrossings orders crossings by x with the very comparisons and
// swaps of sort.Slice under a.x < b.x, so NaN crossings land in the same
// places: slices.SortFunc runs the same pdqsort and consults only
// "less".
func sortCrossings(cs []crossing) {
	slices.SortFunc(cs, func(a, b crossing) int {
		if a.x < b.x {
			return -1
		}
		return 0
	})
}

// bucketEdges counting-sorts the edge indices by the row in [y0, y1)
// whose subsamples can first reach the edge's top (no row above it
// passes !(sy < top)): bucket b is byRow[rowStart[b]:rowStart[b+1]].
// Tops above y0, NaN included, go to the first row; an edge whose top no
// row reaches is left out.
func (sc *scan) bucketEdges(edges []edge, y0, y1 int) {
	rows := y1 - y0
	row := func(top float64) (int, bool) {
		switch {
		case !(top >= float64(y0)):
			return 0, true
		case top >= float64(y1):
			return 0, false
		}
		return int(top) - y0, true
	}
	sc.rowStart = slices.Grow(sc.rowStart[:0], rows+1)[:rows+1]
	clear(sc.rowStart)
	for _, e := range edges {
		if b, ok := row(e.y0); ok {
			sc.rowStart[b+1]++
		}
	}
	for b := 1; b <= rows; b++ {
		sc.rowStart[b] += sc.rowStart[b-1]
	}
	// Place each edge at its bucket's cursor. That advances rowStart[b]
	// to the end of bucket b; shifting by one restores the starts.
	sc.byRow = slices.Grow(sc.byRow[:0], sc.rowStart[rows])[:sc.rowStart[rows]]
	for i, e := range edges {
		if b, ok := row(e.y0); ok {
			sc.byRow[sc.rowStart[b]] = int32(i)
			sc.rowStart[b]++
		}
	}
	copy(sc.rowStart[1:], sc.rowStart[:rows])
	sc.rowStart[0] = 0
}

// accumulateSpan adds weight×overlap coverage for the horizontal span
// [xa, xb) into cov, handling fractional pixel boundaries, and returns
// the first and last index it touched (first > last when none). A span
// with a NaN end, which an edge running from -Inf to +Inf produces,
// touches nothing: !(xa < xb) holds for it, where xb <= xa does not.
func accumulateSpan(cov []float64, xa, xb, weight float64) (first, last int) {
	if xa < 0 {
		xa = 0
	}
	if xb > float64(len(cov)) {
		xb = float64(len(cov))
	}
	if !(xa < xb) {
		return 0, -1
	}
	ix0 := int(math.Floor(xa))
	ix1 := int(math.Ceil(xb)) - 1
	if ix0 == ix1 {
		cov[ix0] += (xb - xa) * weight
		return ix0, ix0
	}
	cov[ix0] += (float64(ix0+1) - xa) * weight
	for x := ix0 + 1; x < ix1; x++ {
		cov[x] += weight
	}
	if ix1 < len(cov) {
		cov[ix1] += (xb - float64(ix1)) * weight
		return ix0, ix1
	}
	return ix0, ix1 - 1
}
