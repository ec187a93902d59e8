package raster

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"canvassing/internal/geom"
)

// referenceRasterize is the plain all-edges scanline fill: every
// subsample row tests every edge, then sorts the crossings with
// sort.Slice. Rasterize must match it pixel for pixel.
func referenceRasterize(r *Rasterizer, img *Image, paint Paint, opt Options) {
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
	cov := make([]float64, img.W)
	var crossings []crossing
	for y := y0; y < y1; y++ {
		for i := range cov {
			cov[i] = 0
		}
		rowHasCoverage := false
		for sub := 0; sub < subSamples; sub++ {
			sy := float64(y) + (float64(sub)+0.5)/subSamples
			crossings = crossings[:0]
			for _, e := range r.edges {
				if sy < e.y0 || sy >= e.y1 {
					continue
				}
				x := e.x0 + (sy-e.y0)*(e.x1-e.x0)/(e.y1-e.y0)
				crossings = append(crossings, crossing{x: x, dir: e.dir})
			}
			if len(crossings) < 2 {
				continue
			}
			sort.Slice(crossings, func(i, j int) bool {
				return crossings[i].x < crossings[j].x
			})
			winding := 0
			for i := 0; i < len(crossings)-1; i++ {
				winding += int(crossings[i].dir)
				inside := winding != 0
				if opt.Rule == EvenOdd {
					inside = (i % 2) == 0
				}
				if !inside {
					continue
				}
				xa := math.Max(crossings[i].x, clipX0)
				xb := math.Min(crossings[i+1].x, clipX1)
				if xb <= xa {
					continue
				}
				accumulateSpan(cov, xa, xb, 1.0/subSamples)
				rowHasCoverage = true
			}
		}
		if !rowHasCoverage {
			continue
		}
		for x := 0; x < img.W; x++ {
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
	}
}

// rasterizeOutcome runs fill on a copy of base and reports the image, or
// the panic it raised.
func rasterizeOutcome(base *Image, fill func(*Image)) (img *Image, panicked any) {
	img = base.Clone()
	defer func() { panicked = recover() }()
	fill(img)
	return img, nil
}

// oddCoords are the coordinates the canvas layer passes through
// unfiltered: non-finite values and magnitudes that overflow the edge
// interpolation.
var oddCoords = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}

func randomCoord(rng *rand.Rand, span float64, odd bool) float64 {
	if odd && rng.Intn(12) == 0 {
		return oddCoords[rng.Intn(len(oddCoords))]
	}
	return rng.Float64()*span*1.4 - span*0.2
}

// TestRasterizeMatchesReference is the equivalence property: over random
// polygons (self-intersecting ones included), both fill rules, clips, a
// coverage LUT, global alpha and every composite operator, the
// active-edge Rasterize paints exactly the pixels the all-edges scan
// does — and neither panics on hostile coordinates.
func TestRasterizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lut := new([256]uint8)
	for i := range lut {
		lut[i] = uint8(math.Sqrt(float64(i)/255) * 255)
	}
	const W, H = 48, 40
	for trial := 0; trial < 3000; trial++ {
		odd := trial%3 == 2
		r := NewRasterizer()
		for p, np := 0, 1+rng.Intn(3); p < np; p++ {
			pts := make([]geom.Point, 3+rng.Intn(9))
			for i := range pts {
				pts[i] = geom.Point{X: randomCoord(rng, W, odd), Y: randomCoord(rng, H, odd)}
			}
			if rng.Intn(4) == 0 && len(pts) > 3 {
				pts[2].Y = pts[1].Y // horizontal edges are dropped
			}
			r.AddPolygon(pts)
		}
		opt := Options{
			Rule:  FillRule(rng.Intn(2)),
			Op:    CompositeOp(rng.Intn(6)),
			Alpha: []uint8{0xFF, 0x80, 0x10}[rng.Intn(3)],
		}
		if rng.Intn(3) == 0 {
			opt.CoverageLUT = lut
		}
		if rng.Intn(3) == 0 {
			opt.Clip = &geom.Rect{
				Min: geom.Point{X: randomCoord(rng, W, odd), Y: randomCoord(rng, H, odd)},
				Max: geom.Point{X: randomCoord(rng, W, odd), Y: randomCoord(rng, H, odd)},
			}
		}
		base := NewImage(W, H)
		fillRect(base, 5, 5, 20, 20, RGBA{10, 200, 30, 180})
		paint := Solid{RGBA{uint8(rng.Intn(256)), 90, 200, uint8(rng.Intn(256))}}

		want, wantPanic := rasterizeOutcome(base, func(img *Image) { referenceRasterize(r, img, paint, opt) })
		if wantPanic != nil {
			t.Fatalf("trial %d: the reference panicked: %v (edges %v)", trial, wantPanic, r.edges)
		}
		// Twice through the same Rasterizer: its reused buffers must not
		// leak state from one call into the next.
		for pass := 0; pass < 2; pass++ {
			got, gotPanic := rasterizeOutcome(base, func(img *Image) { r.Rasterize(img, paint, opt) })
			if gotPanic != nil {
				t.Fatalf("trial %d pass %d: panicked: %v (edges %v)", trial, pass, gotPanic, r.edges)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d pass %d: %d bytes differ from the reference (edges %v, opt %+v)",
					trial, pass, got.DiffCount(want), r.edges, opt)
			}
		}
	}
}

// BenchmarkRasterizeText mirrors how the canvas draws a line of text:
// each glyph is a few stroked polylines with round caps and joins, filled
// by the context's one Rasterizer, Reset per glyph, onto a
// fingerprinting-sized canvas.
func BenchmarkRasterizeText(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var glyphs [][][]geom.Point
	for g := 0; g < 40; g++ {
		x0 := 4 + float64(g)*6.5
		var strokes [][]geom.Point
		for s := 0; s < 2; s++ {
			pts := make([]geom.Point, 4)
			for i := range pts {
				pts[i] = geom.Point{X: x0 + rng.Float64()*6, Y: 12 + rng.Float64()*14}
			}
			strokes = append(strokes, pts)
		}
		glyphs = append(glyphs, strokes)
	}
	style := StrokeStyle{Width: 1.3, Cap: CapRound, Join: JoinRound, MiterLimit: 10}
	img := NewImage(280, 60)
	paint := Solid{RGBA{0, 102, 153, 255}}
	r := NewRasterizer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range glyphs {
			r.Reset()
			for _, s := range g {
				r.Stroke(s, false, style)
			}
			r.Rasterize(img, paint, Options{Alpha: 0xFF})
		}
	}
}

// TestRasterizeConcurrent fills the same scenes from 8 goroutines at
// once, each with its own Rasterizer and image, as every crawl worker
// draws its own canvases; every image must equal the one drawn alone.
func TestRasterizeConcurrent(t *testing.T) {
	draw := func(seed int64) *Image {
		rng := rand.New(rand.NewSource(seed))
		img := NewImage(64, 48)
		r := NewRasterizer()
		for g := 0; g < 20; g++ {
			r.Reset()
			pts := make([]geom.Point, 3+rng.Intn(6))
			for i := range pts {
				pts[i] = geom.Point{X: rng.Float64() * 64, Y: rng.Float64() * 48}
			}
			r.Stroke(pts, g%2 == 0, StrokeStyle{Width: 1 + rng.Float64()*3, Cap: CapRound, Join: JoinRound})
			r.AddPolygon(pts)
			r.Rasterize(img, Solid{RGBA{uint8(g * 12), 80, 160, 200}}, Options{Alpha: 0xFF, Rule: FillRule(g % 2)})
		}
		return img
	}
	const workers = 8
	want := make([]*Image, workers)
	for w := range want {
		want[w] = draw(int64(w))
	}
	got := make([]*Image, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = draw(int64(w))
		}(w)
	}
	wg.Wait()
	for w := range got {
		if !got[w].Equal(want[w]) {
			t.Errorf("worker %d: %d bytes differ from the sequential drawing", w, got[w].DiffCount(want[w]))
		}
	}
}

// TestReusedRasterizerAllocatesNothing is the steady state the canvas
// relies on: once a Rasterizer's edge and scan buffers have grown to fit
// a glyph, Reset, Stroke and Rasterize allocate nothing.
func TestReusedRasterizerAllocatesNothing(t *testing.T) {
	pts := []geom.Point{{X: 4, Y: 12}, {X: 9, Y: 25}, {X: 15, Y: 14}, {X: 21, Y: 27}}
	style := StrokeStyle{Width: 1.3, Cap: CapRound, Join: JoinRound, MiterLimit: 10}
	img := NewImage(64, 40)
	var paint Paint = Solid{RGBA{0, 102, 153, 255}} // converted once, as a context's fill style is
	r := NewRasterizer()
	draw := func() {
		r.Reset()
		r.Stroke(pts, false, style)
		r.Rasterize(img, paint, Options{Alpha: 0xFF})
	}
	draw()
	if n := testing.AllocsPerRun(100, draw); n != 0 {
		t.Fatalf("Reset+Stroke+Rasterize on a warmed Rasterizer: %v allocs, want 0", n)
	}
}
