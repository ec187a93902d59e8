package raster

import (
	"testing"
	"testing/quick"

	"canvassing/internal/geom"
)

var (
	red   = RGBA{255, 0, 0, 255}
	green = RGBA{0, 255, 0, 255}
	blue  = RGBA{0, 0, 255, 255}
	white = RGBA{255, 255, 255, 255}
)

func fillRect(img *Image, x, y, w, h float64, c RGBA) {
	r := NewRasterizer()
	r.AddPolygon([]geom.Point{
		{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h},
	})
	r.Rasterize(img, Solid{c}, Options{Alpha: 255})
}

func TestImageBasics(t *testing.T) {
	img := NewImage(10, 8)
	if img.W != 10 || img.H != 8 || len(img.Pix) != 10*8*4 {
		t.Fatal("dimensions")
	}
	img.Set(3, 2, red)
	if img.At(3, 2) != red {
		t.Fatal("set/get")
	}
	if img.At(-1, 0) != (RGBA{}) || img.At(10, 0) != (RGBA{}) {
		t.Fatal("out of bounds reads should be zero")
	}
	img.Set(-5, -5, red) // must not panic
	cp := img.Clone()
	if !img.Equal(cp) {
		t.Fatal("clone must be equal")
	}
	cp.Set(0, 0, blue)
	if img.Equal(cp) {
		t.Fatal("clone must be independent")
	}
}

func TestNegativeDimensions(t *testing.T) {
	img := NewImage(-3, -4)
	if img.W != 0 || img.H != 0 {
		t.Fatal("negative dims should clamp to zero")
	}
}

func TestClearRect(t *testing.T) {
	img := NewImage(10, 10)
	img.Clear(red)
	img.ClearRect(2, 2, 5, 5)
	if img.At(3, 3) != (RGBA{}) {
		t.Fatal("inside should be transparent")
	}
	if img.At(6, 6) != red {
		t.Fatal("outside should be untouched")
	}
	img.ClearRect(-10, -10, 100, 100) // clipped, must not panic
	if img.At(9, 9) != (RGBA{}) {
		t.Fatal("full clear")
	}
}

func TestFillRectInterior(t *testing.T) {
	img := NewImage(20, 20)
	fillRect(img, 5, 5, 10, 10, red)
	if img.At(10, 10) != red {
		t.Fatalf("interior pixel = %v", img.At(10, 10))
	}
	if img.At(2, 2) != (RGBA{}) {
		t.Fatal("exterior must stay transparent")
	}
	// Pixel-aligned edges should be fully covered.
	if img.At(5, 5) != red || img.At(14, 14) != red {
		t.Fatalf("aligned edges: %v %v", img.At(5, 5), img.At(14, 14))
	}
	if img.At(15, 15) != (RGBA{}) {
		t.Fatal("outside right/bottom edge must be empty")
	}
}

func TestFillFractionalCoverage(t *testing.T) {
	img := NewImage(10, 10)
	fillRect(img, 2.5, 2, 5, 5, red)
	left := img.At(2, 4)
	if left.A == 0 || left.A == 255 {
		t.Fatalf("half-covered pixel should be partially opaque, alpha=%d", left.A)
	}
	if a := img.At(4, 4).A; a != 255 {
		t.Fatalf("interior alpha=%d", a)
	}
}

func TestFillDeterminism(t *testing.T) {
	render := func() *Image {
		img := NewImage(50, 40)
		r := NewRasterizer()
		r.AddPolygon([]geom.Point{{X: 3.7, Y: 2.2}, {X: 45.1, Y: 8.8}, {X: 20.5, Y: 35.9}})
		r.Rasterize(img, Solid{green}, Options{Alpha: 255})
		return img
	}
	a, b := render(), render()
	if !a.Equal(b) {
		t.Fatal("identical input must produce identical pixels")
	}
}

func TestNonZeroVsEvenOdd(t *testing.T) {
	// Two nested same-direction squares: nonzero fills both, evenodd
	// leaves a hole.
	outer := []geom.Point{{X: 2, Y: 2}, {X: 18, Y: 2}, {X: 18, Y: 18}, {X: 2, Y: 18}}
	inner := []geom.Point{{X: 6, Y: 6}, {X: 14, Y: 6}, {X: 14, Y: 14}, {X: 6, Y: 14}}

	nz := NewImage(20, 20)
	r := NewRasterizer()
	r.AddPolygon(outer)
	r.AddPolygon(inner)
	r.Rasterize(nz, Solid{red}, Options{Rule: NonZero, Alpha: 255})
	if nz.At(10, 10) != red {
		t.Fatal("nonzero should fill nested interior")
	}

	eo := NewImage(20, 20)
	r2 := NewRasterizer()
	r2.AddPolygon(outer)
	r2.AddPolygon(inner)
	r2.Rasterize(eo, Solid{red}, Options{Rule: EvenOdd, Alpha: 255})
	if eo.At(10, 10) == red {
		t.Fatal("evenodd should leave a hole")
	}
	if eo.At(4, 10) != red {
		t.Fatal("evenodd ring must be filled")
	}
}

func TestSourceOverBlending(t *testing.T) {
	img := NewImage(4, 4)
	img.Clear(white)
	img.BlendPixel(1, 1, RGBA{0, 0, 0, 128}, 255, OpSourceOver)
	got := img.At(1, 1)
	if got.A != 255 {
		t.Fatalf("alpha = %d", got.A)
	}
	if got.R < 120 || got.R > 135 {
		t.Fatalf("50%% black over white should be mid gray, got %v", got)
	}
}

func TestCompositeCopy(t *testing.T) {
	img := NewImage(2, 2)
	img.Clear(white)
	img.BlendPixel(0, 0, RGBA{10, 20, 30, 40}, 255, OpCopy)
	if img.At(0, 0) != (RGBA{10, 20, 30, 40}) {
		t.Fatalf("copy should replace: %v", img.At(0, 0))
	}
}

func TestCompositeLighter(t *testing.T) {
	img := NewImage(2, 2)
	img.Clear(RGBA{100, 100, 100, 255})
	img.BlendPixel(0, 0, RGBA{100, 100, 100, 255}, 255, OpLighter)
	got := img.At(0, 0)
	if got.R != 200 {
		t.Fatalf("lighter should add channels: %v", got)
	}
	img.BlendPixel(0, 0, RGBA{100, 100, 100, 255}, 255, OpLighter)
	if img.At(0, 0).R != 255 {
		t.Fatalf("lighter should clamp: %v", img.At(0, 0))
	}
}

func TestCompositeMultiply(t *testing.T) {
	img := NewImage(2, 2)
	img.Clear(RGBA{200, 100, 50, 255})
	img.BlendPixel(0, 0, RGBA{128, 128, 128, 255}, 255, OpMultiply)
	got := img.At(0, 0)
	if got.R < 98 || got.R > 102 {
		t.Fatalf("multiply red ≈ 100, got %v", got)
	}
}

func TestCompositeMultiplyOnTransparent(t *testing.T) {
	// CSS compositing: multiply over an uncovered backdrop shows the
	// source color, not black.
	img := NewImage(2, 2)
	img.BlendPixel(0, 0, RGBA{R: 255, G: 0, B: 255, A: 255}, 255, OpMultiply)
	got := img.At(0, 0)
	if got.R != 255 || got.B != 255 || got.A != 255 {
		t.Fatalf("multiply on transparent should show source: %v", got)
	}
}

func TestCompositeDestinationOver(t *testing.T) {
	img := NewImage(2, 2)
	img.Clear(red)
	img.BlendPixel(0, 0, blue, 255, OpDestinationOver)
	if img.At(0, 0) != red {
		t.Fatal("opaque destination should win under destination-over")
	}
	img2 := NewImage(2, 2)
	img2.BlendPixel(0, 0, blue, 255, OpDestinationOver)
	if img2.At(0, 0).B != 255 {
		t.Fatal("transparent destination should show source")
	}
}

func TestCompositeXOR(t *testing.T) {
	img := NewImage(2, 2)
	img.Clear(red)
	img.BlendPixel(0, 0, blue, 255, OpXOR)
	if img.At(0, 0).A != 0 {
		t.Fatalf("opaque xor opaque should vanish, got %v", img.At(0, 0))
	}
}

func TestParseCompositeOp(t *testing.T) {
	for _, name := range []string{"source-over", "destination-over", "copy", "lighter", "multiply", "xor"} {
		op, ok := ParseCompositeOp(name)
		if !ok {
			t.Fatalf("parse %q", name)
		}
		if op.String() != name {
			t.Fatalf("roundtrip %q -> %q", name, op.String())
		}
	}
	if _, ok := ParseCompositeOp("bogus"); ok {
		t.Fatal("bogus op should not parse")
	}
}

func TestGlobalAlpha(t *testing.T) {
	img := NewImage(10, 10)
	r := NewRasterizer()
	r.AddPolygon([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}})
	r.Rasterize(img, Solid{red}, Options{Alpha: 128})
	a := img.At(5, 5).A
	if a < 125 || a > 131 {
		t.Fatalf("global alpha should be ~128, got %d", a)
	}
}

func TestCoverageLUTChangesEdgesOnly(t *testing.T) {
	render := func(lut *[256]uint8) *Image {
		img := NewImage(20, 20)
		r := NewRasterizer()
		r.AddPolygon([]geom.Point{{X: 2.3, Y: 2.3}, {X: 17.6, Y: 4.1}, {X: 9.2, Y: 17.8}})
		r.Rasterize(img, Solid{red}, Options{Alpha: 255, CoverageLUT: lut})
		return img
	}
	var lut [256]uint8
	for i := range lut {
		v := int(i) + int(i)/8 // mild monotone gamma-ish skew
		if v > 255 {
			v = 255
		}
		lut[i] = uint8(v)
	}
	lut[255] = 255
	lut[0] = 0
	plain := render(nil)
	skewed := render(&lut)
	if plain.Equal(skewed) {
		t.Fatal("LUT should perturb anti-aliased edges")
	}
	// Interior pixels (full coverage) must be identical.
	if plain.At(9, 9) != skewed.At(9, 9) {
		t.Fatal("full-coverage interior must not change")
	}
}

func TestClipRect(t *testing.T) {
	img := NewImage(20, 20)
	clip := geom.RectWH(5, 5, 5, 5)
	r := NewRasterizer()
	r.AddPolygon([]geom.Point{{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 20, Y: 20}, {X: 0, Y: 20}})
	r.Rasterize(img, Solid{red}, Options{Alpha: 255, Clip: &clip})
	if img.At(7, 7) != red {
		t.Fatal("inside clip should paint")
	}
	if img.At(2, 2) != (RGBA{}) || img.At(12, 12) != (RGBA{}) {
		t.Fatal("outside clip must stay empty")
	}
}

func TestStrokeHorizontalLine(t *testing.T) {
	img := NewImage(30, 20)
	r := NewRasterizer()
	r.Stroke([]geom.Point{{X: 5, Y: 10}, {X: 25, Y: 10}}, false, StrokeStyle{Width: 4})
	r.Rasterize(img, Solid{blue}, Options{Alpha: 255})
	if img.At(15, 10) != blue {
		t.Fatal("line center should be painted")
	}
	if img.At(15, 9) != blue || img.At(15, 11) != blue {
		t.Fatal("line width should cover ±2 px")
	}
	if img.At(15, 5) != (RGBA{}) {
		t.Fatal("outside width must be empty")
	}
	if img.At(3, 10) != (RGBA{}) {
		t.Fatal("butt cap should not extend past the endpoint")
	}
}

func TestStrokeCaps(t *testing.T) {
	renderCap := func(c LineCap) *Image {
		img := NewImage(30, 20)
		r := NewRasterizer()
		r.Stroke([]geom.Point{{X: 10, Y: 10}, {X: 20, Y: 10}}, false, StrokeStyle{Width: 6, Cap: c})
		r.Rasterize(img, Solid{blue}, Options{Alpha: 255})
		return img
	}
	butt := renderCap(CapButt)
	round := renderCap(CapRound)
	square := renderCap(CapSquare)
	if butt.At(8, 10).A != 0 {
		t.Fatal("butt cap must stop at endpoint")
	}
	if round.At(8, 10).A == 0 {
		t.Fatal("round cap should extend past endpoint")
	}
	if square.At(8, 10).A == 0 {
		t.Fatal("square cap should extend past endpoint")
	}
	if square.At(7, 7).A == 0 {
		t.Fatal("square cap corner should be filled")
	}
}

func TestStrokeJoinStyles(t *testing.T) {
	render := func(j LineJoin) *Image {
		img := NewImage(40, 40)
		r := NewRasterizer()
		r.Stroke([]geom.Point{{X: 5, Y: 35}, {X: 20, Y: 10}, {X: 35, Y: 35}}, false,
			StrokeStyle{Width: 8, Join: j, MiterLimit: 10})
		r.Rasterize(img, Solid{green}, Options{Alpha: 255})
		return img
	}
	miter := render(JoinMiter)
	bevel := render(JoinBevel)
	round := render(JoinRound)
	// The miter tip extends higher than the bevel at the apex.
	miterTop, bevelTop := 40, 40
	for y := 0; y < 40; y++ {
		if miterTop == 40 && miter.At(20, y).A > 0 {
			miterTop = y
		}
		if bevelTop == 40 && bevel.At(20, y).A > 0 {
			bevelTop = y
		}
	}
	if miterTop >= bevelTop {
		t.Fatalf("miter apex (%d) should be above bevel apex (%d)", miterTop, bevelTop)
	}
	if round.At(20, 12).A == 0 {
		t.Fatal("round join should cover the corner region")
	}
}

func TestStrokeClosedPolygon(t *testing.T) {
	img := NewImage(30, 30)
	r := NewRasterizer()
	r.Stroke([]geom.Point{{X: 5, Y: 5}, {X: 25, Y: 5}, {X: 25, Y: 25}, {X: 5, Y: 25}}, true,
		StrokeStyle{Width: 2})
	r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	if img.At(15, 5).A == 0 || img.At(5, 15).A == 0 || img.At(25, 15).A == 0 || img.At(15, 25).A == 0 {
		t.Fatal("all four sides should be stroked")
	}
	if img.At(15, 15).A != 0 {
		t.Fatal("interior must stay empty")
	}
}

func TestStrokeSinglePointDot(t *testing.T) {
	img := NewImage(20, 20)
	r := NewRasterizer()
	r.Stroke([]geom.Point{{X: 10, Y: 10}}, false, StrokeStyle{Width: 6, Cap: CapRound})
	r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	if img.At(10, 10).A == 0 {
		t.Fatal("round-cap dot should paint")
	}
	img2 := NewImage(20, 20)
	r2 := NewRasterizer()
	r2.Stroke([]geom.Point{{X: 10, Y: 10}}, false, StrokeStyle{Width: 6, Cap: CapButt})
	r2.Rasterize(img2, Solid{red}, Options{Alpha: 255})
	if img2.At(10, 10).A != 0 {
		t.Fatal("butt-cap dot should paint nothing")
	}
}

func TestStrokeDuplicatePoints(t *testing.T) {
	img := NewImage(20, 20)
	r := NewRasterizer()
	r.Stroke([]geom.Point{{X: 5, Y: 10}, {X: 5, Y: 10}, {X: 15, Y: 10}}, false, StrokeStyle{Width: 2})
	r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	if img.At(10, 10).A == 0 {
		t.Fatal("deduped polyline should still stroke")
	}
}

func TestLinearGradient(t *testing.T) {
	g := NewLinearGradient(0, 0, 10, 0)
	g.AddStop(0, RGBA{0, 0, 0, 255})
	g.AddStop(1, RGBA{255, 255, 255, 255})
	left := g.ColorAt(0, 5)
	mid := g.ColorAt(5, 5)
	right := g.ColorAt(9, 5)
	if left.R >= mid.R || mid.R >= right.R {
		t.Fatalf("gradient should increase: %d %d %d", left.R, mid.R, right.R)
	}
	// Clamping beyond the ends.
	if g.ColorAt(-100, 0).R != g.ColorAt(0, 0).R && g.ColorAt(-100, 0).R > 20 {
		t.Fatal("gradient should clamp before start")
	}
	if got := g.ColorAt(1000, 0); got.R != 255 {
		t.Fatalf("gradient should clamp after end: %v", got)
	}
}

func TestGradientNoStops(t *testing.T) {
	g := NewLinearGradient(0, 0, 10, 0)
	if g.ColorAt(5, 5) != (RGBA{}) {
		t.Fatal("no stops should paint transparent black")
	}
	rg := NewRadialGradient(5, 5, 10)
	if rg.ColorAt(5, 5) != (RGBA{}) {
		t.Fatal("no stops should paint transparent black")
	}
}

func TestGradientStopOrdering(t *testing.T) {
	g := NewLinearGradient(0, 0, 100, 0)
	g.AddStop(1, white)
	g.AddStop(0, RGBA{0, 0, 0, 255})
	g.AddStop(0.5, red)
	c := g.ColorAt(50, 0)
	if c.R < 250 || c.G > 5 {
		t.Fatalf("mid stop should be red: %v", c)
	}
	// Out-of-range positions clamp.
	g2 := NewLinearGradient(0, 0, 10, 0)
	g2.AddStop(-5, red)
	g2.AddStop(7, blue)
	if c := g2.ColorAt(0, 0); c.R < 230 {
		t.Fatalf("near-start pixel should be nearly the clamped red stop: %v", c)
	}
}

func TestRadialGradient(t *testing.T) {
	g := NewRadialGradient(10, 10, 8)
	g.AddStop(0, white)
	g.AddStop(1, RGBA{0, 0, 0, 255})
	center := g.ColorAt(10, 10)
	edge := g.ColorAt(17, 10)
	if center.R <= edge.R {
		t.Fatalf("radial center should be brighter: %d vs %d", center.R, edge.R)
	}
}

func TestDegenerateGradient(t *testing.T) {
	g := NewLinearGradient(5, 5, 5, 5) // zero-length axis
	g.AddStop(0, red)
	g.AddStop(1, blue)
	_ = g.ColorAt(3, 3) // must not panic or divide by zero
}

func TestRasterizerReset(t *testing.T) {
	r := NewRasterizer()
	r.AddPolygon([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}})
	r.Reset()
	img := NewImage(10, 10)
	r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	for i := range img.Pix {
		if img.Pix[i] != 0 {
			t.Fatal("reset rasterizer should paint nothing")
		}
	}
}

func TestDegeneratePolygonIgnored(t *testing.T) {
	r := NewRasterizer()
	r.AddPolygon([]geom.Point{{X: 0, Y: 0}, {X: 10, Y: 10}}) // 2 points
	img := NewImage(10, 10)
	r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	if img.At(5, 5).A != 0 {
		t.Fatal("degenerate polygon should be ignored")
	}
}

func TestDiffCount(t *testing.T) {
	a := NewImage(4, 4)
	b := NewImage(4, 4)
	if a.DiffCount(b) != 0 {
		t.Fatal("identical images should diff 0")
	}
	b.Set(0, 0, red)
	if a.DiffCount(b) != 2 { // R byte and A byte differ
		t.Fatalf("diff = %d", a.DiffCount(b))
	}
	if a.DiffCount(NewImage(3, 3)) != -1 {
		t.Fatal("dimension mismatch should return -1")
	}
}

func TestToStdImage(t *testing.T) {
	img := NewImage(2, 1)
	img.Set(0, 0, RGBA{255, 0, 0, 128})
	std := img.ToStdImage()
	r, _, _, a := std.At(0, 0).RGBA()
	if a == 0 || r == 0 {
		t.Fatal("premultiplied conversion lost the pixel")
	}
	if std.Bounds().Dx() != 2 || std.Bounds().Dy() != 1 {
		t.Fatal("bounds")
	}
}

// Property: blending any color with any op never panics and yields
// in-range channel values (uint8 arithmetic guards).
func TestBlendProperty(t *testing.T) {
	f := func(sr, sg, sb, sa, dr, dg, db, da, cov uint8, opRaw uint8) bool {
		img := NewImage(1, 1)
		img.Set(0, 0, RGBA{dr, dg, db, da})
		op := CompositeOp(opRaw % 6)
		img.BlendPixel(0, 0, RGBA{sr, sg, sb, sa}, cov, op)
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: source-over with zero source alpha never changes the pixel.
func TestSourceOverZeroAlphaProperty(t *testing.T) {
	f := func(dr, dg, db, da uint8) bool {
		img := NewImage(1, 1)
		img.Set(0, 0, RGBA{dr, dg, db, da})
		before := img.At(0, 0)
		img.BlendPixel(0, 0, RGBA{1, 2, 3, 0}, 255, OpSourceOver)
		return img.At(0, 0) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDashSegmentsBasic(t *testing.T) {
	line := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	segs, _ := dashSegments(line, false, []float64{10, 10}, 0)
	if len(segs) != 5 {
		t.Fatalf("10/10 over 100px should yield 5 dashes, got %d", len(segs))
	}
	if segs[0][0].X != 0 || segs[0][len(segs[0])-1].X != 10 {
		t.Fatalf("first dash span: %v", segs[0])
	}
	if segs[1][0].X != 20 {
		t.Fatalf("second dash start: %v", segs[1][0])
	}
}

func TestDashSegmentsOffset(t *testing.T) {
	line := []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}
	segs, _ := dashSegments(line, false, []float64{10, 10}, 10)
	// Starts in the gap; first dash begins at x=10.
	if segs[0][0].X != 10 {
		t.Fatalf("offset start: %v", segs[0][0])
	}
	// Negative offsets wrap.
	segsNeg, _ := dashSegments(line, false, []float64{10, 10}, -10)
	if segsNeg[0][0].X != 10 {
		t.Fatalf("negative offset: %v", segsNeg[0][0])
	}
	// Offsets beyond one pattern period wrap too.
	segsBig, _ := dashSegments(line, false, []float64{10, 10}, 30)
	if segsBig[0][0].X != 10 {
		t.Fatalf("wrapped offset: %v", segsBig[0][0])
	}
}

func TestDashSegmentsDegenerate(t *testing.T) {
	line := []geom.Point{{X: 0, Y: 0}, {X: 50, Y: 0}}
	// All-zero pattern: solid line.
	segs, _ := dashSegments(line, false, []float64{0, 0}, 0)
	if len(segs) != 1 || len(segs[0]) != 2 {
		t.Fatalf("zero pattern should stay solid: %v", segs)
	}
	// Negative entry: solid line.
	if got, _ := dashSegments(line, false, []float64{5, -1}, 0); len(got) != 1 {
		t.Fatal("negative pattern should stay solid")
	}
}

// TestDashSegmentsHostile pins the two patterns that used to hang or
// exhaust memory: a huge offset is reduced in one step, and a line that
// needs more than maxDashSegments dashes is stroked solid instead.
func TestDashSegmentsHostile(t *testing.T) {
	line := []geom.Point{{X: 0, Y: 10}, {X: 30, Y: 10}}
	segs, ok := dashSegments(line, false, []float64{1, 1}, 1e300)
	if !ok || len(segs) != 15 {
		t.Fatalf("offset 1e300: %d dashes, ok=%v", len(segs), ok)
	}
	if segs, ok := dashSegments(line, false, []float64{1e-6}, 0); ok || segs != nil {
		t.Fatalf("[1e-6] over 30 px: %d dashes, ok=%v", len(segs), ok)
	}
	long := []geom.Point{{X: 0, Y: 10}, {X: 1e300, Y: 10}}
	if _, ok := dashSegments(long, false, []float64{1, 1}, 0); ok {
		t.Fatal("a 1e300 px line must give up dashing")
	}
	// Past the cap the stroke is exactly the solid one.
	st := StrokeStyle{Width: 2, Cap: CapButt, Join: JoinMiter, MiterLimit: 10}
	draw := func(st StrokeStyle) *Image {
		img := NewImage(40, 20)
		r := NewRasterizer()
		r.Stroke(line, false, st)
		r.Rasterize(img, Solid{RGBA{0, 0, 0, 255}}, Options{Alpha: 0xFF})
		return img
	}
	dashed := st
	dashed.Dash = []float64{1e-6}
	if !draw(dashed).Equal(draw(st)) {
		t.Fatal("a stroke past the dash cap must equal the solid stroke")
	}
}

func TestDashSegmentsClosedPolyline(t *testing.T) {
	square := []geom.Point{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 40, Y: 40}, {X: 0, Y: 40}}
	segs, _ := dashSegments(square, true, []float64{20, 20}, 0)
	// Perimeter 160 → 4 dashes of 20.
	if len(segs) != 4 {
		t.Fatalf("dash count on closed square: %d", len(segs))
	}
	// Dashes follow corners: the second dash spans the first corner.
	second := segs[1]
	hasCorner := false
	for _, p := range second {
		if p.X == 40 && p.Y == 0 {
			hasCorner = true
		}
	}
	if !hasCorner {
		t.Fatalf("dash should bend around the corner: %v", second)
	}
}

func TestDashedStrokePaintsGaps(t *testing.T) {
	img := NewImage(120, 20)
	r := NewRasterizer()
	r.Stroke([]geom.Point{{X: 0, Y: 10}, {X: 120, Y: 10}}, false,
		StrokeStyle{Width: 4, Dash: []float64{12, 12}})
	r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	if img.At(6, 10).A == 0 {
		t.Fatal("dash painted")
	}
	if img.At(18, 10).A != 0 {
		t.Fatal("gap empty")
	}
}

func BenchmarkFillTriangle(b *testing.B) {
	img := NewImage(300, 150)
	for i := 0; i < b.N; i++ {
		r := NewRasterizer()
		r.AddPolygon([]geom.Point{{X: 10, Y: 10}, {X: 290, Y: 40}, {X: 100, Y: 140}})
		r.Rasterize(img, Solid{red}, Options{Alpha: 255})
	}
}

func BenchmarkStroke(b *testing.B) {
	img := NewImage(300, 150)
	pts := []geom.Point{{X: 10, Y: 75}, {X: 80, Y: 20}, {X: 160, Y: 120}, {X: 290, Y: 60}}
	for i := 0; i < b.N; i++ {
		r := NewRasterizer()
		r.Stroke(pts, false, StrokeStyle{Width: 5, Join: JoinRound, Cap: CapRound})
		r.Rasterize(img, Solid{blue}, Options{Alpha: 255})
	}
}
