package canvas

import (
	"testing"

	"canvassing/internal/imaging"
	"canvassing/internal/raster"
)

// blankURL is the PNG data URL of a w×h transparent black bitmap,
// encoded without going through an Element.
func blankURL(t *testing.T, w, h int) string {
	t.Helper()
	data, err := imaging.Encode(raster.NewImage(w, h), imaging.PNG, 0)
	if err != nil {
		t.Fatal(err)
	}
	return imaging.DataURL(imaging.PNG, data)
}

// TestUntouchedCanvasReadsBlank pins what the bitmap allocated on first
// use must preserve: a canvas no draw has touched reads, through every
// pixel reader, exactly as a W×H transparent black bitmap.
func TestUntouchedCanvasReadsBlank(t *testing.T) {
	e := New(nil)
	e.SetWidth(120)
	e.SetHeight(40)
	if got, want := e.ToDataURL("", 0), blankURL(t, 120, 40); got != want {
		t.Fatalf("untouched toDataURL = %.60s, want the blank 120×40 PNG", got)
	}
	if img := e.Image(); img.W != 120 || img.H != 40 || len(img.Pix) != 120*40*4 {
		t.Fatalf("Image() = %d×%d with %d bytes", img.W, img.H, len(img.Pix))
	}

	// getImageData reads zeros, and the extraction hook sees the whole
	// W×H bitmap.
	f := New(nil)
	f.SetWidth(64)
	f.SetHeight(16)
	var hooked [2]int
	f.SetExtractHook(func(img *raster.Image) *raster.Image {
		hooked = [2]int{img.W, img.H}
		return img
	})
	d := f.GetContext("2d").GetImageData(0, 0, 8, 8)
	for i, b := range d.Pix {
		if b != 0 {
			t.Fatalf("getImageData byte %d = %d on an untouched canvas", i, b)
		}
	}
	if hooked != [2]int{64, 16} {
		t.Fatalf("extract hook saw %v, want [64 16]", hooked)
	}

	// drawImage from an untouched source changes nothing.
	dst := New(nil)
	dctx := dst.GetContext("2d")
	dctx.SetFillStyle("#369")
	dctx.FillRect(10, 10, 30, 30)
	before := dst.ToDataURL("", 0)
	dctx.DrawImage(New(nil), 0, 0)
	if dst.ToDataURL("", 0) != before {
		t.Fatal("drawImage from an untouched canvas changed the destination")
	}

	// A resize after drawing clears, to the same bytes as a canvas never
	// drawn on.
	dst.SetWidth(120)
	dst.SetHeight(40)
	if got := dst.ToDataURL("", 0); got != blankURL(t, 120, 40) {
		t.Fatal("a resize after drawing must clear the bitmap")
	}
}

// TestCanvasSizeLimits pins the browser-style limits: a canvas over
// 32,767 px a side or 4096² px in area has no pixels, and no ImageData
// may exceed 4096² px.
func TestCanvasSizeLimits(t *testing.T) {
	for _, size := range [][2]int{{32768, 1}, {1, 32768}, {4097, 4096}, {1e12, 150}, {30000, 30000}} {
		e := New(nil)
		e.SetWidth(size[0])
		e.SetHeight(size[1])
		ctx := e.GetContext("2d")
		ctx.FillRect(0, 0, 10, 10)
		ctx.FillText("over", 2, 8)
		if u := e.ToDataURL("", 0); u != "data:," {
			t.Fatalf("%v: toDataURL = %.40s, want data:,", size, u)
		}
		if img := e.Image(); len(img.Pix) != 0 {
			t.Fatalf("%v: Image() has %d bytes", size, len(img.Pix))
		}
		if d := ctx.GetImageData(0, 0, 2, 2); d == nil || d.Pix[3] != 0 {
			t.Fatalf("%v: getImageData must read transparent, got %v", size, d)
		}
		if e.Width() != size[0] || e.Height() != size[1] {
			t.Fatalf("%v: attributes read %d×%d", size, e.Width(), e.Height())
		}
	}
	// Just under the limits a canvas still draws.
	e := New(nil)
	e.SetWidth(32767)
	e.SetHeight(2)
	e.GetContext("2d").FillRect(0, 0, 4, 4)
	if e.Image().At(1, 1).A != 255 {
		t.Fatal("a 32767×2 canvas must draw")
	}

	ctx := New(nil).GetContext("2d")
	if ctx.GetImageData(0, 0, 4097, 4096) != nil || ctx.CreateImageData(4097, 4096) != nil {
		t.Fatal("an ImageData over 4096² px must be refused")
	}
	if ctx.GetImageData(0, 0, 1e5, 1e5) != nil || ctx.CreateImageData(1<<40, 1<<40) != nil {
		t.Fatal("hostile ImageData sizes must be refused")
	}
	if d := ctx.CreateImageData(2, 3); d == nil || len(d.Pix) != 24 {
		t.Fatal("a small ImageData must be created")
	}
	if !fitsArea(4096, 4096) || fitsArea(4097, 4096) || !fitsArea(1<<50, 0) || fitsArea(1<<62, 1<<62) {
		t.Fatal("fitsArea")
	}
}
