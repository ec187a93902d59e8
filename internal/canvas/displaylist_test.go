package canvas

import (
	"fmt"
	"sync"
	"testing"

	"canvassing/internal/machine"
	"canvassing/internal/raster"
)

// drawScene draws a fingerprinting-style scene whose text depends on i.
func drawScene(e *Element, i int) {
	ctx := e.GetContext("2d")
	ctx.SetFont("11pt Arial")
	ctx.SetFillStyle("#f60")
	ctx.FillRect(125, 1, 62, 20)
	ctx.SetFillStyle("#069")
	ctx.FillText(fmt.Sprintf("Cwm fjordbank glyphs vext quiz %d", i), 2, 15)
	g := ctx.CreateLinearGradient(0, 0, 200, 0)
	g.AddColorStop(0, "red")
	g.AddColorStop(1, "blue")
	ctx.SetStrokeGradient(g.Paint())
	ctx.BeginPath()
	ctx.Arc(50, 50, 20, 0, 6.3, false)
	ctx.Stroke()
}

// TestDrawReadLoopReplaysOnce: a page that alternates a draw with a
// pixel read replays its display list once, at the first read, and then
// draws eagerly, so the loop stays linear.
func TestDrawReadLoopReplaysOnce(t *testing.T) {
	e := New(nil)
	ctx := e.GetContext("2d")
	var first []byte
	for i := 0; i < 10000; i++ {
		ctx.SetFillStyle(fmt.Sprintf("rgb(%d, 0, 0)", i%256))
		ctx.FillRect(float64(i%300), 0, 1, 1)
		d := ctx.GetImageData(i%300, 0, 1, 1)
		if d.Pix[0] != uint8(i%256) || d.Pix[3] != 255 {
			t.Fatalf("round %d read %v", i, d.Pix)
		}
		// Every replay allocates a fresh bitmap; one bitmap throughout
		// means one replay.
		if i == 0 {
			first = e.img.Pix
		} else if &e.img.Pix[0] != &first[0] || len(e.ops) != 0 {
			t.Fatalf("round %d: the element replayed again or recorded while live", i)
		}
	}
}

// TestListPastCapGoesLive: a list about to pass maxListBytes is replayed
// and the element draws eagerly from then on, to the same pixels an
// eager element draws. Each call fills its own pixel with a
// translucent color, so the call that trips the cap would show if it
// were both replayed and drawn.
func TestListPastCapGoesLive(t *testing.T) {
	draw := func(e *Element) {
		ctx := e.GetContext("2d")
		ctx.SetFillStyle("rgba(255, 102, 0, 0.5)")
		for i := 0; i < 4000; i++ {
			ctx.FillRect(float64(i%300), float64(i/300), 1, 1)
		}
	}
	rec, eager := New(nil), New(nil)
	eager.bitmap()
	draw(rec)
	draw(eager)
	if rec.img == nil || len(rec.ops) != 0 {
		t.Fatalf("a 4,000-call list is still recording (%d bytes)", len(rec.ops))
	}
	if rec.ToDataURL("", 0) != eager.ToDataURL("", 0) {
		t.Fatal("the element that went live drew different pixels")
	}
	// A reset records again.
	rec.SetWidth(100)
	rec.GetContext("2d").FillRect(0, 0, 5, 5)
	if rec.img != nil || len(rec.ops) == 0 {
		t.Fatal("a reset element must record again")
	}
}

// TestMemoStaysWithinBound: toDataURL at 10,000 distinct qualities adds
// 10,000 distinct keys; the memo empties itself rather than pass its
// byte bound.
func TestMemoStaysWithinBound(t *testing.T) {
	m := NewMemo()
	m.limit = 256 << 10
	want := New(nil)
	want.SetWidth(16)
	want.SetHeight(16)
	want.GetContext("2d").FillRect(2, 2, 8, 8)
	for i := 0; i < 10000; i++ {
		e := New(nil)
		e.SetMemo(m)
		e.SetWidth(16)
		e.SetHeight(16)
		e.GetContext("2d").FillRect(2, 2, 8, 8)
		q := float64(i+1) / 10001
		if got := e.ToDataURL("image/webp", q); got != want.ToDataURL("image/webp", q) {
			t.Fatalf("quality %v: the memo changed the URL", q)
		}
		if m.size > m.limit {
			t.Fatalf("after %d qualities the memo holds %d bytes, over its %d bound", i+1, m.size, m.limit)
		}
	}
	if len(m.urls) == 0 || len(m.urls) > 10000 {
		t.Fatalf("memo holds %d entries", len(m.urls))
	}
}

// TestMemoConcurrent: 8 goroutines extract overlapping drawings through
// one memo, on two profiles, and every URL equals a serial render
// without the memo.
func TestMemoConcurrent(t *testing.T) {
	profiles := []*machine.Profile{machine.Intel(), machine.AppleM1()}
	render := func(m *Memo, p, i int, format string) string {
		e := New(profiles[p])
		e.SetMemo(m)
		drawScene(e, i)
		return e.ToDataURL(format, 0)
	}
	formats := []string{"", "image/webp"}
	want := map[string]string{}
	for p := range profiles {
		for i := 0; i < 6; i++ {
			for _, f := range formats {
				want[fmt.Sprint(p, i, f)] = render(nil, p, i, f)
			}
		}
	}
	m := NewMemo()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 24; n++ {
				p, i, f := (w+n)%2, (w*5+n)%6, formats[n%2]
				if got := render(m, p, i, f); got != want[fmt.Sprint(p, i, f)] {
					t.Errorf("worker %d: profile %d drawing %d %q differs from the serial render", w, p, i, f)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(m.urls); n == 0 || n > len(want) {
		t.Fatalf("memo holds %d entries for %d distinct extractions", n, len(want))
	}
}

// TestMemoHitSkipsRaster: a drawing the memo holds is served without
// materialising the element, which keeps recording, and a hooked or
// live element never consults the memo.
func TestMemoHitSkipsRaster(t *testing.T) {
	m := NewMemo()
	first := New(nil)
	first.SetMemo(m)
	drawScene(first, 1)
	want := first.ToDataURL("", 0)

	second := New(nil)
	second.SetMemo(m)
	drawScene(second, 1)
	if got := second.ToDataURL("", 0); got != want || second.img != nil {
		t.Fatalf("a memo hit must return the stored URL without rasterising (materialised: %v)", second.img != nil)
	}
	// The element keeps recording after a hit: more drawing, a new key.
	second.GetContext("2d").FillRect(0, 0, 5, 5)
	if second.ToDataURL("", 0) == want {
		t.Fatal("drawing after a hit must change the URL")
	}

	hooked := New(nil)
	hooked.SetMemo(m)
	hooked.SetExtractHook(func(img *raster.Image) *raster.Image { return img })
	drawScene(hooked, 2)
	n := len(m.urls)
	hooked.ToDataURL("", 0)
	if len(m.urls) != n {
		t.Fatal("a hooked extraction must not use the memo")
	}
}
