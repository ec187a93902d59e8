package canvas

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
	"unsafe"

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
	if len(m.entries) == 0 || len(m.entries) > 10000 {
		t.Fatalf("memo holds %d entries", len(m.entries))
	}
}

// contentNoise is a per-session-style hook: its noise is a function of
// the pixels alone, so equal canvases extract equally.
func contentNoise(img *raster.Image) *raster.Image {
	return noisy(img, uint64(crc32.ChecksumIEEE(img.Pix)))
}

// callNoise returns a per-render-style hook: every call draws fresh
// noise, numbered from 1 for each hook it returns.
func callNoise() ExtractHook {
	var calls uint64
	return func(img *raster.Image) *raster.Image {
		calls++
		return noisy(img, calls)
	}
}

// noisy returns a copy of img with the low bit of every 61st byte
// flipped, starting at a byte chosen by seed.
func noisy(img *raster.Image, seed uint64) *raster.Image {
	out := img.Clone()
	for i := int(seed % 61); i < len(out.Pix); i += 61 {
		out.Pix[i] ^= 1
	}
	return out
}

// TestMemoConcurrent: 8 goroutines extract overlapping drawings through
// one memo, on two profiles, without a hook, with contentNoise and with
// a fresh callNoise, and every URL equals a serial render without the
// memo. A worker's renders cycle through 6 of the 12 (profile, drawing)
// pairs, so of its 24 hooked renders at most 6 miss a bitmap entry and
// the rest take their pixels from one.
func TestMemoConcurrent(t *testing.T) {
	profiles := []*machine.Profile{machine.Intel(), machine.AppleM1()}
	render := func(m *Memo, p, i int, format string, hook int) string {
		e := New(profiles[p])
		e.SetMemo(m)
		e.SetExtractHook([]ExtractHook{nil, contentNoise, callNoise()}[hook])
		drawScene(e, i)
		return e.ToDataURL(format, 0)
	}
	formats := []string{"", "image/webp"}
	want := map[string]string{}
	for p := range profiles {
		for i := 0; i < 6; i++ {
			for _, f := range formats {
				for h := 0; h < 3; h++ {
					want[fmt.Sprint(p, i, f, h)] = render(nil, p, i, f, h)
				}
			}
		}
	}
	m := NewMemo()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 36; n++ {
				p, i, f, h := (w+n)%2, (w*5+n)%6, formats[n%2], (w+n/2)%3
				if got := render(m, p, i, f, h); got != want[fmt.Sprint(p, i, f, h)] {
					t.Errorf("worker %d: profile %d drawing %d %q hook %d differs from the serial render", w, p, i, f, h)
				}
			}
		}(w)
	}
	wg.Wait()
	if d, h, b := countKeys(m); d == 0 || h == 0 || d+h > len(want) || b == 0 || b > 2*6 {
		t.Fatalf("memo holds %d drawings, %d hooked canvases and %d bitmaps for %d distinct extractions of 12 drawings",
			d, h, b, len(want))
	}
}

// countKeys counts the drawings, the hooked canvases and the bitmaps m
// holds.
func countKeys(m *Memo) (drawings, hooked, bitmaps int) {
	for k := range m.entries {
		switch k[0] {
		case drawingTag:
			drawings++
		case pixelsTag:
			hooked++
		case bitmapTag:
			bitmaps++
		}
	}
	return drawings, hooked, bitmaps
}

// TestMemoHitSkipsRaster: a drawing the memo holds is served without
// materialising the element, which keeps recording. A hooked element
// rasterises and runs its hook on every call, and shares a URL only
// with extractions whose hooked pixels are identical.
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

	hooked := func(i int, hook ExtractHook) string {
		e := New(nil)
		e.SetMemo(m)
		e.SetExtractHook(hook)
		drawScene(e, i)
		u := e.ToDataURL("", 0)
		if e.img == nil {
			t.Fatal("a hooked extraction must rasterise")
		}
		return u
	}
	calls := 0
	identity := func(img *raster.Image) *raster.Image { calls++; return img }
	if hooked(1, identity) != want || hooked(1, identity) != want || calls != 2 {
		t.Fatalf("a hook that keeps the pixels must give the drawing's URL and run on every call (ran %d times)", calls)
	}
	a, b := hooked(1, contentNoise), hooked(1, contentNoise)
	if a == want {
		t.Fatal("a hook that changes the pixels got its drawing's hook-free URL")
	}
	if a != b || unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("two extractions with identical hooked pixels must share one stored URL")
	}
	if hooked(2, contentNoise) == a {
		t.Fatal("another drawing's hooked pixels got the same URL")
	}
	noise := callNoise()
	if c, d := hooked(1, noise), hooked(1, noise); c == d || c == a || c == want || d == want {
		t.Fatal("extractions with different hooked pixels must get different URLs")
	}
}

// TestHookedMemo: with contentNoise and with callNoise, a run of
// extractions through a shared memo, cold and then warm, returns the
// URLs the same run returns on eager, memo-less elements. Each round
// draws one of three scenes and extracts it twice, so contentNoise
// repeats URLs and callNoise never does, and the memo holds one bitmap
// per scene.
func TestHookedMemo(t *testing.T) {
	run := func(m *Memo, eager bool, hook ExtractHook) []string {
		var urls []string
		for r := 0; r < 9; r++ {
			e := New(nil)
			e.SetMemo(m)
			e.SetExtractHook(hook)
			if eager {
				e.bitmap()
			}
			drawScene(e, r%3)
			urls = append(urls, e.ToDataURL("", 0), e.ToDataURL("image/webp", 0.5))
		}
		return urls
	}
	for name, hook := range map[string]func() ExtractHook{
		"contentNoise": func() ExtractHook { return contentNoise },
		"callNoise":    callNoise,
	} {
		want := run(nil, true, hook())
		m := NewMemo()
		for _, pass := range []string{"cold", "warm"} {
			got := run(m, false, hook())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, memo %s: extraction %d differs from the eager run's", name, pass, i)
				}
			}
		}
		distinct := map[string]bool{}
		for _, u := range want {
			distinct[u] = true
		}
		if d, h, b := countKeys(m); h != len(distinct) || d != 0 || b != 3 {
			t.Fatalf("%s: memo holds %d hooked URLs, %d drawings and %d bitmaps for %d distinct hooked URLs of 3 scenes",
				name, h, d, b, len(distinct))
		}
		if name == "contentNoise" && len(distinct) != 6 || name == "callNoise" && len(distinct) != len(want) {
			t.Fatalf("%s: %d distinct URLs in %d extractions", name, len(distinct), len(want))
		}
	}
}

// TestBitmapHitDrawsLive: an element whose pixels came from a bitmap
// entry is live: drawing after the hooked extraction, with a gradient
// it creates then, reads back what an eager element reads. The hit
// copies the stored pixels, so drawing on the element leaves the entry
// for the next element.
func TestBitmapHitDrawsLive(t *testing.T) {
	draw := func(e *Element) []byte {
		drawScene(e, 1)
		e.ToDataURL("", 0)
		drawScene(e, 2)
		return e.GetContext("2d").GetImageData(0, 0, e.width, e.height).Pix
	}
	eager := New(nil)
	eager.SetExtractHook(contentNoise)
	eager.bitmap()
	want := draw(eager)

	m := NewMemo()
	for round := 0; round < 3; round++ {
		e := New(nil)
		e.SetMemo(m)
		e.SetExtractHook(contentNoise)
		if got := draw(e); !bytes.Equal(got, want) {
			t.Fatalf("round %d: getImageData after drawing on a materialised element differs from an eager one's", round)
		}
		if _, _, b := countKeys(m); b != 1 {
			t.Fatalf("round %d: memo holds %d bitmaps for one drawing", round, b)
		}
	}

	// A hit reads the entry: an element whose entry holds other pixels
	// gets those.
	e := New(nil)
	e.SetMemo(m)
	e.SetExtractHook(contentNoise)
	drawScene(e, 1)
	key := string(e.drawingKey([]byte{bitmapTag}))
	planted := strings.Repeat("\x7f", len(m.entries[key]))
	m.entries[key] = planted
	if got := e.Image().Pix; string(got) != planted || e.ops != nil || e.ctx.grads != nil {
		t.Fatal("a bitmap hit must copy the stored pixels and drop the display list")
	}
}

// TestHookFreeSkipsBitmaps: a hook-free element neither stores nor
// reads a bitmap entry, whatever reads its pixels: it replays its list
// even when the memo holds other pixels under its drawing's key.
func TestHookFreeSkipsBitmaps(t *testing.T) {
	m := NewMemo()
	for _, read := range []func(e *Element){
		func(e *Element) { e.ToDataURL("", 0) },
		func(e *Element) { e.GetContext("2d").GetImageData(0, 0, 4, 4) },
		func(e *Element) { e.Image() },
	} {
		e := New(nil)
		e.SetMemo(m)
		drawScene(e, 3)
		read(e)
		read(e)
	}
	if _, _, b := countKeys(m); b != 0 {
		t.Fatalf("hook-free elements stored %d bitmaps", b)
	}

	eager := New(nil)
	eager.bitmap()
	drawScene(eager, 1)
	e := New(nil)
	e.SetMemo(m)
	drawScene(e, 1)
	m.entries[string(e.drawingKey([]byte{bitmapTag}))] = strings.Repeat("\x7f", len(eager.img.Pix))
	if !bytes.Equal(e.Image().Pix, eager.img.Pix) {
		t.Fatal("a hook-free element read a bitmap entry")
	}
}
