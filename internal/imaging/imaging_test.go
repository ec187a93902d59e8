package imaging

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"image/png"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"canvassing/internal/raster"
)

func testImage() *raster.Image {
	img := raster.NewImage(20, 10)
	for y := 0; y < 10; y++ {
		for x := 0; x < 20; x++ {
			img.Set(x, y, raster.RGBA{R: uint8(x * 12), G: uint8(y * 25), B: 77, A: 255})
		}
	}
	return img
}

func TestParseFormat(t *testing.T) {
	cases := map[string]Format{
		"image/png":  PNG,
		"image/jpeg": JPEG,
		"image/jpg":  JPEG,
		"image/webp": WebP,
		"":           PNG,
		"image/gif":  PNG, // unsupported falls back to png per spec
		"IMAGE/WEBP": WebP,
	}
	for in, want := range cases {
		if got := ParseFormat(in); got != want {
			t.Fatalf("ParseFormat(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestLossy(t *testing.T) {
	if PNG.Lossy() {
		t.Fatal("png is lossless")
	}
	if !JPEG.Lossy() || !WebP.Lossy() {
		t.Fatal("jpeg and webp are lossy")
	}
}

func TestEncodePNGRoundtrip(t *testing.T) {
	img := testImage()
	data, err := Encode(img, PNG, 0)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Bounds().Dx() != 20 || decoded.Bounds().Dy() != 10 {
		t.Fatal("dimension mismatch")
	}
	r, g, _, _ := decoded.At(5, 2).RGBA()
	if uint8(r>>8) != 60 || uint8(g>>8) != 50 {
		t.Fatalf("pixel mismatch: r=%d g=%d", r>>8, g>>8)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	img := testImage()
	for _, f := range []Format{PNG, JPEG, WebP} {
		a, err := Encode(img, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(img, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s encoding must be deterministic", f)
		}
	}
}

// TestPooledPNGMatchesStdlib encodes images of growing and shrinking
// size, opaque and translucent, on 4 goroutines at once through the
// pooled encoder, so each pooled compressor is reset and reused across
// sizes, and requires every output to equal png.Encode's byte for
// byte. make race runs it under the race detector.
func TestPooledPNGMatchesStdlib(t *testing.T) {
	sizes := [][2]int{{20, 10}, {300, 60}, {1, 1}, {320, 90}, {7, 3}, {120, 120}, {2, 50}}
	imgs := make([]*raster.Image, len(sizes))
	want := make([][]byte, len(sizes))
	for i, sz := range sizes {
		img := raster.NewImage(sz[0], sz[1])
		for y := 0; y < sz[1]; y++ {
			for x := 0; x < sz[0]; x++ {
				img.Set(x, y, raster.RGBA{R: uint8(x*7 + i), G: uint8(y * 13), B: uint8(x ^ y), A: uint8(255 - (x+y)%3*100*(i%2))})
			}
		}
		imgs[i] = img
		var buf bytes.Buffer
		if err := png.Encode(&buf, img.ToStdImage()); err != nil {
			t.Fatal(err)
		}
		want[i] = buf.Bytes()
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range imgs {
					i := (k + g) % len(imgs)
					if round%2 == 1 {
						i = len(imgs) - 1 - i
					}
					got, err := Encode(imgs[i], PNG, 0)
					if err != nil || !bytes.Equal(got, want[i]) {
						errs <- fmt.Sprintf("goroutine %d round %d: %dx%d differs from png.Encode (err %v)", g, round, sizes[i][0], sizes[i][1], err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPNGMatchesPremultipliedEncode: Encode writes PNGs from
// non-premultiplied pixels through unpremul, and the bytes must equal
// png.Encode of ToStdImage's premultiplied copy, the encoding every
// canvas fingerprint was pinned with. A 256×256 image holds every
// (channel, alpha) pair, once opaque and translucent alike; random
// images follow, a third of them opaque, since png.Encoder writes
// opaque images without their alpha.
func TestPNGMatchesPremultipliedEncode(t *testing.T) {
	check := func(name string, img *raster.Image) {
		t.Helper()
		var want bytes.Buffer
		if err := png.Encode(&want, img.ToStdImage()); err != nil {
			t.Fatal(err)
		}
		got, err := Encode(img, PNG, 0)
		if err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: Encode differs from png.Encode(ToStdImage()) (err %v)", name, err)
		}
	}
	all := raster.NewImage(256, 256)
	for a := 0; a < 256; a++ {
		for c := 0; c < 256; c++ {
			all.Set(c, a, raster.RGBA{R: uint8(c), G: uint8(255 - c), B: uint8(c * 37), A: uint8(a)})
		}
	}
	check("every (channel, alpha) pair", all)
	rng := rand.New(rand.NewPCG(3, 5))
	for i := 0; i < 60; i++ {
		img := raster.NewImage(1+rng.IntN(90), 1+rng.IntN(40))
		for j := range img.Pix {
			img.Pix[j] = uint8(rng.IntN(256))
			if j%4 == 3 && i%3 == 0 {
				img.Pix[j] = 255
			}
		}
		check(fmt.Sprintf("random image %d (%dx%d)", i, img.W, img.H), img)
	}
}

func TestJPEGIsLossyInPractice(t *testing.T) {
	img := testImage()
	data, err := Encode(img, JPEG, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || bytes.Equal(data[:4], []byte("\x89PNG")) {
		t.Fatal("should be jpeg bytes")
	}
}

func TestWebPSimRoundtrip(t *testing.T) {
	img := testImage()
	data, err := Encode(img, WebP, 0.92)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[0:4]) != "RIFF" || string(data[8:12]) != "WEBP" {
		t.Fatal("container tags missing")
	}
	back, err := DecodeWebPSim(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != img.W || back.H != img.H {
		t.Fatal("dimensions lost")
	}
	// Lossy: quantization must have destroyed some low bits.
	if back.Equal(img) {
		t.Fatal("webp-sim should be lossy")
	}
	// But it should be close (quality 0.92 → small step).
	c0, c1 := img.At(3, 3), back.At(3, 3)
	if int(c0.R)-int(c1.R) > 4 || int(c1.R) > int(c0.R) {
		t.Fatalf("quantization too aggressive: %v vs %v", c0, c1)
	}
}

func TestWebPSimQualityAffectsLoss(t *testing.T) {
	img := testImage()
	hi, _ := Encode(img, WebP, 0.95)
	lo, _ := Encode(img, WebP, 0.10)
	hiImg, _ := DecodeWebPSim(hi)
	loImg, _ := DecodeWebPSim(lo)
	if hiImg.DiffCount(img) >= loImg.DiffCount(img) {
		t.Fatal("lower quality should lose more detail")
	}
}

// TestEncodeOutOfRangeQuality: a quality outside (0, 1], NaN included,
// encodes every format at the default quality. NaN used to reach the
// webp quantiser as a zero step and panic with a division by zero.
func TestEncodeOutOfRangeQuality(t *testing.T) {
	img := testImage()
	for _, f := range []Format{PNG, JPEG, WebP} {
		want, err := Encode(img, f, 0.92)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 1.5} {
			got, err := Encode(img, f, q)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s at quality %v: err %v, equal to the default-quality bytes: %v", f, q, err, bytes.Equal(got, want))
			}
		}
	}
}

// webpHeader is a simulated-webp stream header declaring w × h with no
// pixel bytes after it.
func webpHeader(w, h uint32) []byte {
	b := []byte("RIFF\x11\x00\x00\x00WEBPVP8S")
	b = binary.LittleEndian.AppendUint32(b, w)
	b = binary.LittleEndian.AppendUint32(b, h)
	return append(b, 2)
}

func TestDecodeWebPSimRejectsGarbage(t *testing.T) {
	valid, _ := Encode(testImage(), WebP, 0.9)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"not webp", []byte("not webp at all")},
		{"empty", nil},
		{"truncated", valid[:30]},
		// 2^31 · 2^31 · 4 wraps to 0 in 64-bit int arithmetic, which
		// once matched the empty body.
		{"dimensions overflow", webpHeader(1<<31, 1<<31)},
		{"partial pixel", append(webpHeader(1, 1), 1, 2, 3)},
	} {
		if img, err := DecodeWebPSim(tc.data); err == nil {
			t.Errorf("%s: decoded %dx%d with %d pixel bytes, want an error", tc.name, img.W, img.H, len(img.Pix))
		}
	}
}

func TestDataURLRoundtrip(t *testing.T) {
	img := testImage()
	data, _ := Encode(img, PNG, 0)
	u := DataURL(PNG, data)
	if !strings.HasPrefix(u, "data:image/png;base64,") {
		t.Fatalf("prefix: %s", u[:40])
	}
	f, back, err := ParseDataURL(u)
	if err != nil {
		t.Fatal(err)
	}
	if f != PNG || !bytes.Equal(back, data) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestParseDataURLErrors(t *testing.T) {
	if _, _, err := ParseDataURL("http://example.com/x.png"); err == nil {
		t.Fatal("non-data URL should fail")
	}
	if _, _, err := ParseDataURL("data:image/png,rawdata"); err == nil {
		t.Fatal("missing base64 marker should fail")
	}
	if _, _, err := ParseDataURL("data:image/png;base64,!!!"); err == nil {
		t.Fatal("bad base64 should fail")
	}
}

func TestPNGSize(t *testing.T) {
	img := testImage()
	data, _ := Encode(img, PNG, 0)
	w, h, err := PNGSize(data)
	if err != nil || w != 20 || h != 10 {
		t.Fatalf("w=%d h=%d err=%v", w, h, err)
	}
	if _, _, err := PNGSize([]byte("short")); err == nil {
		t.Fatal("should reject non-png")
	}
}

// Property: data URL roundtrip is lossless for arbitrary payloads.
func TestDataURLProperty(t *testing.T) {
	f := func(payload []byte) bool {
		u := DataURL(PNG, payload)
		fmtGot, back, err := ParseDataURL(u)
		return err == nil && fmtGot == PNG && bytes.Equal(back, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: webp-sim roundtrip preserves dimensions and never increases
// channel values (quantization only truncates).
func TestWebPSimProperty(t *testing.T) {
	f := func(w, h uint8, seed uint8) bool {
		img := raster.NewImage(int(w%32)+1, int(h%32)+1)
		for i := range img.Pix {
			img.Pix[i] = uint8(int(seed) + i*7)
		}
		data := encodeWebPSim(img, 0.8)
		back, err := DecodeWebPSim(data)
		if err != nil || back.W != img.W || back.H != img.H {
			return false
		}
		for i := range img.Pix {
			if back.Pix[i] > img.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodePNG(b *testing.B) {
	img := testImage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(img, PNG, 0); err != nil {
			b.Fatal(err)
		}
	}
}
