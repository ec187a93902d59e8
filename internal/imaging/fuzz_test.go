package imaging

import "testing"

// FuzzDecodeDataURL feeds arbitrary strings through the path a
// client-supplied data URL takes to a verdict: ParseDataURL, then
// PNGSize and DecodeWebPSim on the payload. Each must return an error
// or dimensions that hold: non-negative, and for a decoded image
// exactly 4·W·H pixel bytes.
func FuzzDecodeDataURL(f *testing.F) {
	img := testImage()
	for _, format := range []Format{PNG, JPEG, WebP} {
		data, err := Encode(img, format, 0.5)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(DataURL(format, data))
	}
	f.Add(DataURL(WebP, webpHeader(1<<31, 1<<31)))
	f.Add("data:image/png;base64,")
	f.Add("not a data URL")
	f.Fuzz(func(t *testing.T, u string) {
		_, payload, err := ParseDataURL(u)
		if err != nil {
			return
		}
		if w, h, err := PNGSize(payload); err == nil && (w < 0 || h < 0) {
			t.Fatalf("PNGSize = %d×%d", w, h)
		}
		img, err := DecodeWebPSim(payload)
		if err != nil {
			return
		}
		// 4·W·H itself can wrap a uint64; W·H cannot.
		if img.W < 0 || img.H < 0 || len(img.Pix)%4 != 0 ||
			uint64(img.W)*uint64(img.H) != uint64(len(img.Pix)/4) {
			t.Fatalf("DecodeWebPSim = %d×%d with %d pixel bytes", img.W, img.H, len(img.Pix))
		}
	})
}
