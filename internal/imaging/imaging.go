// Package imaging converts raster images to the encoded forms the Canvas
// toDataURL API exposes, and parses them back for analysis.
//
// PNG and JPEG use the standard library codecs. WebP has no stdlib encoder,
// so a stand-in lossy codec is provided: it chroma-quantizes pixels and
// wraps them in a RIFF/WEBP-tagged container. For this study only two
// properties of webp matter — that it is recognizably a distinct MIME type
// (webp-support probes are a benign toDataURL use the detector must
// exclude) and that it is lossy (compression destroys the sub-pixel detail
// fingerprinting needs, which is why the paper excludes lossy formats).
// The stand-in preserves both.
package imaging

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/jpeg"
	"image/png"
	"strings"
	"sync"

	"canvassing/internal/raster"
)

// Format identifies an encoding for canvas extraction.
type Format string

// Formats accepted by toDataURL in this implementation.
const (
	PNG  Format = "image/png"
	JPEG Format = "image/jpeg"
	WebP Format = "image/webp"
)

// ParseFormat normalizes a toDataURL type argument. Unknown or empty types
// fall back to PNG, as the Canvas spec requires.
func ParseFormat(s string) Format {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "image/jpeg", "image/jpg":
		return JPEG
	case "image/webp":
		return WebP
	default:
		return PNG
	}
}

// Lossy reports whether the format discards pixel detail.
func (f Format) Lossy() bool { return f == JPEG || f == WebP }

// Quality returns the quality Encode uses for f given toDataURL's
// quality argument q: q when it is in (0, 1], otherwise (NaN included)
// the Canvas default of 0.92, and 0 for PNG, which ignores it.
func (f Format) Quality(q float64) float64 {
	switch {
	case !f.Lossy():
		return 0
	case q > 0 && q <= 1:
		return q
	}
	return 0.92
}

// Encode serializes img in the given format. Quality (0..1) applies to
// lossy formats only; see Format.Quality.
func Encode(img *raster.Image, f Format, quality float64) ([]byte, error) {
	quality = f.Quality(quality)
	switch f {
	case JPEG:
		q := int(quality * 100)
		var buf bytes.Buffer
		if err := jpeg.Encode(&buf, img.ToStdImage(), &jpeg.Options{Quality: q}); err != nil {
			return nil, fmt.Errorf("imaging: jpeg encode: %w", err)
		}
		return buf.Bytes(), nil
	case WebP:
		return encodeWebPSim(img, quality), nil
	default:
		var buf bytes.Buffer
		if err := pngEncoder.Encode(&buf, pngImage(img)); err != nil {
			return nil, fmt.Errorf("imaging: png encode: %w", err)
		}
		return buf.Bytes(), nil
	}
}

// pngImage returns img as an *image.NRGBA that png.Encoder encodes to
// the bytes of img.ToStdImage(). That premultiplies each channel by
// alpha and the encoder divides alpha back out, which loses low bits of
// translucent pixels; unpremul holds what the round trip gives, and the
// encoder copies an NRGBA's rows as they are.
func pngImage(img *raster.Image) *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, img.W, img.H))
	for i := 0; i+3 < len(img.Pix); i += 4 {
		a := img.Pix[i+3]
		t := &unpremul[a]
		out.Pix[i] = t[img.Pix[i]]
		out.Pix[i+1] = t[img.Pix[i+1]]
		out.Pix[i+2] = t[img.Pix[i+2]]
		out.Pix[i+3] = a
	}
	return out
}

// unpremul[a][c] is the channel png.Encoder writes for channel c at
// alpha a of an *image.RGBA from raster.Image.ToStdImage: the
// premultiplied round(c*a/255), then divided back out exactly as
// image/png does for 0 < a < 255. Alpha 0 gives 0 and alpha 255 gives c.
var unpremul = func() (t [256][256]uint8) {
	for a := 1; a < 256; a++ {
		for c := 0; c < 256; c++ {
			if a == 255 {
				t[a][c] = uint8(c)
				continue
			}
			p := uint32(c*a + 128)
			p = (p + p>>8) >> 8
			t[a][c] = uint8((p * (0x101 * 0xffff) / (uint32(a) * 0x101)) >> 8)
		}
	}
	return t
}()

// pngEncoder is png.Encode with its compressor state pooled: png.Encode
// builds a new zlib writer, about half a megabyte, on every call. The
// encoder resets a pooled writer for each image, so the output is
// byte-identical to png.Encode's.
var pngEncoder = png.Encoder{BufferPool: &pngPool{}}

// pngPool implements png.EncoderBufferPool over a sync.Pool, so
// concurrent crawl workers each take their own buffer.
type pngPool struct{ p sync.Pool }

func (p *pngPool) Get() *png.EncoderBuffer {
	b, _ := p.p.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngPool) Put(b *png.EncoderBuffer) { p.p.Put(b) }

// encodeWebPSim produces the stand-in lossy webp container: RIFF header,
// "WEBP" tag, dimensions, and pixel data quantized per channel. The
// quantization step grows as quality drops.
func encodeWebPSim(img *raster.Image, quality float64) []byte {
	step := uint8(1 + (1-quality)*24) // q=0.92 → step 2
	var buf bytes.Buffer
	buf.WriteString("RIFF")
	sizePos := buf.Len()
	buf.Write(make([]byte, 4))  // patched below
	buf.WriteString("WEBPVP8S") // "VP8S": simulated bitstream chunk tag
	var dims [8]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(img.W))
	binary.LittleEndian.PutUint32(dims[4:], uint32(img.H))
	buf.Write(dims[:])
	buf.WriteByte(step)
	for _, p := range img.Pix {
		buf.WriteByte(p - p%step)
	}
	out := buf.Bytes()
	binary.LittleEndian.PutUint32(out[sizePos:], uint32(len(out)-8))
	return out
}

// DecodeWebPSim recovers the (quantized) image from the stand-in codec.
func DecodeWebPSim(data []byte) (*raster.Image, error) {
	const hdr = 4 + 4 + 8 + 8 + 1
	if len(data) < hdr || string(data[0:4]) != "RIFF" || string(data[8:16]) != "WEBPVP8S" {
		return nil, errors.New("imaging: not a simulated webp stream")
	}
	w := binary.LittleEndian.Uint32(data[16:])
	h := binary.LittleEndian.Uint32(data[20:])
	// The product of two uint32s fits a uint64, so a stream declaring
	// 2^31 × 2^31 cannot wrap around to match an empty body.
	n := uint64(len(data) - hdr)
	if n%4 != 0 || uint64(w)*uint64(h) != n/4 {
		return nil, errors.New("imaging: corrupt simulated webp stream")
	}
	img := raster.NewImage(int(w), int(h))
	copy(img.Pix, data[hdr:])
	return img, nil
}

// DataURL wraps encoded bytes in the data: URL form toDataURL returns.
func DataURL(f Format, data []byte) string {
	return "data:" + string(f) + ";base64," + base64.StdEncoding.EncodeToString(data)
}

// ParseDataURL splits a data: URL into its format and decoded payload.
func ParseDataURL(u string) (Format, []byte, error) {
	rest, ok := strings.CutPrefix(u, "data:")
	if !ok {
		return "", nil, errors.New("imaging: not a data URL")
	}
	mime, payload, ok := strings.Cut(rest, ";base64,")
	if !ok {
		return "", nil, errors.New("imaging: missing base64 marker")
	}
	data, err := base64.StdEncoding.DecodeString(payload)
	if err != nil {
		return "", nil, fmt.Errorf("imaging: base64: %w", err)
	}
	return Format(mime), data, nil
}

// PNGSize reads the dimensions from an encoded PNG without a full decode.
func PNGSize(data []byte) (w, h int, err error) {
	// 8-byte signature, 4-byte length, "IHDR", then width/height.
	if len(data) < 24 || string(data[12:16]) != "IHDR" {
		return 0, 0, errors.New("imaging: not a PNG")
	}
	w = int(binary.BigEndian.Uint32(data[16:20]))
	h = int(binary.BigEndian.Uint32(data[20:24]))
	return w, h, nil
}
