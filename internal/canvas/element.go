// Package canvas emulates the HTML <canvas> element and its 2D rendering
// context on top of the software rasterizer, with full call tracing.
//
// The package exists to be *instrumented*: like the paper's modified
// Tracker Radar Collector, every API call and property access can be
// recorded (interface, member, arguments, return value) through a Tracer.
// Rendering is deterministic per machine profile, which is what makes
// canvas fingerprints stable and cross-site grouping sound.
package canvas

import (
	"fmt"
	"strings"

	"canvassing/internal/imaging"
	"canvassing/internal/machine"
	"canvassing/internal/raster"
)

// Tracer receives one record per observed Canvas API interaction.
// Implementations must be cheap; the crawler installs one per page visit.
type Tracer interface {
	// Trace is called with the interface name ("HTMLCanvasElement" or
	// "CanvasRenderingContext2D"), the member invoked, stringified
	// arguments, and the stringified return value ("" for void).
	Trace(iface, member string, args []string, ret string)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(iface, member string, args []string, ret string)

// Trace implements Tracer.
func (f TracerFunc) Trace(iface, member string, args []string, ret string) {
	f(iface, member, args, ret)
}

// ExtractHook transforms pixels at extraction time (toDataURL and
// getImageData). Canvas-randomization defenses install hooks here; a nil
// hook returns pixels unchanged.
type ExtractHook func(img *raster.Image) *raster.Image

// Element is an HTMLCanvasElement. It starts out recording: img is nil
// and ops, the display list, grows with every 2D call (see rec). The
// first pixel read materialises it (see bitmap); from then on it draws
// eagerly until a width or height assignment resets it.
type Element struct {
	width, height int
	img           *raster.Image // nil while recording
	ops           []byte
	ctx           *Context2D
	glctx         *WebGLContext
	profile       *machine.Profile
	tracer        Tracer
	extractHook   ExtractHook
	memo          *Memo
}

// defaultW and defaultH are the spec-mandated default canvas size.
const (
	defaultW = 300
	defaultH = 150
)

// Browser-style size limits. A canvas with a side over maxSide or an
// area over maxArea pixels gets no bitmap, and no ImageData may exceed
// maxArea pixels. maxArea is Safari's 4096², 64 MB of RGBA.
const (
	maxSide = 32767
	maxArea = 4096 * 4096
)

// fitsArea reports whether w×h, both non-negative, is at most maxArea,
// without overflowing on hostile sizes.
func fitsArea(w, h int) bool { return h == 0 || w <= maxArea/h }

// New returns a canvas of the HTML default size (300×150) rendered on the
// given machine profile. A nil profile uses the Intel reference machine.
func New(profile *machine.Profile) *Element {
	if profile == nil {
		profile = machine.Intel()
	}
	return &Element{
		width:   defaultW,
		height:  defaultH,
		profile: profile,
	}
}

// bitmap returns the canvas pixels. On a recording element it
// allocates them transparent black, draws the display list onto them
// (materialise) and leaves the element live. Every pixel access goes
// through it. A canvas over the size limits gets a 0×0 image: draws on
// it are no-ops and reads see transparent black.
func (e *Element) bitmap() *raster.Image {
	if e.img == nil {
		if e.width <= maxSide && e.height <= maxSide && fitsArea(e.width, e.height) {
			e.img = raster.NewImage(e.width, e.height)
		} else {
			e.img = &raster.Image{}
		}
		e.materialise()
	}
	return e.img
}

// SetTracer installs t for this element and its context. Passing nil
// disables tracing.
func (e *Element) SetTracer(t Tracer) { e.tracer = t }

// SetExtractHook installs a pixel-extraction hook (randomization defense).
func (e *Element) SetExtractHook(h ExtractHook) { e.extractHook = h }

// SetMemo shares m's data URLs with this element's toDataURL calls and,
// while it has an extraction hook, m's pixels with its materialising.
// Nil, the default, shares nothing.
func (e *Element) SetMemo(m *Memo) { e.memo = m }

// Profile returns the machine profile this element renders on.
func (e *Element) Profile() *machine.Profile { return e.profile }

func (e *Element) trace(member string, args []string, ret string) {
	if e.tracer != nil {
		e.tracer.Trace("HTMLCanvasElement", member, args, ret)
	}
}

// Width returns the canvas width attribute.
func (e *Element) Width() int {
	e.trace("width", nil, fmt.Sprint(e.width))
	return e.width
}

// Height returns the canvas height attribute.
func (e *Element) Height() int {
	e.trace("height", nil, fmt.Sprint(e.height))
	return e.height
}

// SetWidth sets the width attribute. Per the HTML spec, assigning either
// dimension resets the bitmap to transparent black and the context state
// to defaults. Non-positive values select the default dimension.
func (e *Element) SetWidth(w int) {
	e.trace("width=", []string{fmt.Sprint(w)}, "")
	if w <= 0 {
		w = defaultW
	}
	e.width = w
	e.resetBitmap()
}

// SetHeight sets the height attribute; see SetWidth.
func (e *Element) SetHeight(h int) {
	e.trace("height=", []string{fmt.Sprint(h)}, "")
	if h <= 0 {
		h = defaultH
	}
	e.height = h
	e.resetBitmap()
}

func (e *Element) resetBitmap() {
	e.img = nil
	e.ops = e.ops[:0]
	if e.ctx != nil {
		e.ctx.resetState()
	}
}

// GetContext returns the 2D rendering context, creating it on first use.
// Non-"2d" kinds return nil; use GetWebGL for the WebGL-lite context.
func (e *Element) GetContext(kind string) *Context2D {
	e.trace("getContext", []string{kind}, "")
	if strings.ToLower(kind) != "2d" {
		return nil
	}
	if e.ctx == nil {
		e.ctx = newContext2D(e)
	}
	return e.ctx
}

// GetWebGL returns the element's WebGL-lite context, creating it on
// first use. A canvas may hold both contexts here (real browsers bind
// one kind per canvas; scripts in this corpus never mix them).
func (e *Element) GetWebGL() *WebGLContext {
	e.trace("getContext", []string{"webgl"}, "")
	if e.glctx == nil {
		e.glctx = newWebGLContext(e)
	}
	return e.glctx
}

// Image exposes the backing pixels (no extraction hook applied). Analysis
// code uses it; page scripts must go through ToDataURL/GetImageData.
func (e *Element) Image() *raster.Image { return e.bitmap() }

// ToDataURL encodes the current bitmap as a data: URL. The format string
// follows toDataURL's first argument ("" means PNG); quality applies to
// lossy formats, with values outside (0, 1] selecting the 0.92 default.
// A canvas over the size limits has no pixels and gives "data:,", as
// the spec says. With a memo, a hook-free call on a recording element
// looks its drawing up (memoKey), and a hooked call the pixels its hook
// returned (pixKey); a miss encodes and stores.
func (e *Element) ToDataURL(format string, quality float64) string {
	f := imaging.ParseFormat(format)
	var u string
	if e.img == nil && e.extractHook == nil && e.memo != nil {
		key := e.memoKey(f, quality)
		ok := false
		if u, ok = e.memo.get(key); !ok {
			u = e.extract(f, quality)
			e.memo.put(key, u)
		}
	} else {
		u = e.extract(f, quality)
	}
	e.trace("toDataURL", []string{format}, u)
	return u
}

// extract encodes the bitmap as the extraction hook leaves it. The hook
// runs on every call, so per-render noise stays fresh; only encoding
// pixels the memo has seen is skipped.
func (e *Element) extract(f imaging.Format, quality float64) string {
	img := e.bitmap()
	if len(img.Pix) == 0 {
		return "data:,"
	}
	if e.extractHook != nil {
		img = e.extractHook(img)
		if e.memo != nil {
			key := pixKey(img, f, quality)
			u, ok := e.memo.get(key)
			if !ok {
				u = encode(img, f, quality)
				e.memo.put(key, u)
			}
			return u
		}
	}
	return encode(img, f, quality)
}

func encode(img *raster.Image, f imaging.Format, quality float64) string {
	data, err := imaging.Encode(img, f, quality)
	if err != nil {
		// Encoding a valid in-memory image cannot fail with stdlib
		// codecs; keep the API total anyway.
		data = nil
	}
	return imaging.DataURL(f, data)
}
