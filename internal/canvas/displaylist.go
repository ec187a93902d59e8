package canvas

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"canvassing/internal/imaging"
	"canvassing/internal/raster"
)

// A canvas's pixels are a function of the 2D calls drawn on it and its
// machine profile, and fingerprinting scripts draw the same test canvas
// on every site they run on. So an element records the Context2D calls
// it receives after a blank bitmap as a display list, and rasterises
// only when a pixel is first read (bitmap), by replaying the list
// through the same Context2D code onto its own bitmap. A hook-free
// toDataURL of a still-recording element looks the list up in a Memo
// first, so a drawing the study has already extracted is neither
// rasterised nor encoded again. A hooked element takes its pixels from
// the Memo when it materialises, so each drawing is rasterised once per
// study, and a hooked toDataURL runs its hook on every call, then looks
// the hooked pixels up by their digest, so pixels the study has already
// encoded are not encoded again.
//
// The list is bytes: per call an opcode, the count of its float64
// arguments, their bits, and one length-prefixed string. Gradients are
// numbered in the order the list created them.

type opcode byte

const (
	opSave opcode = iota
	opRestore
	opTranslate
	opScale
	opRotate
	opTransform
	opSetTransform
	opResetTransform
	opFillStyle
	opFillGradient
	opStrokeStyle
	opStrokeGradient
	opLineWidth
	opLineCap
	opLineJoin
	opMiterLimit
	opLineDash
	opLineDashOffset
	opGlobalAlpha
	opComposite
	opShadow
	opFont
	opTextAlign
	opTextBaseline
	opFillRect
	opStrokeRect
	opClearRect
	opBeginPath
	opClosePath
	opMoveTo
	opLineTo
	opQuadraticCurveTo
	opBezierCurveTo
	opArc
	opArcTo
	opEllipse
	opRect
	opFill
	opStroke
	opClip
	opFillText
	opStrokeText
	opLinearGradient
	opRadialGradient
	opColorStop
)

// maxListBytes caps a display list. A call that would grow a list past
// it takes the element live first, so one list is replayed at most once
// and no page can grow one without bound.
const maxListBytes = 64 << 10

// rec appends a call to the element's display list and reports whether
// the element is recording. A draw call returns early when it is; state
// and path calls apply eagerly either way, because getters, measureText
// and isPointInPath read them.
func (c *Context2D) rec(op opcode, s string, a ...float64) bool {
	e := c.el
	if e.img != nil {
		return false
	}
	// Checked before appending: the call that trips the cap must run
	// eagerly after the replay, not be replayed as well.
	if len(e.ops)+1+2*binary.MaxVarintLen64+8*len(a)+len(s) > maxListBytes {
		e.bitmap()
		return false
	}
	e.ops = append(e.ops, byte(op))
	e.ops = binary.AppendUvarint(e.ops, uint64(len(a)))
	for _, v := range a {
		e.ops = binary.LittleEndian.AppendUint64(e.ops, math.Float64bits(v))
	}
	e.ops = binary.AppendUvarint(e.ops, uint64(len(s)))
	e.ops = append(e.ops, s...)
	return true
}

// b2f records a bool argument as 0 or 1.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// recGradient records assigning g as a fill or stroke paint. A gradient
// this list did not create has no number in it, so the element goes
// live instead.
func (c *Context2D) recGradient(op opcode, g raster.Paint) {
	if i := c.gradIndex(g); i >= 0 {
		c.rec(op, "", float64(i))
	} else {
		c.el.bitmap()
	}
}

// gradIndex returns the number of the gradient painting p in this
// context's display list, or -1.
func (c *Context2D) gradIndex(p raster.Paint) int {
	for i, g := range c.grads {
		if g.Paint() == p {
			return i
		}
	}
	return -1
}

// materialise draws the display list onto the element's fresh bitmap
// and empties it. A hooked element with a memo takes the pixels from the
// memo when the study has rasterised its drawing before, and stores a
// copy when it has not: E8's defense re-crawls extract a small fixed
// sample of drawings through their hooks hundreds of times. Hook-free
// elements never store or read these entries, since their memo hits skip
// the pixels altogether.
func (e *Element) materialise() {
	if e.extractHook == nil || e.memo == nil || len(e.ops) == 0 {
		e.replay()
		return
	}
	key := e.drawingKey([]byte{bitmapTag})
	if px, ok := e.memo.get(key); ok {
		copy(e.img.Pix, px)
		e.dropList()
		return
	}
	e.replay()
	e.memo.put(key, string(e.img.Pix))
}

// replay draws the display list onto the element's fresh bitmap and
// empties it. The calls run on a context and element of their own with
// no tracer and no extraction hook: materialising is invisible to the
// page's call record.
func (e *Element) replay() {
	if len(e.ops) > 0 {
		c := newContext2D(&Element{width: e.width, height: e.height, img: e.img, profile: e.profile})
		var s string
		var a []float64
		// play repeats each recorded call, indexed by opcode, with the
		// string and numbers decoded into s and a.
		play := [...]func(){
			opSave:             c.Save,
			opRestore:          c.Restore,
			opTranslate:        func() { c.Translate(a[0], a[1]) },
			opScale:            func() { c.Scale(a[0], a[1]) },
			opRotate:           func() { c.Rotate(a[0]) },
			opTransform:        func() { c.Transform(a[0], a[1], a[2], a[3], a[4], a[5]) },
			opSetTransform:     func() { c.SetTransform(a[0], a[1], a[2], a[3], a[4], a[5]) },
			opResetTransform:   c.ResetTransform,
			opFillStyle:        func() { c.SetFillStyle(s) },
			opFillGradient:     func() { c.SetFillGradient(c.grads[int(a[0])].Paint()) },
			opStrokeStyle:      func() { c.SetStrokeStyle(s) },
			opStrokeGradient:   func() { c.SetStrokeGradient(c.grads[int(a[0])].Paint()) },
			opLineWidth:        func() { c.SetLineWidth(a[0]) },
			opLineCap:          func() { c.SetLineCap(s) },
			opLineJoin:         func() { c.SetLineJoin(s) },
			opMiterLimit:       func() { c.SetMiterLimit(a[0]) },
			opLineDash:         func() { c.SetLineDash(a) },
			opLineDashOffset:   func() { c.SetLineDashOffset(a[0]) },
			opGlobalAlpha:      func() { c.SetGlobalAlpha(a[0]) },
			opComposite:        func() { c.SetGlobalCompositeOperation(s) },
			opShadow:           func() { c.SetShadow(s, a[0], a[1], a[2]) },
			opFont:             func() { c.SetFont(s) },
			opTextAlign:        func() { c.SetTextAlign(s) },
			opTextBaseline:     func() { c.SetTextBaseline(s) },
			opFillRect:         func() { c.FillRect(a[0], a[1], a[2], a[3]) },
			opStrokeRect:       func() { c.StrokeRect(a[0], a[1], a[2], a[3]) },
			opClearRect:        func() { c.ClearRect(a[0], a[1], a[2], a[3]) },
			opBeginPath:        c.BeginPath,
			opClosePath:        c.ClosePath,
			opMoveTo:           func() { c.MoveTo(a[0], a[1]) },
			opLineTo:           func() { c.LineTo(a[0], a[1]) },
			opQuadraticCurveTo: func() { c.QuadraticCurveTo(a[0], a[1], a[2], a[3]) },
			opBezierCurveTo:    func() { c.BezierCurveTo(a[0], a[1], a[2], a[3], a[4], a[5]) },
			opArc:              func() { c.Arc(a[0], a[1], a[2], a[3], a[4], a[5] != 0) },
			opArcTo:            func() { c.ArcTo(a[0], a[1], a[2], a[3], a[4]) },
			opEllipse:          func() { c.Ellipse(a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] != 0) },
			opRect:             func() { c.Rect(a[0], a[1], a[2], a[3]) },
			opFill:             func() { c.Fill(s) },
			opStroke:           c.Stroke,
			opClip:             c.Clip,
			opFillText:         func() { c.FillText(s, a[0], a[1]) },
			opStrokeText:       func() { c.StrokeText(s, a[0], a[1]) },
			opLinearGradient:   func() { c.grads = append(c.grads, c.CreateLinearGradient(a[0], a[1], a[2], a[3])) },
			opRadialGradient:   func() { c.grads = append(c.grads, c.CreateRadialGradient(a[0], a[1], a[2], a[3], a[4], a[5])) },
			opColorStop:        func() { c.grads[int(a[0])].AddColorStop(a[1], s) },
		}
		for b := e.ops; len(b) > 0; {
			op := b[0]
			n, k := binary.Uvarint(b[1:])
			b = b[1+k:]
			a = a[:0]
			for ; n > 0; n-- {
				a = append(a, math.Float64frombits(binary.LittleEndian.Uint64(b)))
				b = b[8:]
			}
			n, k = binary.Uvarint(b)
			s = string(b[k : k+int(n)])
			b = b[k+int(n):]
			play[op]()
		}
	}
	e.dropList()
}

// dropList empties the display list once the bitmap holds its drawing,
// with the gradients the list numbered.
func (e *Element) dropList() {
	e.ops = nil
	if e.ctx != nil {
		e.ctx.grads = nil
	}
}

// A Memo key starts with a tag byte saying which of the three kinds
// below it is, so no two kinds' keys are equal.
const (
	drawingTag byte = iota // a hook-free toDataURL's URL (memoKey)
	pixelsTag              // a hooked canvas's URL (pixKey)
	bitmapTag              // a hooked element's pixels (materialise)
)

// memoKey identifies what a hook-free toDataURL of the recording element
// returns: its drawing, the format and the quality the encoder will use.
func (e *Element) memoKey(f imaging.Format, quality float64) []byte {
	k := binary.AppendUvarint([]byte{drawingTag}, uint64(len(f)))
	k = append(k, f...)
	return e.drawingKey(binary.LittleEndian.AppendUint64(k, math.Float64bits(f.Quality(quality))))
}

// drawingKey appends to prefix what the recording element's pixels are
// a function of: the profile's rendering parameters (not the pointer:
// every crawl builds its profile afresh), the size and the display list.
func (e *Element) drawingKey(prefix []byte) []byte {
	p := e.profile
	k := append(make([]byte, 0, len(prefix)+58+len(p.Name)+len(e.ops)), prefix...)
	k = binary.AppendUvarint(k, uint64(len(p.Name)))
	k = append(k, p.Name...)
	for _, v := range []uint64{p.Seed, math.Float64bits(p.Gamma), math.Float64bits(p.AAStrength),
		math.Float64bits(p.SubpixelJitter), uint64(e.width), uint64(e.height)} {
		k = binary.LittleEndian.AppendUint64(k, v)
	}
	return append(k, e.ops...)
}

// pixKey identifies what encoding img, the pixels an extraction hook
// returned, gives: their SHA-256 (a 64-bit hash could silently give one
// canvas another's URL), the size, the format and the quality the
// encoder will use. Equal keys mean equal encoder input.
func pixKey(img *raster.Image, f imaging.Format, quality float64) []byte {
	sum := sha256.Sum256(img.Pix)
	k := append(make([]byte, 0, 1+len(sum)+24+len(f)), pixelsTag)
	k = append(k, sum[:]...)
	for _, v := range []uint64{uint64(img.W), uint64(img.H), math.Float64bits(f.Quality(quality))} {
		k = binary.LittleEndian.AppendUint64(k, v)
	}
	return append(k, f...)
}

// Memo maps drawings to the data URLs hook-free toDataURL calls return
// for them, hooked pixels to the URLs they encode to, and the drawings
// hooked elements materialise to their pixels. One study shares one
// Memo across its crawls and their workers, so it is safe for
// concurrent use. A map lookup compares the whole key, display list or
// digest included, so a hit is exact. Its size is bounded by bytes: it
// empties when full.
type Memo struct {
	mu      sync.RWMutex
	entries map[string]string
	size    int // bytes of keys and values held
	limit   int
}

// memoBytes bounds a Memo. At seed 3 a Scale 0.1 study ends holding 251
// drawings in 0.88 MB, 242 hooked canvases in 1.22 MB and E8's 47
// bitmaps in 3.55 MB.
const memoBytes = 64 << 20

// NewMemo returns an empty Memo.
func NewMemo() *Memo { return &Memo{entries: map[string]string{}, limit: memoBytes} }

func (m *Memo) get(key []byte) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.entries[string(key)]
	return v, ok
}

func (m *Memo) put(key []byte, v string) {
	n := len(key) + len(v)
	if n > m.limit {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[string(key)]; ok {
		return // another worker extracted the same canvas first
	}
	if m.size+n > m.limit {
		m.entries, m.size = map[string]string{}, 0
	}
	m.entries[string(key)] = v
	m.size += n
}
