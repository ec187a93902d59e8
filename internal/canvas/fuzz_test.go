package canvas

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"canvassing/internal/machine"
)

// FuzzCanvasOps decodes its input into a sequence of Element and
// Context2D calls on two canvases — sizes, transforms, paths, text,
// dashes, shadows, gradients, Get/Put/CreateImageData, drawImage
// between the two, toDataURL, and the WebGL draw path — with NaN, ±Inf,
// ±1e300 and huge sizes among the arguments. Page scripts reach every
// one of these calls with arguments of their choosing, and jsvm's step
// budget cannot stop a native call, so each call must return within a
// deadline, without a panic and with bounded allocation.
//
// It is also differential. Each input runs on eager elements, which
// draw every call as it comes; on recording elements without a memo;
// and on recording elements sharing one memo, cold and then warm. The
// four runs must agree on every traced call and return (every toDataURL
// URL included, hooked ones too), on every getImageData's bytes and on
// the final pixels.
func FuzzCanvasOps(f *testing.F) {
	// The repros of the hostile inputs the canvas and raster layers used
	// to crash, exhaust memory or hang on.
	f.Add(fuzzSeed("width", 48, "height", 40, "beginPath", "moveTo", 20.6, 30.6,
		"lineTo", -8.9, 27.8, "lineTo", 50.2, 13.3, "lineTo", 49.7, 22.5, "lineTo", 27.2, 45.6,
		"lineTo", 22.3, 6.2, "lineTo", 36.3, -1e300, "lineTo", 0.003, -3.4, "lineTo", 15.3, math.Inf(-1),
		"lineTo", 35.5, 26.0, "lineTo", 1e300, math.Inf(-1), "fill", 0, "toDataURL", byte(0)))
	f.Add(fuzzSeed("width", 1e12, "fillRect", 0, 0, 10, 10, "toDataURL", byte(0)))
	f.Add(fuzzSeed("width", 1e9, "fillText", byte(0), 2, 15, "getImageData", 0, 0, 4, 4))
	f.Add(fuzzSeed("width", 3e4, "height", 3e4, "fillRect", 0, 0, 10, 10, "toDataURL", byte(1)))
	f.Add(fuzzSeed("getImageData", 0, 0, 1e5, 1e5, "createImageData", 3e4, 3e4, "putImageData", 0, 0))
	f.Add(fuzzSeed("setLineDash", byte(2), 1, 1, "lineDashOffset", 1e300,
		"beginPath", "moveTo", 0, 10, "lineTo", 30, 10, "stroke"))
	f.Add(fuzzSeed("setLineDash", byte(1), 1e-6, "beginPath", "moveTo", 0, 10, "lineTo", 30, 10, "stroke"))
	f.Add(fuzzSeed("fillStyle", byte(2), "fillRect", 0, 0, 4, 4, "webglDraw", -1, 3))
	f.Add(fuzzSeed("toDataURL", byte(2), math.NaN()))
	// A fingerprinting-shaped scene across both canvases.
	f.Add(fuzzSeed("width", 160, "height", 40, "font", byte(0), "fillStyle", byte(0),
		"fillRect", 100, 1, 50, 20, "shadow", byte(1), 2, 2, 3, "fillText", byte(0), 2, 15,
		"rotate", 0.5, "arc", 50, 20, 15, 0, 6.3, 0, "stroke", "swap", "drawImage", 5, 5,
		"getImageData", 0, 0, 12, 12, "putImageData", 3, 3, "toDataURL", byte(0)))
	// The same scene twice on one canvas, so the memo can hit.
	scene := []any{"font", byte(0), "fillStyle", byte(0), "fillRect", 100, 1, 50, 20,
		"fillText", byte(0), 2, 15, "toDataURL", byte(0)}
	f.Add(fuzzSeed(append(append(append([]any{}, scene...), "width", 300), scene...)...))
	// A gradient created before a reset and painted after it, on both
	// canvases, with a stop added after a draw that used it.
	f.Add(fuzzSeed("gradient", 0, 0, 40, 0, 0, byte(0), 1, byte(1), "fillRect", 0, 0, 40, 20,
		"lastGradient", 0.5, byte(5), "fillRect", 0, 20, 40, 20, "toDataURL", byte(0),
		"width", 200, "lastGradient", 0.2, byte(3), "fillRect", 0, 0, 40, 20, "toDataURL", byte(0),
		"swap", "lastGradient", 0.7, byte(0), "fillRect", 0, 0, 40, 20, "toDataURL", byte(0)))
	// The same scene extracted through both hooks on both canvases,
	// twice each, so hooked extractions can hit the memo.
	hooked := []any{"font", byte(0), "fillStyle", byte(0), "fillRect", 100, 1, 50, 20, "fillText", byte(0), 2, 15,
		"hookedToDataURL", byte(0), byte(0), 0, "hookedToDataURL", byte(1), byte(0), 0,
		"hookedToDataURL", byte(0), byte(0), 0, "hookedToDataURL", byte(1), byte(2), 0.5,
		"hookedToDataURL", byte(0), byte(2), 0.5, "hookedToDataURL", byte(0), byte(2), 0.9, "toDataURL", byte(0), 0}
	f.Add(fuzzSeed(append(append(append([]any{}, hooked...), "swap"), hooked...)...))
	// arcTo after moveTo: its own lineTo segments must not be replayed
	// twice.
	f.Add(fuzzSeed("beginPath", "moveTo", 10, 10, "arcTo", 40, 10, 40, 40, 10, "lineTo", 40, 40,
		"stroke", "toDataURL", byte(0), "getImageData", 0, 0, 48, 48))

	f.Fuzz(checkCanvasOps)
}

// TestCanvasOpsDifferential runs FuzzCanvasOps's check on 300 seeded
// random inputs whose arguments all lie in −32…191: small canvases and
// coordinates, which the fuzzer's mutations of the seeds above reach
// only slowly.
func TestCanvasOpsDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+rng.IntN(240))
		for j := range data {
			data[j] = byte(rng.IntN(0xE0))
		}
		checkCanvasOps(t, data)
	}
}

// checkCanvasOps runs data on eager elements, then on recording ones
// without a memo and with one shared memo, cold and warm, and requires
// the four transcripts to be equal.
func checkCanvasOps(t *testing.T, data []byte) {
	want := runFuzzOps(t, data, true, nil)
	memo := NewMemo()
	for _, run := range []struct {
		name string
		memo *Memo
	}{{"deferred", nil}, {"memo cold", memo}, {"memo warm", memo}} {
		got := runFuzzOps(t, data, false, run.memo)
		for i := 0; i < len(got) || i < len(want); i++ {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Fatalf("input %x, %s: transcript line %d differs from the eager run's:\n got %.200s\nwant %.200s",
					data, run.name, i, lineAt(got, i), lineAt(want, i))
			}
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end>"
}

// runFuzzOps runs data's calls on a fresh fuzzCanvas and returns its
// transcript, failing t when a call panics, outlives the deadline or
// allocates past the bound.
func runFuzzOps(t *testing.T, data []byte, eager bool, memo *Memo) []string {
	// The costliest legitimate call, encoding a 4096² canvas of noise,
	// takes up to 5 s and 512 MB (webp); the bounds leave room above
	// that and far below a hang or a 3 GB bitmap.
	const (
		deadline = 30 * time.Second
		maxMB    = 1024
	)
	type step struct {
		op string
		mb uint64
	}
	// Buffered for every start and end message, so the op goroutine
	// never blocks on a receiver that has given up.
	steps := make(chan step, 2*maxFuzzOps)
	fc := newFuzzCanvas(eager, memo)
	go func() {
		defer close(steps)
		in := &fuzzInput{b: data}
		var before, after runtime.MemStats
		for n := 0; n < maxFuzzOps && len(in.b) > 0; n++ {
			op := fuzzOps[int(in.byte())%len(fuzzOps)]
			steps <- step{op: op.name}
			runtime.ReadMemStats(&before)
			op.run(fc, in)
			runtime.ReadMemStats(&after)
			steps <- step{op: op.name, mb: (after.TotalAlloc - before.TotalAlloc) >> 20}
		}
		for _, e := range fc.els {
			fc.log("final", e.Image().Pix)
		}
	}()
	started := ""
	for {
		select {
		case s, ok := <-steps:
			if !ok {
				return fc.transcript
			}
			if started == "" {
				started = s.op
				continue
			}
			if s.mb > maxMB {
				t.Fatalf("%s allocated %d MB", s.op, s.mb)
			}
			started = ""
		case <-time.After(deadline):
			t.Fatalf("%s still running after %v", started, deadline)
		}
	}
}

// maxFuzzOps bounds the calls one input makes.
const maxFuzzOps = 64

// fuzzSpecial are the argument values the bytes 0xE0–0xEF select: the
// non-finite and huge values page scripts can pass, and sizes at and
// around the canvas limits.
var fuzzSpecial = [16]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e12, 1e9, 1e5,
	3e4, maxSide, maxSide + 1, 4097, 1e-6, 0.5, -0.5, 1 << 63,
}

// fuzzInput is the undecoded rest of a fuzz input; reads past its end
// give zeros.
type fuzzInput struct{ b []byte }

func (in *fuzzInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

// num decodes one argument: a byte below 0xE0 is itself minus 32 (the
// coordinates small canvases use), 0xE0–0xEF picks a fuzzSpecial value,
// and 0xF0 and above take the next 8 bytes as float64 bits.
func (in *fuzzInput) num() float64 {
	c := in.byte()
	switch {
	case c < 0xE0:
		return float64(c) - 32
	case c < 0xF0:
		return fuzzSpecial[c-0xE0]
	}
	var bits uint64
	for i := 0; i < 8; i++ {
		bits = bits<<8 | uint64(in.byte())
	}
	return math.Float64frombits(bits)
}

// pick returns an entry of table chosen by the next byte.
func pick(in *fuzzInput, table []string) string { return table[int(in.byte())%len(table)] }

// Tables the string arguments are picked from.
var (
	fuzzTexts  = []string{"Cwm fjordbank glyphs vext quiz, \U0001F603", "", "a", "\U0001F603\U0001F642", "\x00�"}
	fuzzFonts  = []string{"11pt Arial", "1e300px serif", "bold 100px sans-serif", "Infinitypx Arial", "-5px a", "0px a", "NaNpx x"}
	fuzzColors = []string{"#f60", "rgba(102, 204, 0, 0.7)", "hsl(1e300, 50%, 50%)", "hsl(Infinity, 1%, 1%)", "bogus", "transparent"}
	fuzzWords  = []string{"start", "end", "center", "top", "middle", "bottom", "round", "square", "bevel", "miter", "butt",
		"multiply", "xor", "lighter", "copy", "destination-over", "source-over", "evenodd", "nonzero"}
	fuzzFormats = []string{"", "image/jpeg", "image/webp"}
)

// fuzzCanvas is the state the decoded calls run against: two canvases,
// the one calls go to, the last ImageData and gradient made, the
// extraction hooks hookedToDataURL installs, and the transcript of what
// the calls traced and read.
type fuzzCanvas struct {
	els        [2]*Element
	cur        int
	data       *ImageData
	grad       *Gradient
	hooks      [2]ExtractHook
	eager      bool
	transcript []string
}

// newFuzzCanvas returns two canvases on different profiles sharing
// memo. Eager canvases are taken live at creation and after every
// reset, so they draw each call as it comes, as canvases did before
// display lists. Each fuzzCanvas has its own callNoise, so every run of
// an input draws the same noise.
func newFuzzCanvas(eager bool, memo *Memo) *fuzzCanvas {
	fc := &fuzzCanvas{els: [2]*Element{New(machine.Intel()), New(machine.AppleM1())},
		hooks: [2]ExtractHook{contentNoise, callNoise()}, eager: eager}
	for _, e := range fc.els {
		e.SetTracer(TracerFunc(func(iface, member string, args []string, ret string) {
			fc.log(fmt.Sprintf("%s.%s(%q)", iface, member, args), []byte(ret))
		}))
		e.SetMemo(memo)
		fc.keepLive(e)
	}
	return fc
}

// log appends one transcript line, hashing long payloads.
func (fc *fuzzCanvas) log(what string, payload []byte) {
	if len(payload) > 64 {
		payload = fmt.Appendf(nil, "%d bytes, sha256 %x", len(payload), sha256.Sum256(payload))
	}
	fc.transcript = append(fc.transcript, fmt.Sprintf("%s = %q", what, payload))
}

func (fc *fuzzCanvas) keepLive(e *Element) {
	if fc.eager {
		e.bitmap()
	}
}

func (fc *fuzzCanvas) el() *Element      { return fc.els[fc.cur] }
func (fc *fuzzCanvas) ctx() *Context2D   { return fc.el().GetContext("2d") }
func (fc *fuzzCanvas) other() *Element   { return fc.els[1-fc.cur] }
func (fc *fuzzCanvas) gl() *WebGLContext { return fc.el().GetWebGL() }

// fuzzOps are the calls an input's op bytes select, modulo their count.
// Each reads its own arguments.
var fuzzOps = []struct {
	name string
	run  func(fc *fuzzCanvas, in *fuzzInput)
}{
	{"width", func(fc *fuzzCanvas, in *fuzzInput) { fc.el().SetWidth(int(in.num())); fc.keepLive(fc.el()) }},
	{"height", func(fc *fuzzCanvas, in *fuzzInput) { fc.el().SetHeight(int(in.num())); fc.keepLive(fc.el()) }},
	{"swap", func(fc *fuzzCanvas, in *fuzzInput) { fc.cur = 1 - fc.cur }},
	{"translate", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Translate(in.num(), in.num()) }},
	{"scale", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Scale(in.num(), in.num()) }},
	{"rotate", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Rotate(in.num()) }},
	{"transform", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().Transform(in.num(), in.num(), in.num(), in.num(), in.num(), in.num())
	}},
	{"setTransform", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().SetTransform(in.num(), in.num(), in.num(), in.num(), in.num(), in.num())
	}},
	{"resetTransform", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().ResetTransform() }},
	{"save", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Save() }},
	{"restore", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Restore() }},
	{"beginPath", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().BeginPath() }},
	{"closePath", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().ClosePath() }},
	{"moveTo", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().MoveTo(in.num(), in.num()) }},
	{"lineTo", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().LineTo(in.num(), in.num()) }},
	{"quadraticCurveTo", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().QuadraticCurveTo(in.num(), in.num(), in.num(), in.num())
	}},
	{"bezierCurveTo", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().BezierCurveTo(in.num(), in.num(), in.num(), in.num(), in.num(), in.num())
	}},
	{"arc", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().Arc(in.num(), in.num(), in.num(), in.num(), in.num(), in.num() > 0)
	}},
	{"arcTo", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().ArcTo(in.num(), in.num(), in.num(), in.num(), in.num())
	}},
	{"ellipse", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().Ellipse(in.num(), in.num(), in.num(), in.num(), in.num(), in.num(), in.num(), in.num() > 0)
	}},
	{"rect", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Rect(in.num(), in.num(), in.num(), in.num()) }},
	{"fill", func(fc *fuzzCanvas, in *fuzzInput) {
		rule := "nonzero"
		if in.num() > 0 {
			rule = "evenodd"
		}
		fc.ctx().Fill(rule)
	}},
	{"stroke", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Stroke() }},
	{"clip", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().Clip() }},
	{"isPointInPath", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().IsPointInPath(in.num(), in.num(), pick(in, fuzzWords)) }},
	{"fillRect", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().FillRect(in.num(), in.num(), in.num(), in.num()) }},
	{"strokeRect", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().StrokeRect(in.num(), in.num(), in.num(), in.num()) }},
	{"clearRect", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().ClearRect(in.num(), in.num(), in.num(), in.num()) }},
	{"font", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetFont(pick(in, fuzzFonts)) }},
	{"textAlign", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetTextAlign(pick(in, fuzzWords)) }},
	{"textBaseline", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetTextBaseline(pick(in, fuzzWords)) }},
	{"fillText", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().FillText(pick(in, fuzzTexts), in.num(), in.num()) }},
	{"strokeText", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().StrokeText(pick(in, fuzzTexts), in.num(), in.num()) }},
	{"measureText", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().MeasureText(pick(in, fuzzTexts)) }},
	{"fillStyle", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetFillStyle(pick(in, fuzzColors)) }},
	{"strokeStyle", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetStrokeStyle(pick(in, fuzzColors)) }},
	{"gradient", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.grad = fc.ctx().CreateLinearGradient(in.num(), in.num(), in.num(), in.num())
		fc.grad.AddColorStop(in.num(), pick(in, fuzzColors))
		fc.grad.AddColorStop(in.num(), pick(in, fuzzColors))
		fc.ctx().SetFillGradient(fc.grad.Paint())
	}},
	{"radialGradient", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.grad = fc.ctx().CreateRadialGradient(in.num(), in.num(), in.num(), in.num(), in.num(), in.num())
		fc.grad.AddColorStop(in.num(), pick(in, fuzzColors))
		fc.ctx().SetStrokeGradient(fc.grad.Paint())
	}},
	{"lineWidth", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetLineWidth(in.num()) }},
	{"lineCap", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetLineCap(pick(in, fuzzWords)) }},
	{"lineJoin", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetLineJoin(pick(in, fuzzWords)) }},
	{"miterLimit", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetMiterLimit(in.num()) }},
	{"setLineDash", func(fc *fuzzCanvas, in *fuzzInput) {
		dash := make([]float64, in.byte()%8)
		for i := range dash {
			dash[i] = in.num()
		}
		fc.ctx().SetLineDash(dash)
	}},
	{"lineDashOffset", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetLineDashOffset(in.num()) }},
	{"globalAlpha", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetGlobalAlpha(in.num()) }},
	{"composite", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().SetGlobalCompositeOperation(pick(in, fuzzWords)) }},
	{"shadow", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.ctx().SetShadow(pick(in, fuzzColors), in.num(), in.num(), in.num())
	}},
	{"getImageData", func(fc *fuzzCanvas, in *fuzzInput) {
		if d := fc.ctx().GetImageData(int(in.num()), int(in.num()), int(in.num()), int(in.num())); d != nil {
			fc.data = d
			fc.log("imageData", d.Pix)
		}
	}},
	{"putImageData", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().PutImageData(fc.data, int(in.num()), int(in.num())) }},
	{"createImageData", func(fc *fuzzCanvas, in *fuzzInput) {
		if d := fc.ctx().CreateImageData(int(in.num()), int(in.num())); d != nil {
			fc.data = d
		}
	}},
	{"drawImage", func(fc *fuzzCanvas, in *fuzzInput) { fc.ctx().DrawImage(fc.other(), in.num(), in.num()) }},
	{"toDataURL", func(fc *fuzzCanvas, in *fuzzInput) { fc.el().ToDataURL(pick(in, fuzzFormats), in.num()) }},
	{"webglClear", func(fc *fuzzCanvas, in *fuzzInput) {
		fc.gl().ClearColor(in.num(), in.num(), in.num(), in.num())
		fc.gl().Clear(GLColorBufferBit)
	}},
	{"webglDraw", func(fc *fuzzCanvas, in *fuzzInput) {
		gl := fc.gl()
		gl.BufferData([]float64{in.num(), in.num(), in.num(), in.num(), in.num(), in.num(), in.num(), in.num()})
		gl.DrawArrays(GLTriangleStrip, int(in.num()), int(in.num()))
	}},
	// lastGradient paints with the last gradient made, which may come
	// from the other canvas or from before a reset, after adding a stop.
	{"lastGradient", func(fc *fuzzCanvas, in *fuzzInput) {
		if fc.grad != nil {
			fc.grad.AddColorStop(in.num(), pick(in, fuzzColors))
			fc.ctx().SetFillGradient(fc.grad.Paint())
		}
	}},
	// hookedToDataURL extracts through contentNoise or callNoise, the
	// two randomization disciplines, then takes the hook off again.
	{"hookedToDataURL", func(fc *fuzzCanvas, in *fuzzInput) {
		e := fc.el()
		e.SetExtractHook(fc.hooks[in.byte()%2])
		e.ToDataURL(pick(in, fuzzFormats), in.num())
		e.SetExtractHook(nil)
	}},
}

// fuzzSeed assembles a corpus entry: a string names an op, a byte goes
// in as is (a table index or a count), and a number is encoded the way
// num decodes it.
func fuzzSeed(items ...any) []byte {
	var b []byte
	for _, it := range items {
		switch v := it.(type) {
		case string:
			i := 0
			for i < len(fuzzOps) && fuzzOps[i].name != v {
				i++
			}
			if i == len(fuzzOps) {
				panic("fuzzSeed: no op " + v)
			}
			b = append(b, byte(i))
		case byte:
			b = append(b, v)
		case int:
			b = appendNum(b, float64(v))
		case float64:
			b = appendNum(b, v)
		}
	}
	return b
}

func appendNum(b []byte, v float64) []byte {
	if v == math.Trunc(v) && v >= -32 && v < 0xE0-32 {
		return append(b, byte(v+32))
	}
	for i, s := range fuzzSpecial {
		if math.Float64bits(s) == math.Float64bits(v) {
			return append(b, 0xE0+byte(i))
		}
	}
	return binary.BigEndian.AppendUint64(append(b, 0xF0), math.Float64bits(v))
}
