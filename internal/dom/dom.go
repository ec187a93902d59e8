// Package dom exposes a minimal HTML document object model to scripts
// running in the jsvm: document.createElement("canvas"), canvas elements,
// 2D contexts, navigator, and ImageData — everything a canvas
// fingerprinting script touches.
//
// Every host object forwards Canvas API activity to the canvas package,
// whose Tracer hook is how the crawler observes scripts, mirroring the
// paper's instrumentation of CanvasRenderingContext2D and
// HTMLCanvasElement in a real browser.
package dom

import (
	"fmt"

	"canvassing/internal/canvas"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
)

// Document is the per-page DOM root.
type Document struct {
	// Profile is the machine the page renders on.
	Profile *machine.Profile
	// Tracer observes Canvas API calls on every canvas in the page.
	Tracer canvas.Tracer
	// ExtractHook is installed on every created canvas (randomization
	// defenses).
	ExtractHook canvas.ExtractHook
	// Memo, when non-nil, is shared by every created canvas's
	// toDataURL calls (see canvas.Memo).
	Memo *canvas.Memo
	// Domain is the page's hostname, exposed as document.domain.
	Domain string
	// Canvases collects every canvas element created by page scripts,
	// in creation order.
	Canvases []*canvas.Element
	// Loop is the page's deterministic event loop: the handler
	// registry and timer/idle queues behind addEventListener,
	// setTimeout/setInterval and requestIdleCallback.
	Loop *Loop

	byID map[string]jsvm.Value
	body jsvm.Value // document.body, made on first read
}

// NewDocument returns an empty document rendered on the given profile.
func NewDocument(profile *machine.Profile, domain string) *Document {
	return &Document{Profile: profile, Domain: domain, Loop: NewLoop(), byID: map[string]jsvm.Value{}}
}

// Install binds document, navigator and window into the interpreter's
// global scope and attaches the event loop to the VM so queued
// callbacks can re-enter it.
func (d *Document) Install(in *jsvm.Interp) {
	d.Loop.in = in
	in.SetGlobal("document", jsvm.NewHost(&documentHost{doc: d}))
	in.SetGlobal("navigator", jsvm.NewHost(&navigatorHost{doc: d}))
	in.SetGlobal("window", jsvm.NewHost(&windowHost{doc: d}))
	in.SetGlobal("screen", jsvm.NewHost(&screenHost{}))
}

// SetScriptOwner records the URL of the script about to execute, so
// handlers and timers it registers are attributed back to it when they
// fire later.
func (d *Document) SetScriptOwner(url string) { d.Loop.SetOwner(url) }

// --- document -------------------------------------------------------------

// methods keeps the one native a host hands out per method name, so a
// method read twice is the same function, as in a browser
// (ctx.fillText === ctx.fillText).
type methods map[string]jsvm.Value

// get returns the native for name, made by method on first use.
func (m *methods) get(name string, method func(string) (jsvm.Value, bool)) (jsvm.Value, bool) {
	if v, ok := (*m)[name]; ok {
		return v, true
	}
	v, ok := method(name)
	if ok {
		if *m == nil {
			*m = methods{}
		}
		(*m)[name] = v
	}
	return v, ok
}

type documentHost struct {
	doc     *Document
	natives methods
}

func (h *documentHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "body":
		if h.doc.body.IsUndefined() {
			h.doc.body = jsvm.NewHost(&genericElementHost{tag: "body", doc: h.doc})
		}
		return h.doc.body, true
	case "domain":
		return jsvm.String(h.doc.Domain), true
	case "__string__":
		return jsvm.String("[object HTMLDocument]"), true
	}
	return h.natives.get(name, h.method)
}

func (h *documentHost) method(name string) (jsvm.Value, bool) {
	switch name {
	case "createElement":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			tag := ""
			if len(args) > 0 {
				tag = args[0].Str()
			}
			return h.doc.createElement(tag), nil
		}), true
	case "getElementById":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) == 0 {
				return jsvm.Null(), nil
			}
			if v, ok := h.doc.byID[args[0].Str()]; ok {
				return v, nil
			}
			return jsvm.Null(), nil
		}), true
	case "addEventListener", "removeEventListener":
		return listenerNatives(h.doc.Loop, "document", name)
	}
	return jsvm.Undefined(), false
}

func (h *documentHost) HostSet(name string, v jsvm.Value) bool {
	// document.title and friends are accepted and ignored.
	return true
}

func (d *Document) createElement(tag string) jsvm.Value {
	switch tag {
	case "canvas", "CANVAS":
		el := canvas.New(d.Profile)
		el.SetTracer(d.Tracer)
		el.SetMemo(d.Memo)
		if d.ExtractHook != nil {
			el.SetExtractHook(d.ExtractHook)
		}
		d.Canvases = append(d.Canvases, el)
		h := &CanvasHost{doc: d, El: el}
		h.self = jsvm.NewHost(h)
		return h.self
	default:
		return jsvm.NewHost(&genericElementHost{tag: tag, doc: d})
	}
}

// RegisterByID makes an element reachable via document.getElementById.
func (d *Document) RegisterByID(id string, v jsvm.Value) { d.byID[id] = v }

// --- generic elements -------------------------------------------------------

type genericElementHost struct {
	tag     string
	doc     *Document
	props   map[string]jsvm.Value
	style   jsvm.Value
	natives methods
}

func (h *genericElementHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "tagName":
		return jsvm.String(h.tag), true
	case "style":
		return styleOf(&h.style), true
	case "__string__":
		return jsvm.String("[object HTMLElement]"), true
	}
	if v, ok := h.natives.get(name, h.method); ok {
		return v, true
	}
	v, ok := h.props[name]
	return v, ok
}

func (h *genericElementHost) method(name string) (jsvm.Value, bool) {
	switch name {
	case "addEventListener", "removeEventListener":
		return listenerNatives(h.doc.Loop, "element:"+h.tag, name)
	case "appendChild", "removeChild", "setAttribute", "remove":
		return noopNative(), true
	}
	return jsvm.Undefined(), false
}

// styleOf returns an element's style object, made on first read.
func styleOf(style *jsvm.Value) jsvm.Value {
	if style.IsUndefined() {
		*style = jsvm.NewObject()
	}
	return *style
}

func (h *genericElementHost) HostSet(name string, v jsvm.Value) bool {
	if h.props == nil {
		h.props = map[string]jsvm.Value{}
	}
	h.props[name] = v
	return true
}

func noopNative() jsvm.Value {
	return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
		return jsvm.Undefined(), nil
	})
}

// --- canvas element -----------------------------------------------------------

// CanvasHost exposes an HTMLCanvasElement to scripts.
type CanvasHost struct {
	doc *Document
	El  *canvas.Element
	// self is the value scripts hold for this element, ctx and gl its
	// 2D and WebGL contexts, each made on first use.
	self, ctx, gl jsvm.Value
	style         jsvm.Value
	natives       methods
}

// HostGet implements jsvm.HostObject.
func (h *CanvasHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "width":
		return jsvm.Number(float64(h.El.Width())), true
	case "height":
		return jsvm.Number(float64(h.El.Height())), true
	case "style":
		return styleOf(&h.style), true
	case "__string__":
		return jsvm.String("[object HTMLCanvasElement]"), true
	}
	return h.natives.get(name, h.method)
}

func (h *CanvasHost) method(name string) (jsvm.Value, bool) {
	switch name {
	case "getContext":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			kind := ""
			if len(args) > 0 {
				kind = args[0].Str()
			}
			if kind == "webgl" || kind == "experimental-webgl" {
				gl := h.El.GetWebGL() // traces every call
				if h.gl.IsUndefined() {
					h.gl = jsvm.NewHost(&webglHost{gl: gl})
				}
				return h.gl, nil
			}
			ctx := h.El.GetContext(kind)
			if ctx == nil {
				return jsvm.Null(), nil
			}
			if h.ctx.IsUndefined() {
				h.ctx = jsvm.NewHost(&ctxHost{ctx: ctx, canvasVal: h.self})
			}
			return h.ctx, nil
		}), true
	case "toDataURL":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			format := ""
			quality := -1.0
			if len(args) > 0 {
				format = args[0].Str()
			}
			if len(args) > 1 && args[1].Kind() == jsvm.KindNumber {
				quality = args[1].Num()
			}
			return jsvm.String(h.El.ToDataURL(format, quality)), nil
		}), true
	case "addEventListener", "removeEventListener":
		return listenerNatives(h.doc.Loop, "canvas", name)
	case "setAttribute", "remove":
		return noopNative(), true
	}
	return jsvm.Undefined(), false
}

// HostSet implements jsvm.HostObject.
func (h *CanvasHost) HostSet(name string, v jsvm.Value) bool {
	switch name {
	case "width":
		h.El.SetWidth(int(v.Num()))
		return true
	case "height":
		h.El.SetHeight(int(v.Num()))
		return true
	}
	return true // other attributes accepted and ignored
}

// --- 2D context ------------------------------------------------------------------

type ctxHost struct {
	ctx       *canvas.Context2D
	canvasVal jsvm.Value
	// shadow properties are set individually in the API but applied as a
	// unit to the context.
	shadowColor    string
	shadowOX       float64
	shadowOY       float64
	shadowBlur     float64
	fillStyleVal   jsvm.Value
	strokeStyleVal jsvm.Value
	natives        methods
}

func (h *ctxHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "canvas":
		return h.canvasVal, true
	case "fillStyle":
		if !h.fillStyleVal.IsUndefined() {
			return h.fillStyleVal, true
		}
		return jsvm.String(h.ctx.FillStyle()), true
	case "strokeStyle":
		if !h.strokeStyleVal.IsUndefined() {
			return h.strokeStyleVal, true
		}
		return jsvm.String("#000000"), true
	case "font":
		return jsvm.String(h.ctx.Font()), true
	case "globalCompositeOperation":
		return jsvm.String(h.ctx.GlobalCompositeOperation()), true
	case "__string__":
		return jsvm.String("[object CanvasRenderingContext2D]"), true
	}
	return h.natives.get(name, h.method)
}

func (h *ctxHost) method(name string) (jsvm.Value, bool) {
	switch name {
	case "measureText":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			text := ""
			if len(args) > 0 {
				text = args[0].Str()
			}
			m := h.ctx.MeasureText(text)
			out := jsvm.NewObject()
			out.Object().Props["width"] = jsvm.Number(m.Width)
			return out, nil
		}), true
	case "getImageData":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) < 4 {
				return jsvm.Undefined(), fmt.Errorf("dom: getImageData needs 4 arguments")
			}
			d := h.ctx.GetImageData(int(args[0].Num()), int(args[1].Num()), int(args[2].Num()), int(args[3].Num()))
			if d == nil {
				return jsvm.Undefined(), fmt.Errorf("dom: getImageData area too large")
			}
			return jsvm.NewHost(&imageDataHost{data: d}), nil
		}), true
	case "putImageData":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) < 3 {
				return jsvm.Undefined(), nil
			}
			if idh, ok := args[0].Host().(*imageDataHost); ok {
				h.ctx.PutImageData(idh.data, int(args[1].Num()), int(args[2].Num()))
			}
			return jsvm.Undefined(), nil
		}), true
	case "createImageData":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			w, hh := 0, 0
			if len(args) > 1 {
				w, hh = int(args[0].Num()), int(args[1].Num())
			}
			d := h.ctx.CreateImageData(w, hh)
			if d == nil {
				return jsvm.Undefined(), fmt.Errorf("dom: createImageData area too large")
			}
			return jsvm.NewHost(&imageDataHost{data: d}), nil
		}), true
	case "createLinearGradient":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) < 4 {
				return jsvm.Undefined(), fmt.Errorf("dom: createLinearGradient needs 4 arguments")
			}
			g := h.ctx.CreateLinearGradient(args[0].Num(), args[1].Num(), args[2].Num(), args[3].Num())
			return jsvm.NewHost(&gradientHost{g: g}), nil
		}), true
	case "createRadialGradient":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) < 6 {
				return jsvm.Undefined(), fmt.Errorf("dom: createRadialGradient needs 6 arguments")
			}
			g := h.ctx.CreateRadialGradient(args[0].Num(), args[1].Num(), args[2].Num(), args[3].Num(), args[4].Num(), args[5].Num())
			return jsvm.NewHost(&gradientHost{g: g}), nil
		}), true
	case "drawImage":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) < 3 {
				return jsvm.Undefined(), nil
			}
			if ch, ok := args[0].Host().(*CanvasHost); ok {
				h.ctx.DrawImage(ch.El, args[1].Num(), args[2].Num())
			}
			return jsvm.Undefined(), nil
		}), true
	}
	return h.drawMethod(name)
}

// drawMethod returns void drawing methods as native functions.
func (h *ctxHost) drawMethod(name string) (jsvm.Value, bool) {
	num := func(args []jsvm.Value, i int) float64 {
		if i < len(args) {
			return args[i].Num()
		}
		return 0
	}
	mk := func(f func(args []jsvm.Value)) jsvm.Value {
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			f(args)
			return jsvm.Undefined(), nil
		})
	}
	switch name {
	case "fillRect":
		return mk(func(a []jsvm.Value) { h.ctx.FillRect(num(a, 0), num(a, 1), num(a, 2), num(a, 3)) }), true
	case "strokeRect":
		return mk(func(a []jsvm.Value) { h.ctx.StrokeRect(num(a, 0), num(a, 1), num(a, 2), num(a, 3)) }), true
	case "clearRect":
		return mk(func(a []jsvm.Value) { h.ctx.ClearRect(num(a, 0), num(a, 1), num(a, 2), num(a, 3)) }), true
	case "fillText":
		return mk(func(a []jsvm.Value) {
			if len(a) >= 3 {
				h.ctx.FillText(a[0].Str(), a[1].Num(), a[2].Num())
			}
		}), true
	case "strokeText":
		return mk(func(a []jsvm.Value) {
			if len(a) >= 3 {
				h.ctx.StrokeText(a[0].Str(), a[1].Num(), a[2].Num())
			}
		}), true
	case "beginPath":
		return mk(func(a []jsvm.Value) { h.ctx.BeginPath() }), true
	case "closePath":
		return mk(func(a []jsvm.Value) { h.ctx.ClosePath() }), true
	case "moveTo":
		return mk(func(a []jsvm.Value) { h.ctx.MoveTo(num(a, 0), num(a, 1)) }), true
	case "lineTo":
		return mk(func(a []jsvm.Value) { h.ctx.LineTo(num(a, 0), num(a, 1)) }), true
	case "quadraticCurveTo":
		return mk(func(a []jsvm.Value) { h.ctx.QuadraticCurveTo(num(a, 0), num(a, 1), num(a, 2), num(a, 3)) }), true
	case "bezierCurveTo":
		return mk(func(a []jsvm.Value) {
			h.ctx.BezierCurveTo(num(a, 0), num(a, 1), num(a, 2), num(a, 3), num(a, 4), num(a, 5))
		}), true
	case "arc":
		return mk(func(a []jsvm.Value) {
			ccw := len(a) > 5 && a[5].Bool()
			h.ctx.Arc(num(a, 0), num(a, 1), num(a, 2), num(a, 3), num(a, 4), ccw)
		}), true
	case "arcTo":
		return mk(func(a []jsvm.Value) {
			h.ctx.ArcTo(num(a, 0), num(a, 1), num(a, 2), num(a, 3), num(a, 4))
		}), true
	case "setLineDash":
		return mk(func(a []jsvm.Value) {
			if len(a) == 0 || !a[0].IsArray() {
				return
			}
			elems := a[0].Object().Elems
			segs := make([]float64, len(elems))
			for i, e := range elems {
				segs[i] = e.Num()
			}
			h.ctx.SetLineDash(segs)
		}), true
	case "getLineDash":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			segs := h.ctx.GetLineDash()
			out := make([]jsvm.Value, len(segs))
			for i, s := range segs {
				out[i] = jsvm.Number(s)
			}
			return jsvm.NewArray(out...), nil
		}), true
	case "isPointInPath":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) < 2 {
				return jsvm.Boolean(false), nil
			}
			rule := ""
			if len(args) > 2 {
				rule = args[2].Str()
			}
			return jsvm.Boolean(h.ctx.IsPointInPath(args[0].Num(), args[1].Num(), rule)), nil
		}), true
	case "ellipse":
		return mk(func(a []jsvm.Value) {
			ccw := len(a) > 7 && a[7].Bool()
			h.ctx.Ellipse(num(a, 0), num(a, 1), num(a, 2), num(a, 3), num(a, 4), num(a, 5), num(a, 6), ccw)
		}), true
	case "rect":
		return mk(func(a []jsvm.Value) { h.ctx.Rect(num(a, 0), num(a, 1), num(a, 2), num(a, 3)) }), true
	case "fill":
		return mk(func(a []jsvm.Value) {
			rule := ""
			if len(a) > 0 {
				rule = a[0].Str()
			}
			h.ctx.Fill(rule)
		}), true
	case "stroke":
		return mk(func(a []jsvm.Value) { h.ctx.Stroke() }), true
	case "clip":
		return mk(func(a []jsvm.Value) { h.ctx.Clip() }), true
	case "save":
		return mk(func(a []jsvm.Value) { h.ctx.Save() }), true
	case "restore":
		return mk(func(a []jsvm.Value) { h.ctx.Restore() }), true
	case "translate":
		return mk(func(a []jsvm.Value) { h.ctx.Translate(num(a, 0), num(a, 1)) }), true
	case "scale":
		return mk(func(a []jsvm.Value) { h.ctx.Scale(num(a, 0), num(a, 1)) }), true
	case "rotate":
		return mk(func(a []jsvm.Value) { h.ctx.Rotate(num(a, 0)) }), true
	case "transform":
		return mk(func(a []jsvm.Value) {
			h.ctx.Transform(num(a, 0), num(a, 1), num(a, 2), num(a, 3), num(a, 4), num(a, 5))
		}), true
	case "setTransform":
		return mk(func(a []jsvm.Value) {
			h.ctx.SetTransform(num(a, 0), num(a, 1), num(a, 2), num(a, 3), num(a, 4), num(a, 5))
		}), true
	case "resetTransform":
		return mk(func(a []jsvm.Value) { h.ctx.ResetTransform() }), true
	}
	return jsvm.Undefined(), false
}

func (h *ctxHost) HostSet(name string, v jsvm.Value) bool {
	switch name {
	case "fillStyle":
		if gh, ok := v.Host().(*gradientHost); ok {
			h.ctx.SetFillGradient(gh.g.Paint())
			h.fillStyleVal = v
		} else {
			h.ctx.SetFillStyle(v.Str())
			h.fillStyleVal = jsvm.Undefined()
		}
	case "strokeStyle":
		if gh, ok := v.Host().(*gradientHost); ok {
			h.ctx.SetStrokeGradient(gh.g.Paint())
			h.strokeStyleVal = v
		} else {
			h.ctx.SetStrokeStyle(v.Str())
			h.strokeStyleVal = jsvm.Undefined()
		}
	case "font":
		h.ctx.SetFont(v.Str())
	case "textAlign":
		h.ctx.SetTextAlign(v.Str())
	case "textBaseline":
		h.ctx.SetTextBaseline(v.Str())
	case "lineWidth":
		h.ctx.SetLineWidth(v.Num())
	case "lineCap":
		h.ctx.SetLineCap(v.Str())
	case "lineJoin":
		h.ctx.SetLineJoin(v.Str())
	case "miterLimit":
		h.ctx.SetMiterLimit(v.Num())
	case "globalAlpha":
		h.ctx.SetGlobalAlpha(v.Num())
	case "globalCompositeOperation":
		h.ctx.SetGlobalCompositeOperation(v.Str())
	case "lineDashOffset":
		h.ctx.SetLineDashOffset(v.Num())
	case "shadowColor":
		h.shadowColor = v.Str()
		h.applyShadow()
	case "shadowOffsetX":
		h.shadowOX = v.Num()
		h.applyShadow()
	case "shadowOffsetY":
		h.shadowOY = v.Num()
		h.applyShadow()
	case "shadowBlur":
		h.shadowBlur = v.Num()
		h.applyShadow()
	}
	return true
}

func (h *ctxHost) applyShadow() {
	color := h.shadowColor
	if color == "" {
		color = "rgba(0,0,0,0)"
	}
	h.ctx.SetShadow(color, h.shadowOX, h.shadowOY, h.shadowBlur)
}

// --- gradient -------------------------------------------------------------------

type gradientHost struct {
	g            *canvas.Gradient
	addColorStop jsvm.Value
}

func (h *gradientHost) HostGet(name string) (jsvm.Value, bool) {
	if name == "addColorStop" {
		if h.addColorStop.IsUndefined() {
			h.addColorStop = jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
				if len(args) >= 2 {
					h.g.AddColorStop(args[0].Num(), args[1].Str())
				}
				return jsvm.Undefined(), nil
			})
		}
		return h.addColorStop, true
	}
	if name == "__string__" {
		return jsvm.String("[object CanvasGradient]"), true
	}
	return jsvm.Undefined(), false
}

func (h *gradientHost) HostSet(name string, v jsvm.Value) bool { return false }

// --- ImageData --------------------------------------------------------------------

type imageDataHost struct {
	data *canvas.ImageData
}

func (h *imageDataHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "width":
		return jsvm.Number(float64(h.data.W)), true
	case "height":
		return jsvm.Number(float64(h.data.H)), true
	case "data":
		return jsvm.NewHost(&pixelArrayHost{pix: h.data.Pix}), true
	case "__string__":
		return jsvm.String("[object ImageData]"), true
	}
	return jsvm.Undefined(), false
}

func (h *imageDataHost) HostSet(name string, v jsvm.Value) bool { return false }

// pixelArrayHost exposes the Uint8ClampedArray-ish pixel buffer with
// numeric indexing and length.
type pixelArrayHost struct {
	pix []uint8
}

func (h *pixelArrayHost) HostGet(name string) (jsvm.Value, bool) {
	if name == "length" {
		return jsvm.Number(float64(len(h.pix))), true
	}
	if idx, ok := parseIndex(name); ok && idx < len(h.pix) {
		return jsvm.Number(float64(h.pix[idx])), true
	}
	return jsvm.Undefined(), false
}

func (h *pixelArrayHost) HostSet(name string, v jsvm.Value) bool {
	if idx, ok := parseIndex(name); ok && idx < len(h.pix) {
		n := int(v.Num())
		if n < 0 {
			n = 0
		}
		if n > 255 {
			n = 255
		}
		h.pix[idx] = uint8(n)
		return true
	}
	return false
}

func parseIndex(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

// --- navigator / window / screen ------------------------------------------------------

type navigatorHost struct {
	doc       *Document
	languages jsvm.Value // navigator.languages, made on first read
}

func (h *navigatorHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "userAgent":
		return jsvm.String(h.doc.Profile.UserAgent()), true
	case "platform":
		return jsvm.String(h.doc.Profile.OS), true
	case "language":
		return jsvm.String("en-US"), true
	case "languages":
		if h.languages.IsUndefined() {
			h.languages = jsvm.NewArray(jsvm.String("en-US"), jsvm.String("en"))
		}
		return h.languages, true
	case "hardwareConcurrency":
		return jsvm.Number(8), true
	case "webdriver":
		// The crawler masks automation, as Tracker Radar Collector does.
		return jsvm.Boolean(false), true
	case "__string__":
		return jsvm.String("[object Navigator]"), true
	}
	return jsvm.Undefined(), false
}

func (h *navigatorHost) HostSet(name string, v jsvm.Value) bool { return false }

type windowHost struct {
	doc      *Document
	props    map[string]jsvm.Value
	location jsvm.Value // window.location, made on first read
	natives  methods
}

func (h *windowHost) HostGet(name string) (jsvm.Value, bool) {
	if v, ok := h.props[name]; ok {
		return v, true
	}
	switch name {
	case "innerWidth":
		return jsvm.Number(1920), true
	case "innerHeight":
		return jsvm.Number(1080), true
	case "devicePixelRatio":
		return jsvm.Number(1), true
	case "location":
		if h.location.IsUndefined() {
			h.location = jsvm.NewObject()
			h.location.Object().Props["hostname"] = jsvm.String(h.doc.Domain)
			h.location.Object().Props["href"] = jsvm.String("https://" + h.doc.Domain + "/")
		}
		return h.location, true
	case "__string__":
		return jsvm.String("[object Window]"), true
	}
	return h.natives.get(name, h.method)
}

func (h *windowHost) method(name string) (jsvm.Value, bool) {
	switch name {
	case "addEventListener", "removeEventListener":
		return listenerNatives(h.doc.Loop, "window", name)
	case "setTimeout", "setInterval":
		// Callbacks are queued, not run: the crawler drains the loop
		// deterministically at page-settle. Ids are unique and
		// monotonically increasing, as scripts expect.
		interval := name == "setInterval"
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			var fn jsvm.Value
			delay := 0.0
			if len(args) > 0 {
				fn = args[0]
			}
			if len(args) > 1 {
				delay = args[1].Num()
			}
			if interval {
				return jsvm.Number(float64(h.doc.Loop.SetInterval(fn, delay))), nil
			}
			return jsvm.Number(float64(h.doc.Loop.SetTimeout(fn, delay))), nil
		}), true
	case "clearTimeout", "clearInterval":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) > 0 {
				h.doc.Loop.ClearTimer(int(args[0].Num()))
			}
			return jsvm.Undefined(), nil
		}), true
	case "requestIdleCallback":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			var fn jsvm.Value
			if len(args) > 0 {
				fn = args[0]
			}
			return jsvm.Number(float64(h.doc.Loop.RequestIdle(fn))), nil
		}), true
	case "cancelIdleCallback":
		return jsvm.NewNative(func(this jsvm.Value, args []jsvm.Value) (jsvm.Value, error) {
			if len(args) > 0 {
				h.doc.Loop.CancelIdle(int(args[0].Num()))
			}
			return jsvm.Undefined(), nil
		}), true
	}
	return jsvm.Undefined(), false
}

func (h *windowHost) HostSet(name string, v jsvm.Value) bool {
	if h.props == nil {
		h.props = map[string]jsvm.Value{}
	}
	h.props[name] = v
	return true
}

type screenHost struct{}

func (h *screenHost) HostGet(name string) (jsvm.Value, bool) {
	switch name {
	case "width":
		return jsvm.Number(1920), true
	case "height":
		return jsvm.Number(1080), true
	case "colorDepth", "pixelDepth":
		return jsvm.Number(24), true
	}
	return jsvm.Undefined(), false
}

func (h *screenHost) HostSet(name string, v jsvm.Value) bool { return false }
