package dom

import (
	"strings"
	"testing"

	"canvassing/internal/canvas"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
)

func newVM(t *testing.T) (*jsvm.Interp, *Document) {
	t.Helper()
	in := jsvm.New(jsvm.Options{RandSeed: 1})
	doc := NewDocument(machine.Intel(), "example.com")
	doc.Install(in)
	return in, doc
}

func mustRun(t *testing.T, in *jsvm.Interp, src string) jsvm.Value {
	t.Helper()
	v, err := in.RunSource(src)
	if err != nil {
		t.Fatalf("script failed: %v", err)
	}
	return v
}

func TestCreateCanvasAndDraw(t *testing.T) {
	in, doc := newVM(t)
	src := `
	var c = document.createElement('canvas');
	c.width = 200;
	c.height = 50;
	var ctx = c.getContext('2d');
	ctx.fillStyle = '#ff6600';
	ctx.fillRect(10, 10, 50, 20);
	c.toDataURL()`
	v := mustRun(t, in, src)
	if !strings.HasPrefix(v.Str(), "data:image/png;base64,") {
		t.Fatalf("toDataURL: %.40s", v.Str())
	}
	if len(doc.Canvases) != 1 {
		t.Fatalf("canvas count = %d", len(doc.Canvases))
	}
	el := doc.Canvases[0]
	if el.Image().W != 200 || el.Image().H != 50 {
		t.Fatal("size attributes")
	}
	px := el.Image().At(20, 15)
	if px.R != 255 || px.G != 102 {
		t.Fatalf("painted pixel: %v", px)
	}
}

func TestFingerprintScriptEndToEnd(t *testing.T) {
	// A condensed version of the FingerprintJS canvas source.
	src := `
	function canvasFingerprint() {
		var canvas = document.createElement('canvas');
		canvas.width = 240;
		canvas.height = 60;
		var ctx = canvas.getContext('2d');
		ctx.textBaseline = 'alphabetic';
		ctx.fillStyle = '#f60';
		ctx.fillRect(100, 1, 62, 20);
		ctx.fillStyle = '#069';
		ctx.font = '11pt Arial';
		ctx.fillText('Cwm fjordbank glyphs vext quiz', 2, 15);
		ctx.fillStyle = 'rgba(102, 204, 0, 0.2)';
		ctx.font = '18pt Arial';
		ctx.fillText('Cwm fjordbank glyphs vext quiz', 4, 45);
		return canvas.toDataURL();
	}
	canvasFingerprint()`
	in1, _ := newVM(t)
	in2, _ := newVM(t)
	a := mustRun(t, in1, src).Str()
	b := mustRun(t, in2, src).Str()
	if a != b {
		t.Fatal("fingerprint must be deterministic across page loads")
	}
	// Different machine → different canvas.
	in3 := jsvm.New(jsvm.Options{})
	doc3 := NewDocument(machine.AppleM1(), "example.com")
	doc3.Install(in3)
	c := mustRun(t, in3, src).Str()
	if c == a {
		t.Fatal("different machine must produce a different canvas")
	}
}

func TestTracerSeesScriptActivity(t *testing.T) {
	in := jsvm.New(jsvm.Options{})
	doc := NewDocument(machine.Intel(), "example.com")
	var traced []string
	doc.Tracer = canvas.TracerFunc(func(iface, member string, args []string, ret string) {
		traced = append(traced, iface+"."+member)
	})
	doc.Install(in)
	mustRun(t, in, `
	var c = document.createElement('canvas');
	var ctx = c.getContext('2d');
	ctx.fillText('x', 0, 10);
	c.toDataURL()`)
	joined := strings.Join(traced, " ")
	for _, want := range []string{"HTMLCanvasElement.getContext", "CanvasRenderingContext2D.fillText", "HTMLCanvasElement.toDataURL"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %s in trace: %v", want, traced)
		}
	}
}

func TestGetImageDataFromScript(t *testing.T) {
	in, _ := newVM(t)
	src := `
	var c = document.createElement('canvas');
	c.width = 4; c.height = 4;
	var ctx = c.getContext('2d');
	ctx.fillStyle = '#ff0000';
	ctx.fillRect(0, 0, 4, 4);
	var d = ctx.getImageData(0, 0, 2, 2);
	d.data[0] + ',' + d.data[3] + ',' + d.data.length`
	v := mustRun(t, in, src)
	if v.Str() != "255,255,16" {
		t.Fatalf("image data: %s", v.Str())
	}
}

func TestPixelHashLoop(t *testing.T) {
	// Scripts commonly hash pixel data in a loop.
	in, _ := newVM(t)
	src := `
	var c = document.createElement('canvas');
	c.width = 8; c.height = 8;
	var ctx = c.getContext('2d');
	ctx.fillStyle = '#123456';
	ctx.fillRect(0, 0, 8, 8);
	var d = ctx.getImageData(0, 0, 8, 8).data;
	var hash = 0;
	for (var i = 0; i < d.length; i++) {
		hash = ((hash << 5) - hash + d[i]) & 0x7fffffff;
	}
	hash`
	v1 := mustRun(t, in, src)
	in2, _ := newVM(t)
	v2 := mustRun(t, in2, src)
	if v1.Num() != v2.Num() {
		t.Fatal("pixel hash must be stable")
	}
	if v1.Num() == 0 {
		t.Fatal("hash should be nonzero for painted canvas")
	}
}

func TestGradientFromScript(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `
	var c = document.createElement('canvas');
	var ctx = c.getContext('2d');
	var g = ctx.createLinearGradient(0, 0, 300, 0);
	g.addColorStop(0, '#000000');
	g.addColorStop(1, '#ffffff');
	ctx.fillStyle = g;
	ctx.fillRect(0, 0, 300, 150);`)
	img := doc.Canvases[0].Image()
	if img.At(5, 75).R >= img.At(295, 75).R {
		t.Fatal("gradient should brighten leftright")
	}
}

func TestNavigatorAndWindow(t *testing.T) {
	in, _ := newVM(t)
	v := mustRun(t, in, `navigator.userAgent`)
	if !strings.Contains(v.Str(), "CanvassingCrawler") {
		t.Fatalf("userAgent: %s", v.Str())
	}
	if v := mustRun(t, in, `navigator.webdriver`); v.Bool() {
		t.Fatal("webdriver must be masked")
	}
	if v := mustRun(t, in, `window.location.hostname`); v.Str() != "example.com" {
		t.Fatalf("hostname: %s", v.Str())
	}
	if v := mustRun(t, in, `screen.width * screen.height`); v.Num() != 1920*1080 {
		t.Fatal("screen dims")
	}
}

func TestDocumentDomain(t *testing.T) {
	in, _ := newVM(t)
	if v := mustRun(t, in, `document.domain`); v.Str() != "example.com" {
		t.Fatalf("domain: %s", v.Str())
	}
}

func TestNonCanvasElement(t *testing.T) {
	in, doc := newVM(t)
	v := mustRun(t, in, `
	var d = document.createElement('div');
	d.id = 'x';
	document.body.appendChild(d);
	d.tagName`)
	if v.Str() != "div" {
		t.Fatalf("tagName: %s", v.Str())
	}
	if len(doc.Canvases) != 0 {
		t.Fatal("div should not create canvases")
	}
}

func TestGetElementById(t *testing.T) {
	in, doc := newVM(t)
	el := jsvm.String("sentinel")
	doc.RegisterByID("target", el)
	if v := mustRun(t, in, `document.getElementById('target')`); v.Str() != "sentinel" {
		t.Fatal("getElementById")
	}
	if v := mustRun(t, in, `document.getElementById('missing') === null`); !v.Bool() {
		t.Fatal("missing id should be null")
	}
}

func TestMeasureTextFromScript(t *testing.T) {
	in, _ := newVM(t)
	v := mustRun(t, in, `
	var ctx = document.createElement('canvas').getContext('2d');
	ctx.font = '16px Arial';
	ctx.measureText('mmmm').width > ctx.measureText('iiii').width`)
	if !v.Bool() {
		t.Fatal("measureText should reflect glyph widths")
	}
}

func TestShadowPropertiesFromScript(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `
	var c = document.createElement('canvas');
	var ctx = c.getContext('2d');
	ctx.shadowColor = '#0000ff';
	ctx.shadowOffsetX = 12;
	ctx.shadowOffsetY = 12;
	ctx.fillStyle = '#ff0000';
	ctx.fillRect(40, 40, 30, 30);`)
	img := doc.Canvases[0].Image()
	foundShadow := false
	for y := 65; y < 85 && !foundShadow; y++ {
		for x := 65; x < 85; x++ {
			if px := img.At(x, y); px.B > 100 && px.R < 100 {
				foundShadow = true
				break
			}
		}
	}
	if !foundShadow {
		t.Fatal("shadow should paint")
	}
}

func TestWebGLContextFromScript(t *testing.T) {
	in, _ := newVM(t)
	// GPU strings come from the machine profile.
	v := mustRun(t, in, `
	var gl = document.createElement('canvas').getContext('webgl');
	gl.getParameter(gl.UNMASKED_RENDERER_WEBGL)`)
	if !strings.Contains(v.Str(), "Intel") {
		t.Fatalf("unmasked renderer: %q", v.Str())
	}
	if v := mustRun(t, in, `
	var gl2 = document.createElement('canvas').getContext('experimental-webgl');
	gl2.getSupportedExtensions().length > 3`); !v.Bool() {
		t.Fatal("extensions list")
	}
	if v := mustRun(t, in, `'' + document.createElement('canvas').getContext('webgl')`); v.Str() != "[object WebGLRenderingContext]" {
		t.Fatalf("toString: %s", v.Str())
	}
	// Unsupported kinds still yield null.
	if v := mustRun(t, in, `document.createElement('canvas').getContext('webgl2') === null`); !v.Bool() {
		t.Fatal("webgl2 unavailable")
	}
}

func TestWebGLSceneFingerprint(t *testing.T) {
	scene := `
	var c = document.createElement('canvas');
	c.width = 64; c.height = 48;
	var gl = c.getContext('webgl');
	var vs = gl.createShader(gl.VERTEX_SHADER);
	gl.shaderSource(vs, 'attribute vec2 p; void main(){gl_Position=vec4(p,0,1);}');
	gl.compileShader(vs);
	var prog = gl.createProgram();
	gl.attachShader(prog, vs);
	gl.linkProgram(prog);
	gl.useProgram(prog);
	var buf = gl.createBuffer();
	gl.bindBuffer(gl.ARRAY_BUFFER, buf);
	gl.bufferData(gl.ARRAY_BUFFER, [-0.7, -0.6, 0.8, -0.5, 0.0, 0.72], gl.STATIC_DRAW);
	gl.vertexAttribPointer(0, 2, 0, false, 0, 0);
	gl.enableVertexAttribArray(0);
	gl.clearColor(0.1, 0.1, 0.1, 1.0);
	gl.clear(gl.COLOR_BUFFER_BIT);
	gl.drawArrays(gl.TRIANGLES, 0, 3);
	c.toDataURL()`
	render := func(prof *machine.Profile) string {
		in := jsvm.New(jsvm.Options{RandSeed: 1})
		doc := NewDocument(prof, "gl.example")
		doc.Install(in)
		v, err := in.RunSource(scene)
		if err != nil {
			t.Fatal(err)
		}
		return v.Str()
	}
	intel1 := render(machine.Intel())
	intel2 := render(machine.Intel())
	if intel1 != intel2 {
		t.Fatal("WebGL scene must be deterministic per machine")
	}
	if m1 := render(machine.AppleM1()); m1 == intel1 {
		t.Fatal("WebGL scene must differ across machines")
	}
	if !strings.HasPrefix(intel1, "data:image/png;base64,") {
		t.Fatal("scene extraction")
	}
}

func TestCanvasToString(t *testing.T) {
	in, _ := newVM(t)
	if v := mustRun(t, in, `'' + document.createElement('canvas')`); v.Str() != "[object HTMLCanvasElement]" {
		t.Fatalf("toString: %s", v.Str())
	}
}

func TestLineDashFromScript(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `
	var c = document.createElement('canvas');
	var ctx = c.getContext('2d');
	ctx.setLineDash([10, 10]);
	ctx.lineDashOffset = 0;
	ctx.strokeStyle = '#f00';
	ctx.lineWidth = 4;
	ctx.beginPath();
	ctx.moveTo(0, 75);
	ctx.lineTo(300, 75);
	ctx.stroke();`)
	img := doc.Canvases[0].Image()
	if img.At(5, 75).A == 0 || img.At(15, 75).A != 0 {
		t.Fatal("dashes should alternate")
	}
	if v := mustRun(t, in, `
	var c2 = document.createElement('canvas');
	var x2 = c2.getContext('2d');
	x2.setLineDash([4, 2]);
	x2.getLineDash().join(',')`); v.Str() != "4,2" {
		t.Fatalf("getLineDash: %s", v.Str())
	}
}

func TestArcToAndIsPointInPathFromScript(t *testing.T) {
	in, _ := newVM(t)
	v := mustRun(t, in, `
	var c = document.createElement('canvas');
	var ctx = c.getContext('2d');
	ctx.beginPath();
	ctx.moveTo(20, 20);
	ctx.arcTo(150, 20, 150, 70, 30);
	ctx.lineTo(150, 120);
	ctx.lineTo(20, 120);
	ctx.closePath();
	ctx.isPointInPath(80, 70) + ':' + ctx.isPointInPath(5, 5)`)
	if v.Str() != "true:false" {
		t.Fatalf("isPointInPath via script: %s", v.Str())
	}
}

func TestSetTimeoutQueuesUntilSettle(t *testing.T) {
	in, doc := newVM(t)
	// setTimeout must not run the callback synchronously...
	if v := mustRun(t, in, `var hit = 0; window.setTimeout(function(){ hit = 1; }, 0); hit`); v.Num() != 0 {
		t.Fatal("setTimeout callback must not run synchronously")
	}
	// ...but the queued callback runs deterministically at page-settle.
	if ran := doc.Loop.RunTimers(nil); ran != 1 {
		t.Fatalf("drain ran %d callbacks, want 1", ran)
	}
	if v := mustRun(t, in, `hit`); v.Num() != 1 {
		t.Fatal("queued callback must run at settle drain")
	}
}

func TestTimerIDsUniqueAndClearable(t *testing.T) {
	in, doc := newVM(t)
	// Ids are unique and monotonically increasing (the old stub
	// returned a constant 0 for every registration).
	v := mustRun(t, in, `
	var a = window.setTimeout(function(){}, 0);
	var b = window.setTimeout(function(){}, 5);
	var c = window.setInterval(function(){}, 10);
	(a < b) + ':' + (b < c) + ':' + a`)
	if v.Str() != "true:true:1" {
		t.Fatalf("timer ids: %s", v.Str())
	}
	// clearTimeout actually cancels.
	mustRun(t, in, `
	var fired = 0;
	var id = window.setTimeout(function(){ fired = 1; }, 0);
	window.clearTimeout(id);
	window.clearInterval(c);`)
	doc.Loop.RunTimers(nil)
	if v := mustRun(t, in, `fired`); v.Num() != 0 {
		t.Fatal("cleared timer must not fire")
	}
}

func TestTimersDrainInDelayOrder(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `
	var order = '';
	window.setTimeout(function(){ order += 'b'; }, 50);
	window.setTimeout(function(){ order += 'a'; }, 10);
	window.setTimeout(function(){ order += 'c'; }, 50);`)
	doc.Loop.RunTimers(nil)
	if v := mustRun(t, in, `order`); v.Str() != "abc" {
		t.Fatalf("drain order %q, want abc ((delay, id) order)", v.Str())
	}
}

func TestIntervalTicksBounded(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `var ticks = 0; window.setInterval(function(){ ticks++; }, 10);`)
	doc.Loop.RunTimers(nil)
	if v := mustRun(t, in, `ticks`); v.Num() != maxIntervalTicks {
		t.Fatalf("interval ticks = %v, want %d", v.Num(), maxIntervalTicks)
	}
}

func TestTimerChainBudget(t *testing.T) {
	in, doc := newVM(t)
	// A self-rescheduling chain must stop at the drain budget, not spin.
	mustRun(t, in, `
	var n = 0;
	function again() { n++; window.setTimeout(again, 1); }
	window.setTimeout(again, 1);`)
	ran := doc.Loop.RunTimers(nil)
	if ran != drainBudget {
		t.Fatalf("chain ran %d callbacks, want drain budget %d", ran, drainBudget)
	}
}

func TestAddRemoveDispatch(t *testing.T) {
	in, doc := newVM(t)
	// add → remove → dispatch on every host kind: the removed handler
	// must not fire, the surviving ones must, in registration order.
	mustRun(t, in, `
	var log = '';
	function gone() { log += 'X'; }
	document.addEventListener('click', function(){ log += 'd'; });
	document.addEventListener('click', gone);
	document.removeEventListener('click', gone);
	window.addEventListener('click', function(){ log += 'w'; });
	var div = document.createElement('div');
	div.addEventListener('click', function(){ log += 'e'; });
	var c = document.createElement('canvas');
	c.addEventListener('click', function(){ log += 'c'; });`)
	if got := len(doc.Loop.Handlers()); got != 4 {
		t.Fatalf("live handlers = %d, want 4 after remove", got)
	}
	ran := doc.Loop.Dispatch("click", nil)
	if ran != 4 {
		t.Fatalf("dispatch ran %d handlers, want 4", ran)
	}
	if v := mustRun(t, in, `log`); v.Str() != "dwec" {
		t.Fatalf("dispatch order %q, want dwec (registration order, no removed handler)", v.Str())
	}
	// Unrelated event types stay quiet.
	if ran := doc.Loop.Dispatch("scroll", nil); ran != 0 {
		t.Fatalf("scroll dispatch ran %d handlers, want 0", ran)
	}
}

func TestDispatchEventObject(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `
	var seen = '';
	window.addEventListener('click', function(ev){ seen = ev.type + ':' + ev.isTrusted; });`)
	doc.Loop.Dispatch("click", nil)
	if v := mustRun(t, in, `seen`); v.Str() != "click:true" {
		t.Fatalf("event object: %s", v.Str())
	}
}

func TestRequestIdleCallback(t *testing.T) {
	in, doc := newVM(t)
	mustRun(t, in, `
	var idle = '';
	var id = window.requestIdleCallback(function(d){ idle = 'ran:' + (d.timeRemaining() > 0); });
	var dead = window.requestIdleCallback(function(){ idle = 'wrong'; });
	window.cancelIdleCallback(dead);`)
	if ran := doc.Loop.RunIdle(nil); ran != 1 {
		t.Fatalf("idle drain ran %d, want 1", ran)
	}
	if v := mustRun(t, in, `idle`); v.Str() != "ran:true" {
		t.Fatalf("idle callback: %s", v.Str())
	}
}

func TestHandlerOwnerAttribution(t *testing.T) {
	in, doc := newVM(t)
	doc.SetScriptOwner("https://vendor.example/fp.js")
	mustRun(t, in, `window.addEventListener('click', function(){});
	window.setTimeout(function(){}, 0);`)
	doc.SetScriptOwner("")
	var owners []string
	doc.Loop.Dispatch("click", func(owner string) { owners = append(owners, owner) })
	doc.Loop.RunTimers(func(owner string) { owners = append(owners, owner) })
	if len(owners) != 2 || owners[0] != "https://vendor.example/fp.js" || owners[1] != owners[0] {
		t.Fatalf("owner attribution: %v", owners)
	}
}

func TestDeferredFingerprintOnlyUnderDispatch(t *testing.T) {
	// The end-to-end shape of the bug this PR fixes: a vendor script
	// that defers canvas extraction behind a click handler is invisible
	// to a load-time-only crawl and visible once the event fires.
	in, doc := newVM(t)
	mustRun(t, in, `
	window.addEventListener('click', function(){
		var c = document.createElement('canvas');
		c.width = 64; c.height = 16;
		var ctx = c.getContext('2d');
		ctx.fillText('deferred', 2, 12);
		c.toDataURL();
	});`)
	if len(doc.Canvases) != 0 {
		t.Fatal("no canvas before dispatch")
	}
	doc.Loop.Dispatch("click", nil)
	if len(doc.Canvases) != 1 {
		t.Fatalf("canvas count after dispatch = %d, want 1", len(doc.Canvases))
	}
}

// TestHostIdentity checks that reading the same DOM object or method
// twice yields the same value, as in a browser: one body per document,
// one context per kind and one style object per element, and one
// native per method name on every host.
func TestHostIdentity(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{`document.body === document.body`, "true"},
		{`var c = document.createElement('canvas'); c.getContext('2d') === c.getContext('2d')`, "true"},
		{`var c = document.createElement('canvas'); c.getContext('webgl') === c.getContext('experimental-webgl')`, "true"},
		{`var c = document.createElement('canvas'); var ctx = c.getContext('2d'); ctx.fillText === ctx.fillText`, "true"},
		{`var c = document.createElement('canvas'); var ctx = c.getContext('2d'); ctx.canvas === c`, "true"},
		{`document.createElement === document.createElement`, "true"},
		{`var c = document.createElement('canvas'); c.style === c.style`, "true"},
		{`var d = document.createElement('div'); d.style === d.style && d.appendChild === d.appendChild`, "true"},
		{`document.body.foo = 1; document.body.foo`, "1"},
		{`window.setTimeout === window.setTimeout`, "true"},
		{`window.location === window.location`, "true"},
		{`window.location.foo = 1; window.location.foo`, "1"},
		{`window.location.hostname`, "example.com"},
		{`navigator.languages === navigator.languages`, "true"},
		{`navigator.languages[0] + navigator.languages.length`, "en-US2"},
		{`var g = document.createElement('canvas').getContext('2d').createLinearGradient(0, 0, 1, 1); g.addColorStop === g.addColorStop`, "true"},
		{`var c = document.createElement('canvas'); var gl = c.getContext('webgl'); gl.clear === gl.clear`, "true"},
		{`document.createElement('canvas') === document.createElement('canvas')`, "false"},
		{`var c = document.createElement('canvas'); var d = document.createElement('canvas'); c.getContext('2d').fillRect === d.getContext('2d').fillRect`, "false"},
	} {
		in, _ := newVM(t)
		if got := mustRun(t, in, c.src).Str(); got != c.want {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
	// A context read again is the same value, but every getContext call
	// is still traced.
	in, doc := newVM(t)
	calls := 0
	doc.Tracer = canvas.TracerFunc(func(iface, member string, args []string, ret string) {
		if member == "getContext" {
			calls++
		}
	})
	mustRun(t, in, `var c = document.createElement('canvas'); c.getContext('2d'); c.getContext('2d'); c.getContext('webgl'); c.getContext('webgl')`)
	if calls != 4 {
		t.Fatalf("traced %d getContext calls, want 4", calls)
	}
}
