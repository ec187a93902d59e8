package dom

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
)

// hostileResult is how a hostile script ended: its value, its error
// (nil when none) and the MB allocated on the way.
type hostileResult struct {
	v   jsvm.Value
	err error
	mb  uint64
}

// hostileOutcome runs src on a fresh page with a 48×40 canvas c and its
// context x, under the crawler's 20M-step budget, and reports false if
// it is still running after 30 s. A native canvas call cannot be
// stopped by the step budget, so the deadline is what catches a hang.
func hostileOutcome(src string) (hostileResult, bool) {
	ch := make(chan hostileResult, 1)
	go func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		in := jsvm.New(jsvm.Options{RandSeed: 1, MaxSteps: 20_000_000})
		doc := NewDocument(machine.Intel(), "hostile.example")
		doc.Install(in)
		v, err := in.RunSource(`var c = document.createElement('canvas'); c.width = 48; c.height = 40; var x = c.getContext('2d');` + src)
		runtime.ReadMemStats(&after)
		ch <- hostileResult{v, err, (after.TotalAlloc - before.TotalAlloc) >> 20}
	}()
	select {
	case r := <-ch:
		return r, true
	case <-time.After(30 * time.Second):
		return hostileResult{}, false
	}
}

// TestHostilePathFillDoesNotPanic is the page script that used to end a
// whole crawl: ∞−∞ in the edge interpolation gave a NaN crossing, whose
// span indexed the coverage row out of range.
func TestHostilePathFillDoesNotPanic(t *testing.T) {
	r, done := hostileOutcome(`
	x.beginPath(); x.moveTo(20.6,30.6); x.lineTo(-8.9,27.8); x.lineTo(50.2,13.3); x.lineTo(49.7,22.5);
	x.lineTo(27.2,45.6); x.lineTo(22.3,6.2); x.lineTo(36.3,-1e300); x.lineTo(0.003,-3.4);
	x.lineTo(15.3,-Infinity); x.lineTo(35.5,26.0); x.lineTo(1e300,-Infinity); x.fill();
	c.toDataURL()`)
	if !done || r.err != nil {
		t.Fatalf("done=%v err=%v", done, r.err)
	}
	if !strings.HasPrefix(r.v.Str(), "data:image/png;base64,") {
		t.Fatalf("toDataURL after the fill: %.40s", r.v.Str())
	}
}

// TestCanvasResourceCaps runs the canvas one-liners that used to panic,
// exhaust memory or hang: each must end, without a panic, in its script
// error or its value, having allocated a bounded amount on the way.
func TestCanvasResourceCaps(t *testing.T) {
	for _, c := range []struct{ name, src, err, value string }{
		{"width-1e12", `c.width = 1e12; x.fillRect(0, 0, 10, 10); c.toDataURL()`, "", "data:,"},
		{"width-1e9", `c.width = 1e9; x.fillRect(0, 0, 10, 10); c.toDataURL()`, "", "data:,"},
		{"area", `c.width = 30000; c.height = 30000; x.fillRect(0, 0, 10, 10); c.toDataURL()`, "", "data:,"},
		{"oversize-reads-transparent", `c.width = 30000; c.height = 30000; x.fillRect(0, 0, 10, 10); x.getImageData(0, 0, 4, 4).data[3]`, "", "0"},
		{"getImageData", `x.getImageData(0, 0, 1e5, 1e5)`, "dom: getImageData area too large", ""},
		{"createImageData", `x.createImageData(3e4, 3e4)`, "dom: createImageData area too large", ""},
		{"dash-offset", `x.setLineDash([1, 1]); x.lineDashOffset = 1e300; x.beginPath(); x.moveTo(0, 10); x.lineTo(30, 10); x.stroke(); 'ok'`, "", "ok"},
		{"dash-fine", `x.setLineDash([1e-6]); x.beginPath(); x.moveTo(0, 10); x.lineTo(30, 10); x.stroke(); 'ok'`, "", "ok"},
		{"dash-long", `x.setLineDash([1, 1]); x.beginPath(); x.moveTo(0, 10); x.lineTo(1e300, 10); x.stroke(); 'ok'`, "", "ok"},
		{"hsl-hue", `x.fillStyle = 'hsl(1e300, 50%, 50%)'; x.fillRect(0, 0, 4, 4); 'ok'`, "", "ok"},
		{"webp-nan", `document.createElement('canvas').toDataURL('image/webp', 0/0) == document.createElement('canvas').toDataURL('image/webp')`, "", "true"},
		{"webgl-first", `var g = document.createElement('canvas').getContext('webgl'); g.bufferData(g.ARRAY_BUFFER, [0, 1, -1, -1, 1, -1], g.STATIC_DRAW); g.drawArrays(g.TRIANGLES, -1, 3); g.drawArrays(g.TRIANGLES, 4611686018427387904, 3); 'ok'`, "", "ok"},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, done := hostileOutcome(c.src)
			if !done {
				t.Fatal("still running after 30 s")
			}
			if c.err != "" {
				if r.err == nil || !strings.Contains(r.err.Error(), c.err) {
					t.Fatalf("err = %v, want %q", r.err, c.err)
				}
			} else if r.err != nil || r.v.Str() != c.value {
				t.Fatalf("= %.40q, %v; want %q", r.v.Str(), r.err, c.value)
			}
			if r.mb > 256 {
				t.Fatalf("allocated %d MB", r.mb)
			}
		})
	}
}
