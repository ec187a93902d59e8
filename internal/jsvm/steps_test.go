package jsvm_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canvassing/internal/dom"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
	"canvassing/internal/services"
)

var update = flag.Bool("update", false, "rewrite testdata/steps.golden from the current step counts")

// Interp.Steps() feeds deterministic metrics and the tracez visit cost,
// so every bundle byte depends on it. The golden pins the step count of
// every vendor script and of the evaluator paths a hot-path change is
// most likely to disturb.

// stepCases are small scripts pinning compound assignment and the
// flat-vs-scoped block rule.
var stepCases = []struct{ name, src string }{
	{"assign/add", `var x = 1; x += 2; x`},
	{"assign/add-string", `var s = 'a'; s += 'b'; s += 1; s`},
	{"assign/add-object", `var s = 'o:'; s += {}; s`},
	{"assign/sub-mul-div-mod", `var x = 10; x -= 3; x *= 4; x /= 2; x %= 5; x`},
	{"assign/and", `var x = 13; x &= 7; x`},
	{"assign/or", `var x = 8; x |= 3; x`},
	{"assign/shl", `var x = 3; x <<= 4; x`},
	{"assign/shr", `var x = 200; x >>= 3; x`},
	{"assign/member", `var o = {a: 1}; o.a += 2; o.a`},
	{"assign/index", `var a = [5]; a[0] += 7; a[0]`},
	{"assign/chained", `var a = 1, b = 2; a += b += 3; a + ':' + b`},
	{"block/flat-for", `var s = 0; for (var i = 0; i < 10; i++) { s += i; } s`},
	{"block/scoped-for", `var s = 0; for (var i = 0; i < 10; i++) { var t = i * 2; s += t; } s`},
	{"block/flat-while", `var n = 0; while (n < 5) { n++; } n`},
	{"block/if-var-scoped", `var r = 0; for (var i = 0; i < 4; i++) { if (i % 2) var k = i; else r += 1; } r`},
	{"block/shadow", `var x = 1; var y = 0; { y = x; var x = 2; } y + ':' + x`},
	{"block/nested", `var s = 0; { { s += 1; } { var q = 2; s += q; } } s`},
	{"block/closure", `var fs = []; for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); } fs[0]() + fs[2]()`},
	{"block/try", `var s = ''; try { s += 'a'; throw 'x'; } catch (e) { s += e; } finally { s += 'f'; } s`},
	{"call/params", `function f(a, a) { return a; } f(1, 2)`},
	{"call/arguments-param", `function g(arguments) { return arguments.length; } g(9, 8, 7)`},
	{"call/recursion", `function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } fib(12)`},
	{"methods/string", `var s = 'Canvas'; s.charCodeAt(1) + s.indexOf('v') + s.slice(-3).length + s.toUpperCase().length`},
	{"methods/array", `var a = [3, 1, 2]; a.push(4); a.map(function(x) { return x * 2; }).join('-')`},
	{"methods/number", `(3.14159).toFixed(2) + (7).toString()`},
	{"hash/djb2", `function __fpHash(s) { var h = 5381; for (var i = 0; i < s.length; i++) { h = ((h << 5) + h + s.charCodeAt(i)) & 0x7fffffff; } return h; } __fpHash('data:image/png;base64,iVBORw0KGgo')`},
}

// stepsPage runs src on a fixed page and returns the load-time steps,
// the settle-time steps (timers, a click, a scroll, idle callbacks) and
// the script's outcome.
func stepsPage(src string) (load, settle int, outcome string) {
	in := jsvm.New(jsvm.Options{RandSeed: 7})
	doc := dom.NewDocument(machine.Intel(), "steps.example")
	doc.Install(in)
	v, err := in.RunSource(src)
	load = in.Steps()
	outcome = "ok"
	if err != nil {
		outcome = "error: " + err.Error()
	} else if !v.IsUndefined() {
		outcome = "value: " + v.Str()
	}
	in.ResetSteps()
	doc.Loop.RunTimers(nil)
	doc.Loop.Dispatch("click", nil)
	doc.Loop.Dispatch("scroll", nil)
	doc.Loop.RunIdle(nil)
	return load, in.Steps(), outcome
}

func currentSteps() string {
	var b strings.Builder
	line := func(name, src string) {
		load, settle, outcome := stepsPage(src)
		if len(outcome) > 80 {
			outcome = outcome[:80]
		}
		fmt.Fprintf(&b, "%s load=%d settle=%d %s\n", name, load, settle, outcome)
	}
	for _, v := range services.Registry() {
		line("vendor/"+v.Slug, v.Source(services.ScriptParams{SiteDomain: "steps.example"}))
	}
	for _, v := range services.Deferred() {
		line("deferred/"+v.Slug, v.Source(services.ScriptParams{SiteDomain: "steps.example"}))
	}
	for _, k := range services.BenignKinds() {
		line("benign/"+string(k), services.BenignSource(k))
	}
	for _, c := range stepCases {
		line("case/"+c.name, c.src)
	}
	return b.String()
}

func TestStepCountsGolden(t *testing.T) {
	path := filepath.Join("testdata", "steps.golden")
	got := currentSteps()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("step counts drifted:\n got  %s\n want %s", g, w)
			}
		}
	}
}
