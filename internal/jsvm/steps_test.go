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

// stepCases are small scripts pinning compound assignment, the
// flat-vs-scoped block rule and the scope quirks of DESIGN §12. max,
// when set, is the step budget the case runs under.
var stepCases = []struct {
	name, src string
	max       int
}{
	{"assign/add", `var x = 1; x += 2; x`, 0},
	{"assign/add-string", `var s = 'a'; s += 'b'; s += 1; s`, 0},
	{"assign/add-object", `var s = 'o:'; s += {}; s`, 0},
	{"assign/sub-mul-div-mod", `var x = 10; x -= 3; x *= 4; x /= 2; x %= 5; x`, 0},
	{"assign/and", `var x = 13; x &= 7; x`, 0},
	{"assign/or", `var x = 8; x |= 3; x`, 0},
	{"assign/shl", `var x = 3; x <<= 4; x`, 0},
	{"assign/shr", `var x = 200; x >>= 3; x`, 0},
	{"assign/member", `var o = {a: 1}; o.a += 2; o.a`, 0},
	{"assign/index", `var a = [5]; a[0] += 7; a[0]`, 0},
	{"assign/chained", `var a = 1, b = 2; a += b += 3; a + ':' + b`, 0},
	{"block/flat-for", `var s = 0; for (var i = 0; i < 10; i++) { s += i; } s`, 0},
	{"block/scoped-for", `var s = 0; for (var i = 0; i < 10; i++) { var t = i * 2; s += t; } s`, 0},
	{"block/flat-while", `var n = 0; while (n < 5) { n++; } n`, 0},
	{"block/if-var-scoped", `var r = 0; for (var i = 0; i < 4; i++) { if (i % 2) var k = i; else r += 1; } r`, 0},
	{"block/shadow", `var x = 1; var y = 0; { y = x; var x = 2; } y + ':' + x`, 0},
	{"block/nested", `var s = 0; { { s += 1; } { var q = 2; s += q; } } s`, 0},
	{"block/closure", `var fs = []; for (var i = 0; i < 3; i++) { fs.push(function() { return i; }); } fs[0]() + fs[2]()`, 0},
	{"block/try", `var s = ''; try { s += 'a'; throw 'x'; } catch (e) { s += e; } finally { s += 'f'; } s`, 0},
	{"call/params", `function f(a, a) { return a; } f(1, 2)`, 0},
	{"call/arguments-param", `function g(arguments) { return arguments.length; } g(9, 8, 7)`, 0},
	{"call/recursion", `function fib(n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } fib(12)`, 0},
	{"methods/string", `var s = 'Canvas'; s.charCodeAt(1) + s.indexOf('v') + s.slice(-3).length + s.toUpperCase().length`, 0},
	{"methods/array", `var a = [3, 1, 2]; a.push(4); a.map(function(x) { return x * 2; }).join('-')`, 0},
	{"methods/number", `(3.14159).toFixed(2) + (7).toString()`, 0},
	{"hash/djb2", `function __fpHash(s) { var h = 5381; for (var i = 0; i < s.length; i++) { h = ((h << 5) + h + s.charCodeAt(i)) & 0x7fffffff; } return h; } __fpHash('data:image/png;base64,iVBORw0KGgo')`, 0},
	{"quirk/if-var", `function f(c) { if (c) var k = 1; return typeof k; } f(true) + ':' + f(false)`, 0},
	{"quirk/while-var", `function g() { var i = 0; while (i < 3) var w = i++; return w + ':' + typeof v; } if (false) var v = 1; g() + ':' + typeof v`, 0},
	{"quirk/read-before-var", `var x = 'outer'; function f() { var r = x; var x = 'inner'; return r + ':' + x; } f()`, 0},
	{"quirk/implicit-global", `function f() { leak = 7; var own = 1; } f(); leak + ':' + typeof own`, 0},
	{"quirk/typeof-undeclared", `typeof nope + ':' + typeof Math + ':' + (typeof nope === 'undefined')`, 0},
	{"quirk/closure-later-decl", `function f() { var g = function() { return typeof later; }; var a = g(); var later = 5; return a + ':' + g(); } f()`, 0},
	{"quirk/redeclare-param", `function f(a) { var a; return typeof a; } function g(a) { var a = a + 1; return a; } f(5) + ':' + g(5)`, 0},
	{"quirk/catch-shadow", `var e = 'outer'; var seen; try { throw 'inner'; } catch (e) { seen = e; var inCatch = 1; } seen + ':' + e + ':' + typeof inCatch`, 0},
	{"quirk/named-fn-expr", `var fact = function self(n) { return n < 2 ? 1 : n * self(n - 1); }; fact(5) + ':' + typeof self`, 0},
	{"quirk/arguments-nested", `function outer() { function inner() { return arguments.length; } var k = (function() { return arguments[1]; })('x', 'y'); return arguments.length + ':' + inner(1, 2, 3) + ':' + arguments[0] + k; } outer('a', 'b')`, 0},
	{"quirk/call-postfix", `var n = 0; function f() { n++; return 1; } f()++`, 0},
	{"quirk/limit-through-catch", `var x = 0, y = 0; try { for (;;) {} } catch (e) { x = 1; } finally { y = 2; }`, 1000},
	{"quirk/compound-order", `var a = [1]; function k() { console.log('k'); return 0; } a[k()] += 5; var r; try { missing -= 1; } catch (e) { r = e.message; } a[0] + ':' + r`, 0},
	{"quirk/return-through-finally", `function g() { return 'g'; } function f() { try { return 'try'; } finally { g(); } } function h() { try { return 'try'; } finally { return 'fin'; } } f() + ':' + h()`, 0},
}

// stepsPage runs src with run on a fixed page under a budget of max
// steps (0: the default) and returns the load-time steps, the
// settle-time steps (timers, a click, a scroll, idle callbacks) and the
// script's outcome.
func stepsPage(src string, max int, run runner) (load, settle int, outcome string) {
	in := jsvm.New(jsvm.Options{RandSeed: 7, MaxSteps: max})
	doc := dom.NewDocument(machine.Intel(), "steps.example")
	doc.Install(in)
	prog, err := jsvm.Parse(src)
	var v jsvm.Value
	if err == nil {
		v, err = run(in, prog)
	}
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
	line := func(name, src string, max int) int {
		load, settle, outcome := stepsPage(src, max, compiled)
		if len(outcome) > 80 {
			outcome = outcome[:80]
		}
		fmt.Fprintf(&b, "%s load=%d settle=%d %s\n", name, load, settle, outcome)
		return load
	}
	for _, v := range services.Registry() {
		line("vendor/"+v.Slug, v.Source(services.ScriptParams{SiteDomain: "steps.example"}), 0)
	}
	for _, v := range services.Deferred() {
		line("deferred/"+v.Slug, v.Source(services.ScriptParams{SiteDomain: "steps.example"}), 0)
	}
	for _, k := range services.BenignKinds() {
		line("benign/"+string(k), services.BenignSource(k), 0)
	}
	// Each case runs again one step short of what it took, pinning where
	// the limit error lands and what it leaves behind.
	for _, c := range stepCases {
		if load := line("case/"+c.name, c.src, c.max); load > 1 {
			line(fmt.Sprintf("case/%s@%d", c.name, load-1), c.src, load-1)
		}
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

// TestStepCasesMatchReferenceOnThePage is the DOM half: every vendor,
// deferred and benign script and every step case, run on the fixed page,
// must give the same load steps, settle steps and outcome on both paths.
func TestStepCasesMatchReferenceOnThePage(t *testing.T) {
	check := func(name, src string, max int) {
		cl, cs, co := stepsPage(src, max, compiled)
		rl, rs, ro := stepsPage(src, max, reference)
		if cl != rl || cs != rs || co != ro {
			t.Errorf("%s:\n compiled  load=%d settle=%d %s\n reference load=%d settle=%d %s",
				name, cl, cs, trim(co), rl, rs, trim(ro))
		}
	}
	params := services.ScriptParams{SiteDomain: "steps.example"}
	for _, v := range services.Registry() {
		check("vendor/"+v.Slug, v.Source(params), 0)
	}
	for _, v := range services.Deferred() {
		check("deferred/"+v.Slug, v.Source(params), 0)
	}
	for _, k := range services.BenignKinds() {
		check("benign/"+string(k), services.BenignSource(k), 0)
	}
	for _, c := range stepCases {
		check("case/"+c.name, c.src, c.max)
	}
}

func trim(s string) string {
	if len(s) > 120 {
		return s[:120] + "…"
	}
	return s
}
