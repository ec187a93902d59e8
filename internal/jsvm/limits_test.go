package jsvm

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestToInt32 pins ECMAScript ToInt32 (truncate, reduce modulo 2^32,
// reinterpret as int32) at the values a platform-defined float-to-int
// conversion gets wrong or where the wrap is easy to get off by one.
func TestToInt32(t *testing.T) {
	for _, c := range []struct {
		f    float64
		want int32
	}{
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{0, 0},
		{math.Copysign(0, -1), 0},
		{1.9, 1},
		{-1.9, -1},
		{1 << 31, math.MinInt32},
		{-(1 << 31) - 1, math.MaxInt32},
		{-(1 << 31) - 0.7, math.MinInt32},
		{1<<32 + 5, 5},
		{-(1 << 32) - 5, -5},
		{1<<32 + 0.5, 0},
		{9.3e18, -81657856},
		{1e20, 1661992960},
		{-1e20, -1661992960},
		{1e300, 0},
	} {
		if got := toInt32(c.f); got != c.want {
			t.Errorf("toInt32(%v) = %d, want %d", c.f, got, c.want)
		}
	}
	// Every bitwise operator goes through it.
	for src, want := range map[string]float64{
		`1e20 | 0`:        1661992960,
		`9.3e18 | 0`:      -81657856,
		`~1e20`:           -1661992961,
		`1e20 & -1`:       1661992960,
		`1e20 ^ 0`:        1661992960,
		`1e20 << 0`:       1661992960,
		`1e20 >> 0`:       1661992960,
		`1 << 1e20`:       1,
		`4294967301 >> 0`: 5,
	} {
		if got := run(t, src); got.Num() != want {
			t.Errorf("%s = %v, want %v", src, got.Num(), want)
		}
	}
}

// TestResourceCaps runs the hostile one-liners MaxSteps alone does not
// stop: each must end in its RuntimeError, under the crawler's 20M-step
// budget, having allocated a bounded amount on the way.
func TestResourceCaps(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"index", `var a = []; a[2e7] = 1`, "invalid array length"},
		{"length", `var a = []; a.length = 2e7`, "invalid array length"},
		{"push", `var a = []; a.length = 1048576; a.push(1)`, "invalid array length"},
		{"concat-array", `var a = []; a.length = 1048576; a.concat([1])`, "invalid array length"},
		{"split", `'x'.repeat(1048576).repeat(2).split('')`, "invalid array length"},
		{"doubling", `var s = 'abcdefgh'; for (var i = 0; i < 24; i++) s += s; s.length`, "invalid string length"},
		{"plus", `var s = 'abcdefgh'; for (var i = 0; i < 24; i++) s = s + s; s.length`, "invalid string length"},
		{"repeat", `var s = 'x'.repeat(1 << 20); s.repeat(1 << 20)`, "invalid string length"},
		{"concat-string", `var s = 'x'.repeat(1 << 20).repeat(16); s.concat(s)`, "invalid string length"},
		{"join", `var s = 'x'.repeat(1 << 20).repeat(16); [s, s].join('')`, "invalid string length"},
		{"replace", `var s = 'x'.repeat(1 << 20).repeat(16); s.replace('x', s)`, "invalid string length"},
		{"array-to-string", `var a = [1]; for (var i = 0; i < 30; i++) a = [a, a]; '' + a`, "invalid string length"},
		{"json-stringify", `var a = [1]; for (var i = 0; i < 30; i++) a = [a, a]; JSON.stringify(a)`, "invalid string length"},
		{"array-visits", `var c = []; for (var i = 0; i < 5000; i++) c = [c]; var a = [c]; for (var i = 0; i < 30; i++) a = [a, a]; String(a)`, "invalid string length"},
		{"cyclic-array", `var a = [1]; a.push(a); [0].concat(a).join('-')`, "maximum call stack size exceeded"},
		{"cyclic-json", `var a = [1]; a.push(a); JSON.stringify(a)`, "maximum call stack size exceeded"},
		{"recursion", `var n = 0; function f() { n++; return f(); } f()`, "maximum call stack size exceeded"},
		{"callback-recursion", `function g() { [1].forEach(g); } g()`, "maximum call stack size exceeded"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			in := New(Options{MaxSteps: 20_000_000})
			_, err := in.RunSource(c.src)
			runtime.ReadMemStats(&after)
			if err == nil || err.Error() != "jsvm: "+c.want {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
			if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 256 {
				t.Fatalf("allocated %d MB before failing", mb)
			}
			if in.depth != 0 {
				t.Fatalf("call depth %d after the error unwound", in.depth)
			}
		})
	}
	// The recursion stops exactly at the cap, and the limit is a runtime
	// error a script can catch.
	in := New(Options{MaxSteps: 20_000_000})
	v, err := in.RunSource(`var n = 0; function f() { n++; return f(); } var r; try { f(); } catch (e) { r = n + ' ' + e.message; } r`)
	if err != nil || v.Str() != "10000 jsvm: maximum call stack size exceeded" {
		t.Fatalf("caught recursion = %q, %v", v.Str(), err)
	}
	// Strings and arrays at the caps themselves are fine.
	if v := run(t, `var s = 'x'.repeat(1 << 20).repeat(16); s.length`); v.Num() != maxStringLen {
		t.Fatalf("string at the cap: %v", v.Num())
	}
	if v := run(t, `var a = []; a[1048575] = 1; a.length`); v.Num() != maxArrayLen {
		t.Fatalf("array at the cap: %v", v.Num())
	}
	if !strings.Contains(runErr(t, `var a = []; a.length = 1048577`).Error(), "invalid array length") {
		t.Fatal("array one past the cap must fail")
	}
}

// TestParseNesting feeds the parser a megabyte of nested parentheses,
// prefix operators and blocks. Each must fail with a syntax error at the
// nesting cap, quickly and with bounded allocation, instead of
// recursing once per level; scripts nested below the cap still parse.
// Each link of an else-if chain or a chained ?: opens a level, and each
// link of an operator or comma chain adds one to the chain's height, so
// such chains meet the cap too.
func TestParseNesting(t *testing.T) {
	const n = 1 << 19
	for name, src := range map[string]string{
		"parens": strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"unary":  strings.Repeat("!", n) + "1",
		"blocks": strings.Repeat("{", n) + strings.Repeat("}", n),
		"arrows": strings.Repeat("x => ", n/5) + "1",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := Parse(src)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "nesting too deep") {
			t.Fatalf("%s: err = %v, want the nesting cap", name, err)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("%s: took %v", name, elapsed)
		}
		if mb := (after.TotalAlloc - before.TotalAlloc) >> 20; mb > 256 {
			t.Fatalf("%s: allocated %d MB", name, mb)
		}
	}
	deep := strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100)
	if v := run(t, "var x = "+deep+"; x"); v.Num() != 1 {
		t.Fatalf("100 nested parentheses: %v", v.Num())
	}
	for name, link := range map[string]string{
		"else-if": "if (x) x++; else ",
		"ternary": "x ? 1 : ",
		"plus":    "x + ",
		"comma":   "x, ",
	} {
		if v := run(t, "var x = 0; "+strings.Repeat(link, 250)+"x - 1;"); v.Num() != -1 {
			t.Fatalf("%s: 250 links: %v", name, v.Num())
		}
		_, err := Parse("var x = 0; " + strings.Repeat(link, 260) + "x - 1;")
		if err == nil || !strings.Contains(err.Error(), "nesting too deep") {
			t.Fatalf("%s: 260 links: err = %v, want the nesting cap", name, err)
		}
	}
}

// chainStackBound is the Go stack a chain of nested script calls stays
// within (DESIGN §12, "Resource caps").
const chainStackBound = 128 << 20

// TestChainStackBound puts a recursive call at the deepest operand of
// chains that nest without parser recursion (operators, members, calls,
// call arguments) and recurses past the call budget, each in a child
// process whose Go stack is capped at chainStackBound. A chain past the
// nesting cap must be a syntax error and every other must end in the
// call budget's error: a Go stack overflow is fatal, and no recover
// would keep it from ending a study.
func TestChainStackBound(t *testing.T) {
	call := func(pre, chain, post string) string {
		return pre + "function f(n) { if (n <= 0) return 0; return " + chain + post + "; } f(20000)"
	}
	shapes := map[string]struct{ src, want string }{
		"binary-1000":   {call("", "f(n - 1)", strings.Repeat(" + 1", 1000)), "nesting too deep"},
		"member-1000":   {call("var o = {}; o.a = o; ", "f(n - 1)", strings.Repeat(".a", 1000)), "nesting too deep"},
		"binary-240":    {call("", "f(n - 1)", strings.Repeat(" + 1", 240)), "maximum call stack size exceeded"},
		"call-240":      {call("var g = function() { return g; }; ", "f(n - 1)", strings.Repeat("()", 240)), "maximum call stack size exceeded"},
		"arguments-120": {call("function h(x) { return x; } ", strings.Repeat("h(1 + ", 120)+"f(n - 1)", strings.Repeat(")", 120)), "maximum call stack size exceeded"},
		"arguments-12":  {call("function h(x) { return x; } ", strings.Repeat("h(1 + ", 12)+"f(n - 1)", strings.Repeat(")", 12)), "maximum call stack size exceeded"},
	}
	if name := os.Getenv("JSVM_CHAIN_CHILD"); name != "" {
		debug.SetMaxStack(chainStackBound)
		_, err := New(Options{MaxSteps: 20_000_000}).RunSource(shapes[name].src)
		fmt.Printf("result: %v\n", err)
		return
	}
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cmd := exec.Command(os.Args[0], "-test.run=^TestChainStackBound$", "-test.count=1")
		cmd.Env = append(os.Environ(), "JSVM_CHAIN_CHILD="+name)
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), "result: jsvm: ") || !strings.Contains(string(out), shapes[name].want) {
			t.Errorf("%s: want a jsvm error containing %q, child ended with %v:\n%.600s", name, shapes[name].want, err, out)
		}
	}
}
