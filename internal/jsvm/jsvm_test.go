package jsvm

import (
	"strings"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string) Value {
	t.Helper()
	in := New(Options{})
	v, err := in.RunSource(src)
	if err != nil {
		t.Fatalf("run %q: %v", src, err)
	}
	return v
}

func runErr(t *testing.T, src string) error {
	t.Helper()
	in := New(Options{})
	_, err := in.RunSource(src)
	if err == nil {
		t.Fatalf("expected error for %q", src)
	}
	return err
}

func TestArithmetic(t *testing.T) {
	cases := map[string]float64{
		"1 + 2":             3,
		"10 - 4":            6,
		"6 * 7":             42,
		"9 / 2":             4.5,
		"10 % 3":            1,
		"2 + 3 * 4":         14,
		"(2 + 3) * 4":       20,
		"-5 + 2":            -3,
		"1 + 2 * 3 - 4 / 2": 5,
		"0x10 + 1":          17,
		"1e3 + 0.5":         1000.5,
		"7 & 3":             3,
		"4 | 1":             5,
		"5 ^ 1":             4,
		"1 << 4":            16,
		"256 >> 4":          16,
		"~0":                -1,
	}
	for src, want := range cases {
		if got := run(t, src); got.Num() != want {
			t.Fatalf("%s = %v, want %v", src, got.Num(), want)
		}
	}
}

func TestStringOps(t *testing.T) {
	if got := run(t, `'abc' + 'def'`); got.Str() != "abcdef" {
		t.Fatalf("concat: %q", got.Str())
	}
	if got := run(t, `'n=' + 42`); got.Str() != "n=42" {
		t.Fatalf("mixed concat: %q", got.Str())
	}
	if got := run(t, `'hello'.length`); got.Num() != 5 {
		t.Fatal("length")
	}
	if got := run(t, `'hello'.charCodeAt(1)`); got.Num() != 101 {
		t.Fatal("charCodeAt")
	}
	if got := run(t, `'hello world'.indexOf('world')`); got.Num() != 6 {
		t.Fatal("indexOf")
	}
	if got := run(t, `'Hello'.toUpperCase()`); got.Str() != "HELLO" {
		t.Fatal("toUpperCase")
	}
	if got := run(t, `'abcdef'.slice(1, 3)`); got.Str() != "bc" {
		t.Fatal("slice")
	}
	if got := run(t, `'abcdef'.slice(-2)`); got.Str() != "ef" {
		t.Fatal("negative slice")
	}
	if got := run(t, `'a,b,c'.split(',').length`); got.Num() != 3 {
		t.Fatal("split")
	}
	if got := run(t, `'aaa'.replace('a', 'b')`); got.Str() != "baa" {
		t.Fatal("replace replaces first only")
	}
	if got := run(t, `'ab'.repeat(3)`); got.Str() != "ababab" {
		t.Fatal("repeat")
	}
	if got := run(t, `'abc'[1]`); got.Str() != "b" {
		t.Fatal("string index")
	}
}

func TestStringEscapes(t *testing.T) {
	if got := run(t, `"a\nb"`); got.Str() != "a\nb" {
		t.Fatal("newline escape")
	}
	if got := run(t, `"A"`); got.Str() != "A" {
		t.Fatal("unicode escape")
	}
	if got := run(t, `'it\'s'`); got.Str() != "it's" {
		t.Fatal("quote escape")
	}
}

func TestVariablesAndScope(t *testing.T) {
	if got := run(t, `var x = 5; x = x + 1; x`); got.Num() != 6 {
		t.Fatal("var")
	}
	if got := run(t, `let a = 1, b = 2; a + b`); got.Num() != 3 {
		t.Fatal("multi declarator")
	}
	// Block scoping for block-declared vars.
	if got := run(t, `var x = 1; { var x = 2; } x`); got.Num() != 1 {
		// Note: our dialect gives blocks their own scope even for var;
		// scripts in this corpus do not depend on hoisting.
		t.Fatal("block scope")
	}
	if err := runErr(t, `undefinedVariable + 1`); !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("unknown ident: %v", err)
	}
}

func TestControlFlow(t *testing.T) {
	if got := run(t, `var x = 0; if (1 < 2) { x = 10; } else { x = 20; } x`); got.Num() != 10 {
		t.Fatal("if")
	}
	if got := run(t, `var s = 0; for (var i = 0; i < 5; i++) { s += i; } s`); got.Num() != 10 {
		t.Fatal("for")
	}
	if got := run(t, `var s = 0; var i = 0; while (i < 4) { s += 2; i++; } s`); got.Num() != 8 {
		t.Fatal("while")
	}
	if got := run(t, `var i = 0; do { i++; } while (i < 3); i`); got.Num() != 3 {
		t.Fatal("do-while")
	}
	if got := run(t, `var s = 0; for (var i = 0; i < 10; i++) { if (i === 5) break; s = i; } s`); got.Num() != 4 {
		t.Fatal("break")
	}
	if got := run(t, `var s = 0; for (var i = 0; i < 5; i++) { if (i % 2 === 0) continue; s += i; } s`); got.Num() != 4 {
		t.Fatal("continue")
	}
	if got := run(t, `1 < 2 ? 'yes' : 'no'`); got.Str() != "yes" {
		t.Fatal("ternary")
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	if got := run(t, `function add(a, b) { return a + b; } add(2, 3)`); got.Num() != 5 {
		t.Fatal("function declaration")
	}
	if got := run(t, `var f = function(x) { return x * 2; }; f(21)`); got.Num() != 42 {
		t.Fatal("function expression")
	}
	src := `
	function counter() {
		var n = 0;
		return function() { n = n + 1; return n; };
	}
	var c = counter();
	c(); c(); c()`
	if got := run(t, src); got.Num() != 3 {
		t.Fatal("closure state")
	}
	// Recursion.
	if got := run(t, `function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(10)`); got.Num() != 55 {
		t.Fatal("recursion")
	}
	// arguments object.
	if got := run(t, `function f() { return arguments.length; } f(1, 2, 3)`); got.Num() != 3 {
		t.Fatal("arguments")
	}
}

func TestArrowFunctions(t *testing.T) {
	if got := run(t, `var f = x => x + 1; f(41)`); got.Num() != 42 {
		t.Fatal("single-param arrow")
	}
	if got := run(t, `var f = (a, b) => a * b; f(6, 7)`); got.Num() != 42 {
		t.Fatal("multi-param arrow")
	}
	if got := run(t, `var f = () => { return 9; }; f()`); got.Num() != 9 {
		t.Fatal("block-body arrow")
	}
	if got := run(t, `[1,2,3].map(x => x * x).join('-')`); got.Str() != "1-4-9" {
		t.Fatal("arrow in map")
	}
}

func TestArrays(t *testing.T) {
	if got := run(t, `[1, 2, 3].length`); got.Num() != 3 {
		t.Fatal("array length")
	}
	if got := run(t, `var a = [1]; a.push(2, 3); a.length`); got.Num() != 3 {
		t.Fatal("push")
	}
	if got := run(t, `var a = [5, 6]; a[0] + a[1]`); got.Num() != 11 {
		t.Fatal("index")
	}
	if got := run(t, `var a = []; a[3] = 9; a.length`); got.Num() != 4 {
		t.Fatal("sparse assignment extends")
	}
	if got := run(t, `['a','b','c'].join('+')`); got.Str() != "a+b+c" {
		t.Fatal("join")
	}
	if got := run(t, `[1,2,3,2].indexOf(2)`); got.Num() != 1 {
		t.Fatal("indexOf")
	}
	if got := run(t, `[1,2,3].slice(1).join('')`); got.Str() != "23" {
		t.Fatal("slice")
	}
	if got := run(t, `[1,2].concat([3,4]).length`); got.Num() != 4 {
		t.Fatal("concat")
	}
	if got := run(t, `var s = 0; [1,2,3].forEach(function(x) { s += x; }); s`); got.Num() != 6 {
		t.Fatal("forEach")
	}
	if got := run(t, `[1,2,3,4].filter(function(x) { return x % 2 === 0; }).length`); got.Num() != 2 {
		t.Fatal("filter")
	}
	if got := run(t, `[1,2,3,4].reduce(function(a, b) { return a + b; }, 0)`); got.Num() != 10 {
		t.Fatal("reduce")
	}
	if got := run(t, `[3,1,2].reverse().join('')`); got.Str() != "213" {
		t.Fatal("reverse")
	}
	if got := run(t, `Array.isArray([1]) && !Array.isArray('x')`); !got.Bool() {
		t.Fatal("Array.isArray")
	}
}

func TestObjects(t *testing.T) {
	if got := run(t, `var o = {a: 1, b: 2}; o.a + o.b`); got.Num() != 3 {
		t.Fatal("object literal")
	}
	if got := run(t, `var o = {}; o.x = 5; o['y'] = 6; o.x + o.y`); got.Num() != 11 {
		t.Fatal("property assignment")
	}
	if got := run(t, `var o = {'key with space': 1}; o['key with space']`); got.Num() != 1 {
		t.Fatal("string key")
	}
	if got := run(t, `var o = {a: 1}; 'a' in o`); !got.Bool() {
		t.Fatal("in operator")
	}
	if got := run(t, `var o = {a: 1}; o.hasOwnProperty('a') && !o.hasOwnProperty('b')`); !got.Bool() {
		t.Fatal("hasOwnProperty")
	}
	if got := run(t, `Object.keys({b: 1, a: 2}).join(',')`); got.Str() != "a,b" {
		t.Fatal("Object.keys sorted")
	}
	// Methods with this.
	if got := run(t, `var o = {n: 7, get: function() { return this.n; }}; o.get()`); got.Num() != 7 {
		t.Fatal("this binding")
	}
}

func TestNewConstructor(t *testing.T) {
	src := `
	function Point(x, y) { this.x = x; this.y = y; }
	var p = new Point(3, 4);
	p.x + p.y`
	if got := run(t, src); got.Num() != 7 {
		t.Fatal("constructor")
	}
}

func TestEqualityAndTypeof(t *testing.T) {
	cases := map[string]bool{
		`1 === 1`:                            true,
		`1 === '1'`:                          false,
		`1 == '1'`:                           true,
		`null == undefined`:                  true,
		`null === undefined`:                 false,
		`NaN === NaN`:                        false,
		`'a' !== 'b'`:                        true,
		`typeof 1 === 'number'`:              true,
		`typeof 'x' === 'string'`:            true,
		`typeof undefined === 'undefined'`:   true,
		`typeof null === 'object'`:           true,
		`typeof {} === 'object'`:             true,
		`typeof function(){} === 'function'`: true,
		`typeof notDeclared === 'undefined'`: true,
	}
	for src, want := range cases {
		if got := run(t, src); got.Bool() != want {
			t.Fatalf("%s = %v, want %v", src, got.Bool(), want)
		}
	}
}

func TestLogicalOperators(t *testing.T) {
	if got := run(t, `0 || 'fallback'`); got.Str() != "fallback" {
		t.Fatal("|| yields operand")
	}
	if got := run(t, `1 && 'second'`); got.Str() != "second" {
		t.Fatal("&& yields operand")
	}
	// Short circuit must not evaluate RHS.
	if got := run(t, `var hit = 0; function boom() { hit = 1; return true; } false && boom(); hit`); got.Num() != 0 {
		t.Fatal("&& short circuit")
	}
	if got := run(t, `var hit = 0; function boom() { hit = 1; return true; } true || boom(); hit`); got.Num() != 0 {
		t.Fatal("|| short circuit")
	}
}

func TestIncrementsAndCompound(t *testing.T) {
	if got := run(t, `var i = 5; i++; i`); got.Num() != 6 {
		t.Fatal("postfix inc")
	}
	if got := run(t, `var i = 5; var j = i++; j`); got.Num() != 5 {
		t.Fatal("postfix yields old value")
	}
	if got := run(t, `var i = 5; var j = ++i; j`); got.Num() != 6 {
		t.Fatal("prefix yields new value")
	}
	if got := run(t, `var x = 10; x += 5; x -= 3; x *= 2; x /= 4; x`); got.Num() != 6 {
		t.Fatal("compound assign")
	}
	if got := run(t, `var s = 'a'; s += 'b'; s`); got.Str() != "ab" {
		t.Fatal("string +=")
	}
	if got := run(t, `var a = [0]; a[0] += 7; a[0]`); got.Num() != 7 {
		t.Fatal("indexed compound assign")
	}
}

func TestMathBuiltins(t *testing.T) {
	if got := run(t, `Math.floor(3.7)`); got.Num() != 3 {
		t.Fatal("floor")
	}
	if got := run(t, `Math.pow(2, 10)`); got.Num() != 1024 {
		t.Fatal("pow")
	}
	if got := run(t, `Math.max(1, 9, 4)`); got.Num() != 9 {
		t.Fatal("max")
	}
	if got := run(t, `Math.abs(-4)`); got.Num() != 4 {
		t.Fatal("abs")
	}
	if got := run(t, `Math.PI > 3.14 && Math.PI < 3.15`); !got.Bool() {
		t.Fatal("PI")
	}
	v := run(t, `Math.random()`)
	if v.Num() < 0 || v.Num() >= 1 {
		t.Fatal("random range")
	}
}

func TestMathRandomDeterministic(t *testing.T) {
	in1 := New(Options{RandSeed: 99})
	in2 := New(Options{RandSeed: 99})
	v1, err1 := in1.RunSource(`Math.random() + ':' + Math.random()`)
	v2, err2 := in2.RunSource(`Math.random() + ':' + Math.random()`)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if v1.Str() != v2.Str() {
		t.Fatal("seeded random must repeat")
	}
	in3 := New(Options{RandSeed: 100})
	v3, _ := in3.RunSource(`Math.random() + ':' + Math.random()`)
	if v3.Str() == v1.Str() {
		t.Fatal("different seeds should differ")
	}
}

func TestJSONStringify(t *testing.T) {
	if got := run(t, `JSON.stringify({b: 2, a: 'x'})`); got.Str() != `{"a":"x","b":2}` {
		t.Fatalf("object: %s", got.Str())
	}
	if got := run(t, `JSON.stringify([1, 'two', true, null])`); got.Str() != `[1,"two",true,null]` {
		t.Fatalf("array: %s", got.Str())
	}
	if got := run(t, `JSON.stringify('he"llo')`); got.Str() != `"he\"llo"` {
		t.Fatalf("escaping: %s", got.Str())
	}
}

func TestConversions(t *testing.T) {
	if got := run(t, `parseInt('42px')`); got.Num() != 42 {
		t.Fatal("parseInt prefix")
	}
	if got := run(t, `parseInt('ff', 16)`); got.Num() != 255 {
		t.Fatal("parseInt base")
	}
	if got := run(t, `parseInt('0x1A')`); got.Num() != 26 {
		t.Fatal("parseInt hex literal")
	}
	if got := run(t, `isNaN(parseInt('abc'))`); !got.Bool() {
		t.Fatal("parseInt NaN")
	}
	if got := run(t, `parseFloat('3.14abc')`); got.Num() != 3.14 {
		t.Fatal("parseFloat")
	}
	if got := run(t, `String(42)`); got.Str() != "42" {
		t.Fatal("String()")
	}
	if got := run(t, `Number('7.5')`); got.Num() != 7.5 {
		t.Fatal("Number()")
	}
	if got := run(t, `(3.14159).toFixed(2)`); got.Str() != "3.14" {
		t.Fatal("toFixed")
	}
}

func TestConsoleCapture(t *testing.T) {
	in := New(Options{})
	if _, err := in.RunSource(`console.log('hello', 42)`); err != nil {
		t.Fatal(err)
	}
	if len(in.ConsoleLog) != 1 || in.ConsoleLog[0] != "hello 42" {
		t.Fatalf("console: %v", in.ConsoleLog)
	}
}

func TestThrow(t *testing.T) {
	err := runErr(t, `throw 'boom'`)
	if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("throw: %v", err)
	}
}

func TestTryCatch(t *testing.T) {
	if got := run(t, `var x = 0; try { throw 'boom'; x = 1; } catch (e) { x = 2; } x`); got.Num() != 2 {
		t.Fatal("catch should run, try tail skipped")
	}
	if got := run(t, `var m = ''; try { throw 'payload'; } catch (e) { m = e; } m`); got.Str() != "payload" {
		t.Fatalf("thrown value bound: %q", got.Str())
	}
	// Runtime errors become Error-like objects.
	if got := run(t, `var n = ''; try { null.deref; } catch (e) { n = e.name; } n`); got.Str() != "Error" {
		t.Fatalf("runtime error name: %q", got.Str())
	}
	if got := run(t, `var ok = 1; try { ok = 2; } catch (e) { ok = 3; } ok`); got.Num() != 2 {
		t.Fatal("no error: catch skipped")
	}
	// Parameterless catch.
	if got := run(t, `var y = 0; try { throw 1; } catch { y = 7; } y`); got.Num() != 7 {
		t.Fatal("parameterless catch")
	}
}

func TestTryFinally(t *testing.T) {
	if got := run(t, `var log = ''; try { log += 'a'; } finally { log += 'b'; } log`); got.Str() != "ab" {
		t.Fatal("finally after clean try")
	}
	if got := run(t, `var log = ''; try { try { throw 'x'; } finally { log += 'f'; } } catch (e) { log += 'c'; } log`); got.Str() != "fc" {
		t.Fatalf("finally runs before propagation: %q", got.Str())
	}
	// Uncaught after try/finally still errors.
	err := runErr(t, `try { throw 'oops'; } finally { var z = 1; }`)
	if !strings.Contains(err.Error(), "oops") {
		t.Fatalf("propagate after finally: %v", err)
	}
}

func TestTryDoesNotCatchControlFlow(t *testing.T) {
	// return inside try must return, not be swallowed by catch.
	src := `
	function f() {
		try { return 'ret'; } catch (e) { return 'caught'; }
	}
	f()`
	if got := run(t, src); got.Str() != "ret" {
		t.Fatalf("return through try: %q", got.Str())
	}
	// break inside try must break the loop.
	src2 := `
	var n = 0;
	for (var i = 0; i < 10; i++) {
		try { if (i === 3) break; } catch (e) { n = 99; }
		n = i;
	}
	n`
	if got := run(t, src2); got.Num() != 2 {
		t.Fatalf("break through try: %v", got.Num())
	}
}

func TestNestedTryCatchRethrow(t *testing.T) {
	src := `
	var trace = '';
	try {
		try {
			throw 'inner';
		} catch (e) {
			trace += 'c1:' + e + ';';
			throw 'outer';
		}
	} catch (e2) {
		trace += 'c2:' + e2;
	}
	trace`
	if got := run(t, src); got.Str() != "c1:inner;c2:outer" {
		t.Fatalf("rethrow: %q", got.Str())
	}
}

func TestTryParseErrors(t *testing.T) {
	if _, err := Parse(`try { }`); err == nil {
		t.Fatal("bare try must not parse")
	}
	if _, err := Parse(`try { } catch (`); err == nil {
		t.Fatal("broken catch must not parse")
	}
}

func TestStepLimit(t *testing.T) {
	in := New(Options{MaxSteps: 10_000})
	_, err := in.RunSource(`while (true) { var x = 1; }`)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("runaway loop must hit step limit: %v", err)
	}
	// Budget reset allows new scripts to run.
	in.ResetSteps()
	if _, err := in.RunSource(`1 + 1`); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestSyntaxErrors(t *testing.T) {
	for _, bad := range []string{
		`var = 5`,
		`function () {`,
		`if (x`,
		`'unterminated`,
		`/* unterminated`,
		`1 +`,
		`{a: }`,
		`@invalid`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("%q should not parse", bad)
		} else if _, ok := err.(*SyntaxError); !ok {
			t.Fatalf("%q: want SyntaxError, got %T", bad, err)
		}
	}
}

func TestComments(t *testing.T) {
	src := `
	// line comment
	var x = 1; /* block
	comment */ var y = 2;
	x + y`
	if got := run(t, src); got.Num() != 3 {
		t.Fatal("comments")
	}
}

type testHost struct {
	props map[string]Value
	sets  map[string]Value
}

func (h *testHost) HostGet(name string) (Value, bool) {
	if name == "greet" {
		return NewNative(func(this Value, args []Value) (Value, error) {
			who := "world"
			if len(args) > 0 {
				who = args[0].Str()
			}
			return String("hello " + who), nil
		}), true
	}
	v, ok := h.props[name]
	return v, ok
}

func (h *testHost) HostSet(name string, v Value) bool {
	if h.sets == nil {
		h.sets = map[string]Value{}
	}
	h.sets[name] = v
	return true
}

func TestHostObject(t *testing.T) {
	in := New(Options{})
	h := &testHost{props: map[string]Value{"version": Number(7)}}
	in.SetGlobal("host", NewHost(h))
	v, err := in.RunSource(`host.greet('vm') + ' v' + host.version`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Str() != "hello vm v7" {
		t.Fatalf("host interop: %q", v.Str())
	}
	if _, err := in.RunSource(`host.mode = 'fast'`); err != nil {
		t.Fatal(err)
	}
	if h.sets["mode"].Str() != "fast" {
		t.Fatal("host set")
	}
	// Missing property reads as undefined.
	v, err = in.RunSource(`typeof host.nope`)
	if err != nil || v.Str() != "undefined" {
		t.Fatalf("missing host prop: %v %v", v.Str(), err)
	}
}

func TestNullPropertyAccessErrors(t *testing.T) {
	if err := runErr(t, `var x = null; x.foo`); !strings.Contains(err.Error(), "cannot read") {
		t.Fatalf("null deref: %v", err)
	}
	runErr(t, `undefined.bar`)
}

func TestCommaOperator(t *testing.T) {
	if got := run(t, `var x = (1, 2, 3); x`); got.Num() != 3 {
		t.Fatal("comma")
	}
}

func TestNumberFormatting(t *testing.T) {
	if got := run(t, `'' + 42`); got.Str() != "42" {
		t.Fatal("int format")
	}
	if got := run(t, `'' + 4.5`); got.Str() != "4.5" {
		t.Fatal("float format")
	}
	if got := run(t, `'' + (0/0)`); got.Str() != "NaN" {
		t.Fatal("NaN format")
	}
	if got := run(t, `'' + (1/0)`); got.Str() != "Infinity" {
		t.Fatal("Infinity format")
	}
}

// Property: arithmetic on integers matches Go semantics.
func TestArithmeticProperty(t *testing.T) {
	in := New(Options{})
	f := func(a, b int16) bool {
		in.ResetSteps()
		src := "(" + Number(float64(a)).Str() + ") + (" + Number(float64(b)).Str() + ")"
		v, err := in.RunSource(src)
		return err == nil && v.Num() == float64(a)+float64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: JSONStringify always emits balanced braces for plain objects.
func TestStringifyProperty(t *testing.T) {
	f := func(keys []string, nums []float64) bool {
		obj := NewObject()
		for i, k := range keys {
			v := 0.0
			if i < len(nums) {
				v = nums[i]
			}
			obj.Object().Props[k] = Number(v)
		}
		s, err := JSONStringify(obj)
		return err == nil && strings.HasPrefix(s, "{") && strings.HasSuffix(s, "}")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInterpFib(b *testing.B) {
	prog, err := Parse(`function fib(n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } fib(15)`)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		in := New(Options{})
		if _, err := in.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	src := `
	function fingerprint(doc) {
		var canvas = doc.createElement('canvas');
		canvas.width = 280; canvas.height = 60;
		var ctx = canvas.getContext('2d');
		ctx.textBaseline = 'alphabetic';
		ctx.fillStyle = '#f60';
		ctx.fillRect(125, 1, 62, 20);
		for (var i = 0; i < 3; i++) { ctx.fillText('test', 2 + i, 15); }
		return canvas.toDataURL();
	}`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
