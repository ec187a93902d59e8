package jsvm_test

// callCases call pure and almost-pure functions so that a call memo
// which served a wrong entry would change what they return: the same
// source under another name, the same arguments under another this or
// another global, arguments that differ only in kind, and results that
// must not be stored. They run in TestStepBudgetsMatchReference and
// seed FuzzEval; they are not in steps.golden.
var callCases = []struct {
	name, src string
	max       int
}{
	{"calls/args", `function h(s) { var x = 0; for (var i = 0; i < s.length; i++) x = (x * 31 + s.charCodeAt(i)) & 0xffff; return x; } h('abc') + ':' + h('abd') + ':' + h('abc') + ':' + h('ab') + ':' + h('abc')`, 0},
	{"calls/key-boundary", `function c(a, b) { return a + '|' + b; } c('a\u0004b') + ':' + c('a', 'b') + ':' + c('a\u0004\u0001b') + ':' + c('a', 'b')`, 0},
	{"calls/kinds", `function k(v) { return typeof v + v; } k(1) + k('1') + k(true) + k(null) + k(undefined) + k(1) + k('1') + k(0) + k(-0) + k(NaN) + k(NaN)`, 0},
	{"calls/same-source", `function a(s) { return s.length * 2; } function b(s) { return s.length * 2; } a('xy') + b('xyz') + a('xyz') + b('xy')`, 0},
	{"calls/own-name", `function t(s) { return s + 1; } function s(s) { return s + 1; } t(1) + ':' + s(1) + ':' + t(1)`, 0},
	{"calls/this", `function m(x) { return this === undefined ? x : -x; } var o = {f: m}; m(1) + ':' + o.f(1) + ':' + m(1)`, 0},
	{"calls/global", `var k = 1; function f(x) { return x + k; } var r = f(1); k = 2; r + ':' + f(1)`, 0},
	{"calls/read-before-var", `var x = 'g'; function f(y) { var r = x + y; var x = 'l'; return r + x; } var a = f('1'); x = 'h'; a + ':' + f('1')`, 0},
	{"calls/method-property", `"".charCodeAt.tag = 1; function p(s) { return s.charCodeAt.tag; } var a = p('x'); "".charCodeAt.tag = 2; a + ':' + p('x')`, 0},
	{"calls/object-result", `function arr(n) { return [n, n]; } var a = arr(1); var b = arr(1); a === b`, 0},
	{"calls/object-arg", `function len(a) { return a.length; } var x = [1]; var r = len(x); x.push(2); r + ':' + len(x)`, 0},
	{"calls/error", `function e(s) { return s.foo(); } var r = ''; try { e('a'); } catch (x) { r = x.message; } try { e('a'); } catch (x) { r += x.message; } r`, 0},
	{"calls/split-join", `function sj(s) { return s.split('').reverse().join('-'); } sj('abc') + sj('abc') + sj('')`, 0},
	{"calls/hash-twice", `function __fpHash(s) { var h = 5381; for (var i = 0; i < s.length; i++) { h = ((h << 5) + h + s.charCodeAt(i)) & 0x7fffffff; } return h; } var u = 'data:image/png;base64,' + 'iVBORw0KGgo'.repeat(8); __fpHash(u) ^ __fpHash(u + 'x') ^ __fpHash(u)`, 0},
}
