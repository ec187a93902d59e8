package jsvm

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"canvassing/internal/services"
)

// memoised reports whether the function src binds to global f would
// consult a call memo.
func memoised(t *testing.T, src string) bool {
	t.Helper()
	in := New(Options{})
	in.SetGlobal("g", Number(1))
	if _, err := in.RunSource(src); err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	fn, ok := in.Global("f")
	if !ok || fn.Object() == nil || fn.Object().code == nil {
		t.Fatalf("%s: f is not a script function", src)
	}
	return fn.Object().code.memo != ""
}

// TestPurityRule pins the whitelist: every allowed node kind keeps a
// function pure, and each construct that can reach state outside the
// function's own frames makes it impure.
func TestPurityRule(t *testing.T) {
	pure := map[string]string{
		"literals":      `function f() { return 1 + 'a' + true + null + undefined; }`,
		"array-object":  `function f(x) { var a = [x, 2]; var o = {k: x}; return a.length + o.length; }`,
		"operators":     `function f(x) { return !x || -x && +x ? ~x : (typeof x, x in {}, x << 1 === 2); }`,
		"assignment":    `function f(x) { var y = x; y += 2; y -= 1; y++; --y; y = y * 2; return y; }`,
		"length-method": `function f(s) { return s.length + s.charCodeAt(0) + s.split('').reverse().join('-').length; }`,
		"statements": `function f(n) { var s = 0; let t = 1; const u = 2;
			for (var i = 0; i < n; i++) { if (i % 2) continue; else s += i; }
			while (s > 100) { s -= 100; break; } do { t++; } while (t < 3); { s += t + u; } return s; }`,
		"djb2":          hashSrc + `var f = __fpHash;`,
		"expression":    `var f = function (s) { return s.length; };`,
		"var-then-read": `function f() { var x = 1; if (x) var y = 2; return x; }`,
	}
	impure := map[string]string{
		"global":          `function f(x) { return x + g; }`,
		"typeof-global":   `function f() { return typeof Math; }`,
		"typeof-missing":  `function f() { return typeof nope; }`,
		"implicit-global": `function f() { leak = 1; return 1; }`,
		"outer-frame":     `function outer() { var k = 1; return function (x) { return x + k; }; } var f = outer();`,
		"read-before-var": `function f() { var r = x; var x = 1; return r; }`,
		"if-var":          `function f(c) { if (c) var k = 1; return k; }`,
		"for-var-after":   `function f(n) { for (var i = 0; i < n; i++) {} return i; }`,
		"this":            `function f() { return this; }`,
		"arguments":       `function f() { return arguments.length; }`,
		"own-name":        `function f(n) { return n ? f(n - 1) : 0; }`,
		"param-own-name":  `function f(f) { return f; }`,
		"nested-function": `function f() { var h = function () { return 1; }; return 1; }`,
		"arrow":           `function f() { var h = (x) => x; return 1; }`,
		"arrow-itself":    `var f = (s) => s.length;`,
		"new":             `function f(x) { return new x(); }`,
		"plain-call":      `function f(x) { return x(1); }`,
		"computed-read":   `function f(s) { return s[0]; }`,
		"computed-call":   `function f(s) { return s['charAt'](0); }`,
		"method-property": `function f(s) { return s.charCodeAt.x; }`,
		"member-read":     `function f(o) { return o.k; }`,
		"member-store":    `function f() { var o = {}; o.k = 1; return 1; }`,
		"index-store":     `function f() { var a = []; a[0] = 1; return 1; }`,
		"length-store":    `function f() { var a = []; a.length++; return 1; }`,
		"throw":           `function f() { throw 1; }`,
		"try":             `function f() { try { return 1; } catch (e) { return 2; } }`,
	}
	for name, src := range pure {
		if !memoised(t, src) {
			t.Errorf("%s: want pure: %s", name, src)
		}
	}
	for name, src := range impure {
		if memoised(t, src) {
			t.Errorf("%s: want impure: %s", name, src)
		}
	}
}

// TestCallMemoKeyPrefix checks that a declaration's key starts with its
// source from "(" to the closing "}", comments included.
func TestCallMemoKeyPrefix(t *testing.T) {
	in := New(Options{})
	if _, err := in.RunSource("function f(s /* in */) {\n\treturn s.length; // out\n} f('x')"); err != nil {
		t.Fatal(err)
	}
	fn, _ := in.Global("f")
	if got, want := fn.Object().code.memo, memoPrefix("(s /* in */) {\n\treturn s.length; // out\n}"); got != want {
		t.Fatalf("key prefix %q, want %q", got, want)
	}
}

// TestCallMemoConcurrent runs 8 goroutines, each with its own Interp,
// over one shared memo: each hashes an overlapping set of strings, so
// the goroutines both fill the memo and hit each other's entries. Every
// value and step count must equal a run without the memo (make race
// checks the sharing).
func TestCallMemoConcurrent(t *testing.T) {
	prog, err := Parse(hashSrc + `
var out = [];
for (var i = 0; i < 6; i++) { out.push(__fpHash('data:' + ((i + seed) % 4) + 'AAAA'.repeat(32 + (i + seed) % 4))); }
out.join(',');
`)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(seed int, calls *CallMemo) string {
		in := New(Options{Calls: calls})
		in.SetGlobal("seed", Number(float64(seed)))
		v, err := in.Run(prog)
		return fmt.Sprintf("%s steps=%d err=%v", v.Str(), in.Steps(), err)
	}
	const workers = 8
	want := make([]string, workers)
	for w := range want {
		want[w] = runOnce(w, nil)
	}
	calls := NewCallMemo()
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				if got := runOnce(w, calls); got != want[w] {
					errs[w] = fmt.Sprintf("round %d: %s, alone %s", round, got, want[w])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
	if n := len(calls.calls); n != 4 {
		t.Fatalf("memo holds %d calls, want the 4 distinct ones", n)
	}
}

// TestCallMemoByteBound checks that the memo empties when the next
// entry would pass its byte bound, and never stores an entry larger
// than the bound.
func TestCallMemoByteBound(t *testing.T) {
	m := NewCallMemo()
	m.limit = 1000
	key := func(i int) string { return fmt.Sprintf("%0100d", i) }
	entry := 100 + memoEntryBytes
	for i := 0; i < 20; i++ {
		m.put(key(i), callResult{v: Number(float64(i)), steps: i})
		if m.size > m.limit {
			t.Fatalf("after %d puts: %d bytes held, bound %d", i+1, m.size, m.limit)
		}
		if want := (i%(m.limit/entry) + 1) * entry; m.size != want {
			t.Fatalf("after %d puts: %d bytes held, want %d", i+1, m.size, want)
		}
		if c, ok := m.get([]byte(key(i))); !ok || c.steps != i {
			t.Fatalf("entry %d missing right after its put", i)
		}
	}
	if _, ok := m.get([]byte(key(0))); ok {
		t.Fatal("entry 0 survived the memo emptying")
	}
	m.put("big", callResult{v: String(strings.Repeat("x", m.limit))})
	if _, ok := m.get([]byte("big")); ok {
		t.Fatal("stored an entry larger than the bound")
	}
}

// TestCallMemoCopiesStrings stores 256 one-byte results, each cut from
// a fresh megabyte string. The memo must keep a copy of each result,
// not the megabyte behind it, so the bytes it counts are the bytes it
// keeps alive.
func TestCallMemoCopiesStrings(t *testing.T) {
	calls := NewCallMemo()
	in := New(Options{Calls: calls})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	v, err := in.RunSource(`function f(n) { return 'abcdefgh'.repeat(1 << 17).charAt(0); } var s; for (var i = 0; i < 256; i++) s = f(i); s`)
	if err != nil || v.Str() != "a" {
		t.Fatalf("got %q, %v", v.Str(), err)
	}
	if n := len(calls.calls); n != 256 {
		t.Fatalf("memo holds %d calls, want 256", n)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapInuse) - int64(before.HeapInuse); grown > 32<<20 {
		t.Fatalf("memo of 256 one-byte results keeps %d MB live", grown>>20)
	}
	runtime.KeepAlive(calls)
}

// TestCallMemoKeyBudget runs a loop that passes a 16 MB string to a
// pure function costing a few steps: the calls skip the memo rather
// than hash 16 MB each, since the loop never earns a key that long.
func TestCallMemoKeyBudget(t *testing.T) {
	in := New(Options{Calls: NewCallMemo()})
	v, err := in.RunSource(`function f(s) { return 1; } var s = 'x'.repeat(1 << 20).repeat(16); var n = 0; for (var i = 0; i < 50000; i++) n += f(s); n`)
	if err != nil || v.Num() != 50000 {
		t.Fatalf("got %v, %v", v.Num(), err)
	}
	if in.keyBytes != 0 || len(in.calls.calls) != 0 {
		t.Fatalf("built %d key bytes and stored %d calls for a 16 MB argument", in.keyBytes, len(in.calls.calls))
	}
}

// TestProgramMemoConcurrent runs 8 goroutines that parse an overlapping
// set of valid and broken bodies through one memo, each starting at a
// different body, and run what parses on interpreters of their own. A
// program holds no run state, so every value, error text and Steps()
// count must equal a run of a fresh Parse (make race checks the
// sharing), and the memo must end holding each body once.
func TestProgramMemoConcurrent(t *testing.T) {
	bodies := []string{
		hashSrc + `__fpHash('data:' + seed);`,
		`var n = 0; for (var i = 0; i < 50 + seed; i++) { n += i; } n`,
		`function f(x) { return x * seed; } [1, 2, 3].map(f).join(',')`,
		`var log = []; try { missing(seed); } catch (e) { log.push(e.message); } log.join()`,
		`throw 'boom ' + seed;`,
		`while (true) { seed++; }`,
		`var x = ;`,
		`function (`,
		`'unterminated`,
	}
	run := func(body string, seed int, memo *CallMemo) string {
		prog, err := memo.Parse(body)
		if err != nil {
			return "parse error: " + err.Error()
		}
		in := New(Options{MaxSteps: 5000})
		in.SetGlobal("seed", Number(float64(seed)))
		v, err := in.Run(prog)
		return fmt.Sprintf("%s err=%v steps=%d", v.Str(), err, in.Steps())
	}
	const workers = 8
	want := make([][]string, workers)
	for w := range want {
		for _, b := range bodies {
			want[w] = append(want[w], run(b, w, nil))
		}
	}
	memo := NewCallMemo()
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for k := range bodies {
					b := (k + w) % len(bodies)
					if got := run(bodies[b], w, memo); got != want[w][b] {
						errs[w] = fmt.Sprintf("round %d, body %d: %s, fresh parse %s", round, b, got, want[w][b])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
	if n := len(memo.progs); n != len(bodies) {
		t.Fatalf("memo holds %d programs, want the %d bodies", n, len(bodies))
	}
}

// TestProgramMemoByteBound checks that programs count against the same
// byte bound as calls: each is charged at least the heap it holds,
// corpus scripts and dense hostile text alike, a program larger than
// the bound is not stored, and one that would pass the bound empties
// the memo first, call entries included. A parse error is stored too; a
// nil memo parses every time.
func TestProgramMemoByteBound(t *testing.T) {
	charge := func(src string) int {
		m := NewCallMemo()
		m.Parse(src)
		return m.size
	}
	const n = 2000
	for _, b := range []struct{ name, src string }{
		{"vendor fingerprintjs", services.BySlug("fingerprintjs").Source(services.ScriptParams{SiteDomain: "a.example"})},
		{"deferred datadome", services.DeferredBySlug("datadome").Source(services.ScriptParams{SiteDomain: "a.example"})},
		{"x;x;…", strings.Repeat("x;", n)},
		{"1+1+…", strings.Repeat("v = "+strings.Repeat("1+", 200)+"1;", n/200)},
		{"a.b.b…", strings.Repeat("v = a"+strings.Repeat(".b", 200)+";", n/200)},
		{"f(1,2,3);…", strings.Repeat("f(1,2,3);", n)},
		{"x++;…", strings.Repeat("x++;", n)},
		{";;;…", strings.Repeat(";", n)},
		{"x=>x;…", strings.Repeat("x=>x;", n)},
		{"x=>x=>…", strings.Repeat(strings.Repeat("x=>", 50)+"x;", n/50)},
		{"'…\\n…'", "var s = '" + strings.Repeat("\\n", n) + "';"},
	} {
		if held, c := programHeap(t, b.src), charge(b.src); held > c {
			t.Errorf("%s: a %d-byte program holds %d heap bytes, charged %d", b.name, len(b.src), held, c)
		}
	}

	m := NewCallMemo()
	src := func(i int) string { return fmt.Sprintf("var v = %0100d;", i) }
	entry := charge(src(0))
	m.limit = 3*entry + entry/2
	for i := 0; i < 20; i++ {
		prog, err := m.Parse(src(i))
		if err != nil {
			t.Fatal(err)
		}
		if m.size > m.limit {
			t.Fatalf("after %d parses: %d bytes held, bound %d", i+1, m.size, m.limit)
		}
		if want := (i%3 + 1) * entry; m.size != want {
			t.Fatalf("after %d parses: %d bytes held, want %d", i+1, m.size, want)
		}
		if again, _ := m.Parse(src(i)); again != prog {
			t.Fatalf("program %d not served from the memo right after its parse", i)
		}
	}
	if _, ok := m.progs[src(0)]; ok {
		t.Fatal("program 0 survived the memo emptying")
	}
	m.put("call", callResult{v: Number(1)})
	m.Parse(src(20))
	m.Parse(src(21))
	if _, ok := m.get([]byte("call")); ok {
		t.Fatal("a call entry survived the memo emptying for a program")
	}
	big := "var s = '" + strings.Repeat("x", m.limit) + "';"
	before := m.size
	if _, err := m.Parse(big); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.progs[big]; ok || m.size != before {
		t.Fatal("stored a program larger than the bound")
	}
	_, err1 := m.Parse("var x = ;")
	_, err2 := m.Parse("var x = ;")
	if err1 == nil || err1 != err2 {
		t.Fatalf("a broken body's error is not served from the memo: %v, %v", err1, err2)
	}
	var none *CallMemo
	p1, _ := none.Parse("1")
	p2, _ := none.Parse("1")
	if p1 == nil || p1 == p2 {
		t.Fatal("a nil memo must parse every time")
	}
}

// programHeap returns the heap bytes one compiled program of src holds,
// measured over copies kept alive at once.
func programHeap(t *testing.T, src string) int {
	t.Helper()
	const copies = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	progs := make([]*Program, copies)
	for i := range progs {
		var err error
		if progs[i], err = Parse(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(progs)
	return (int(after.HeapAlloc) - int(before.HeapAlloc)) / copies
}
