package jsvm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// hashSrc is the djb2 helper every vendor script carries: the crawl's
// hottest loop, run once per character of each extracted data URL.
const hashSrc = `
function __fpHash(s) {
	var h = 5381;
	for (var i = 0; i < s.length; i++) {
		h = ((h << 5) + h + s.charCodeAt(i)) & 0x7fffffff;
	}
	return h;
}
`

func hashFunc(t testing.TB) (*Interp, Value) {
	t.Helper()
	in := New(Options{})
	if _, err := in.RunSource(hashSrc); err != nil {
		t.Fatal(err)
	}
	fn, ok := in.Global("__fpHash")
	if !ok {
		t.Fatal("__fpHash not defined")
	}
	return in, fn
}

// TestHashLoopAllocationFree guards the hot path: hashing an 8 kB string
// must allocate no more than hashing a 1 kB one, so the loop body —
// scope, method read, native call, compound arithmetic — allocates
// nothing per character.
func TestHashLoopAllocationFree(t *testing.T) {
	in, fn := hashFunc(t)
	allocs := func(n int) float64 {
		arg := []Value{String(strings.Repeat("iVBORw0K", n/8))}
		return testing.AllocsPerRun(20, func() {
			in.ResetSteps()
			if _, err := in.CallValue(fn, Undefined(), arg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1<<10), allocs(8<<10)
	if large > small {
		t.Fatalf("__fpHash allocates per character: %.0f allocs over 1 kB, %.0f over 8 kB", small, large)
	}
}

// TestMethodTablesPerInterp runs one parsed Program on 8 goroutines,
// each with its own Interp. Half of them write a property onto the
// shared-looking "".charCodeAt; no other interpreter may see the write,
// and every hash must agree.
func TestMethodTablesPerInterp(t *testing.T) {
	prog, err := Parse(hashSrc + `
var before = typeof "".charCodeAt.marker;
if (writer) { "".charCodeAt.marker = id; }
var after = "".charCodeAt.marker;
var h = __fpHash('data:image/png;base64,' + 'AAAA'.repeat(64));
`)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				in := New(Options{})
				in.SetGlobal("writer", Boolean(w%2 == 0))
				in.SetGlobal("id", Number(float64(w)))
				if _, err := in.Run(prog); err != nil {
					results[w] = err.Error()
					return
				}
				before, _ := in.Global("before")
				after, _ := in.Global("after")
				h, _ := in.Global("h")
				want := "undefined"
				if w%2 == 0 {
					want = fmt.Sprint(w)
				}
				if before.Str() != "undefined" || after.Str() != want {
					results[w] = fmt.Sprintf("marker leaked: before=%s after=%s want %s", before.Str(), after.Str(), want)
					return
				}
				results[w] = h.Str()
			}
		}(w)
	}
	wg.Wait()
	for w, r := range results {
		if r != results[1] {
			t.Fatalf("worker %d: %s; worker 1: %s", w, r, results[1])
		}
	}
}

// TestSharedProgramConcurrent runs one compiled Program, with closures,
// loops, try/catch, recursion and array callbacks, on 8 goroutines at
// once, each with its own Interp. Compiled code holds no run state, so
// every run must match a run made alone (make race checks the sharing).
func TestSharedProgramConcurrent(t *testing.T) {
	prog, err := Parse(hashSrc + `
function counter() { var n = 0; return function () { n += 1; return n; }; }
function fib(n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
var tick = counter(), log = [];
for (var i = 0; i < 3; i++) { tick(); }
var sq = [1, 2, 3, 4].map(function (x) { return x * x + seed; }).filter(function (x) { return x % 2; });
var sum = sq.reduce(function (a, b) { return a + b; }, 0);
try { if (seed % 2) throw 'odd'; missing(); } catch (e) { log.push(typeof e === 'string' ? e : e.message); } finally { log.push('done'); }
[fib(10 + seed % 3), tick(), sum, __fpHash('seed' + seed)].join(':') + '|' + log.join(',');
`)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(seed int) (string, int, error) {
		in := New(Options{})
		in.SetGlobal("seed", Number(float64(seed)))
		v, err := in.Run(prog)
		return v.Str(), in.Steps(), err
	}
	const workers = 8
	want := make([]string, workers)
	for w := range want {
		v, steps, err := runOnce(w)
		if err != nil {
			t.Fatal(err)
		}
		want[w] = fmt.Sprintf("%s steps=%d", v, steps)
	}
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				v, steps, err := runOnce(w)
				if got := fmt.Sprintf("%s steps=%d", v, steps); err != nil || got != want[w] {
					errs[w] = fmt.Sprintf("round %d: %s (err %v), alone %s", round, got, err, want[w])
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
}

// TestMethodNamesBuild keeps methodNames and the method builders in
// step: every listed method must build a callable native.
func TestMethodNamesBuild(t *testing.T) {
	in := New(Options{})
	for table, names := range methodNames {
		for id, name := range names {
			if !in.methodAt(table, id).IsCallable() {
				t.Errorf("table %d: %s builds no native", table, name)
			}
		}
	}
}

func BenchmarkInterpHash(b *testing.B) {
	in, fn := hashFunc(b)
	arg := []Value{String(strings.Repeat("iVBORw0K", 1<<10))}
	b.ReportAllocs()
	b.SetBytes(int64(len(arg[0].str())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ResetSteps()
		if _, err := in.CallValue(fn, Undefined(), arg); err != nil {
			b.Fatal(err)
		}
	}
}
