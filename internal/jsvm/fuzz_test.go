package jsvm_test

import (
	"fmt"
	"testing"
	"time"

	"canvassing/internal/jsvm"
	"canvassing/internal/services"
)

// runner runs a parsed program: (*jsvm.Interp).Run executes its compiled
// code, jsvm.RunReference walks its AST.
type runner func(*jsvm.Interp, *jsvm.Program) (jsvm.Value, error)

var (
	compiled  runner = (*jsvm.Interp).Run
	reference runner = jsvm.RunReference
)

// outcome runs prog on a fresh interpreter under a budget of max steps,
// with the call memo calls (nil: none), and renders everything a script
// can leave behind: its value, error text, step count and console
// output.
func outcome(t testing.TB, prog *jsvm.Program, run runner, max int, calls *jsvm.CallMemo) string {
	t.Helper()
	done := make(chan string, 1)
	go func() {
		in := jsvm.New(jsvm.Options{MaxSteps: max, RandSeed: 7, Calls: calls})
		v, err := run(in, prog)
		res := fmt.Sprintf("value=%s/%s", v.TypeOf(), v.Str())
		if err != nil {
			res = "error=" + err.Error()
		}
		done <- fmt.Sprintf("%s steps=%d console=%q", res, in.Steps(), in.ConsoleLog)
	}()
	select {
	case res := <-done:
		return res
	case <-time.After(20 * time.Second):
		t.Fatalf("run did not return within 20s under MaxSteps %d", max)
		return ""
	}
}

// TestStepBudgetsMatchReference runs every step case and call case
// under every budget from one step up to one past what it needs, on
// both paths. Wherever the limit strikes, the compiled code must have
// done exactly the reference's side effects and charged exactly its
// steps, and so must the compiled code with a call memo that a full run
// warmed, including budgets that end inside a memoised call.
func TestStepBudgetsMatchReference(t *testing.T) {
	for _, c := range append(stepCases, callCases...) {
		prog, err := jsvm.Parse(c.src)
		if err != nil {
			continue
		}
		warm := jsvm.NewCallMemo()
		in := jsvm.New(jsvm.Options{MaxSteps: c.max, Calls: warm})
		_, _ = in.Run(prog)
		need := in.Steps()
		stride := 1 + need/400
		for max := 1; max <= need+1; max += stride {
			want := outcome(t, prog, reference, max, nil)
			if got := outcome(t, prog, compiled, max, nil); got != want {
				t.Fatalf("%s at MaxSteps %d:\n compiled  %s\n reference %s", c.name, max, got, want)
			}
			if got := outcome(t, prog, compiled, max, warm); got != want {
				t.Fatalf("%s at MaxSteps %d with a warm call memo:\n compiled  %s\n reference %s", c.name, max, got, want)
			}
		}
	}
}

// fuzzCalls is one call memo every FuzzEval input shares, so entries
// stored by one input meet the calls of the next.
var fuzzCalls = jsvm.NewCallMemo()

// FuzzEval checks that every program Parse accepts runs to completion
// under a 20,000-step budget without a panic, on both paths, and that
// the compiled code agrees with the reference walker on value, error
// text, Steps() and console output. The compiled code runs three more
// times with call memos: cold and then warm on a memo of its own, and
// on the memo every input shares; each must agree too. Each input is
// also parsed twice through the shared memo, cold and then warm: both
// must fail as Parse does, or give a program whose run agrees.
func FuzzEval(f *testing.F) {
	for _, src := range evalSeeds() {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := jsvm.Parse(src)
		var shared []*jsvm.Program
		for i := 0; i < 2; i++ {
			p, merr := fuzzCalls.Parse(src)
			if fmt.Sprint(merr) != fmt.Sprint(err) {
				t.Fatalf("the memo's parse %d of %q fails with %v, Parse with %v", i, src, merr, err)
			}
			shared = append(shared, p)
		}
		if err != nil {
			return
		}
		want := outcome(t, prog, reference, 20_000, nil)
		if got := outcome(t, prog, compiled, 20_000, nil); got != want {
			t.Fatalf("compiled and reference disagree on %q:\n compiled  %s\n reference %s", src, got, want)
		}
		own := jsvm.NewCallMemo()
		for i, calls := range []*jsvm.CallMemo{own, own, fuzzCalls} {
			if got := outcome(t, prog, compiled, 20_000, calls); got != want {
				t.Fatalf("a call memo changes the outcome of %q (run %d):\n memo      %s\n reference %s", src, i, got, want)
			}
		}
		for i, p := range shared {
			if got := outcome(t, p, compiled, 20_000, nil); got != want {
				t.Fatalf("the memo's parse %d changes the outcome of %q:\n memo      %s\n reference %s", i, src, got, want)
			}
		}
	})
}

// evalSeeds is FuzzEval's seed corpus: the step and call cases, every
// vendor, deferred and benign script, and two scripts mixing closures,
// arguments, try and an endless loop.
func evalSeeds() []string {
	var seeds []string
	params := services.ScriptParams{SiteDomain: "fuzz.example"}
	for _, c := range append(stepCases, callCases...) {
		seeds = append(seeds, c.src)
	}
	for _, v := range services.Registry() {
		seeds = append(seeds, v.Source(params))
	}
	for _, v := range services.Deferred() {
		seeds = append(seeds, v.Source(params))
	}
	for _, k := range services.BenignKinds() {
		seeds = append(seeds, services.BenignSource(k))
	}
	return append(seeds,
		`var a = [3, 1, 2]; var s = 0; a.forEach(function (x, i) { s += x * i; }); try { null.x; } catch (e) { console.log(e.message, s); } s`,
		`function f(n) { return n ? f(n - 1) + arguments.length : typeof g; } var g = f(30); for (;;) { g++; }`)
}

// TestLexerMatchesListScan: matching punctuators by their first byte
// must lex exactly as scanning the whole list at every byte did, maximal
// munch included (`&=`, `|=`, `<<=` and `>>=` lex as one token, which
// the parser rejects). Tokens and errors must agree on every string of
// one to three bytes drawn from the punctuators' bytes, an identifier
// byte and a byte no token starts with, and on FuzzEval's seed corpus.
func TestLexerMatchesListScan(t *testing.T) {
	const alphabet = "=!<>&|+-*/%?:(){}[];,.^~" + "a@"
	var srcs []string
	for _, a := range alphabet {
		srcs = append(srcs, string(a))
		for _, b := range alphabet {
			srcs = append(srcs, string(a)+string(b))
			for _, c := range alphabet {
				srcs = append(srcs, string(a)+string(b)+string(c))
			}
		}
	}
	for _, src := range append(srcs, evalSeeds()...) {
		if d := jsvm.LexDiff(src); d != "" {
			t.Fatalf("%.80q: %s", src, d)
		}
	}
}
