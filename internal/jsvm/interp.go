package jsvm

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// RuntimeError is a script-level failure (thrown value, type error, step
// limit, unknown identifier).
type RuntimeError struct {
	Msg string
}

func (e *RuntimeError) Error() string { return "jsvm: " + e.Msg }

func rtErrf(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...)}
}

// Control-flow sentinels. A return statement leaves its value in
// Interp.ret and raises errReturn; the call (or Run) it ends takes the
// value from there.
var (
	errBreak    = errors.New("jsvm: break outside loop")
	errContinue = errors.New("jsvm: continue outside loop")
	errReturn   = errors.New("jsvm: return outside function")
)

// thrownSignal carries a value raised by `throw` until a try/catch
// handles it; escaping the program it becomes an uncaught RuntimeError.
type thrownSignal struct{ v Value }

func (t thrownSignal) Error() string { return "jsvm: uncaught: " + t.v.Str() }

// isControlFlow reports whether err is a loop/function control signal
// that try/catch must NOT intercept.
func isControlFlow(err error) bool {
	return err == errBreak || err == errContinue || err == errReturn
}

// Resource caps. MaxSteps bounds time; these bound memory and Go stack,
// and each is checked before the allocation it guards. They sit far
// above anything the crawled corpus builds.
const (
	maxCallDepth = 10_000  // nested calls of compiled functions
	callNestUnit = 32      // body nesting levels per extra call charged
	maxArrayLen  = 1 << 20 // array elements
	maxStringLen = 1 << 24 // string bytes
)

// Options configures an interpreter instance.
type Options struct {
	// MaxSteps bounds evaluation steps; <=0 selects the default of 5M.
	// The crawler relies on this to survive runaway scripts.
	MaxSteps int
	// RandSeed seeds Math.random for deterministic crawls.
	RandSeed uint64
	// Calls, when non-nil, memoises calls of pure script functions
	// (see CallMemo). Interps may share one. It changes no result.
	Calls *CallMemo
}

// Interp executes programs against a global scope.
type Interp struct {
	globals  map[string]Value
	maxSteps int
	steps    int
	rands    uint64
	// depth is what the compiled-function calls in progress charge
	// (FuncLit.callCost).
	depth int
	// ret carries a return statement's value to the call it ends.
	ret Value
	// argStack holds the arguments of in-flight calls.
	argStack []Value
	// methods serves the natives behind primitive and array methods,
	// built on first read (see methodAt).
	methods [numMethodTables][]Value
	// calls is the call memo (nil: none); keyBuf holds the last key
	// built, and keyBytes counts key bytes built since ResetSteps.
	calls    *CallMemo
	keyBuf   []byte
	keyBytes int
	// ConsoleLog receives console.log lines (joined with spaces).
	ConsoleLog []string
}

// New returns an interpreter with standard builtins installed.
func New(opts Options) *Interp {
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 5_000_000
	}
	in := &Interp{
		globals:  map[string]Value{},
		maxSteps: opts.MaxSteps,
		rands:    opts.RandSeed ^ 0x9E3779B97F4A7C15,
		calls:    opts.Calls,
	}
	installBuiltins(in)
	return in
}

// SetGlobal binds a global variable (host objects go here).
func (in *Interp) SetGlobal(name string, v Value) { in.globals[name] = v }

// Global reads a global variable.
func (in *Interp) Global(name string) (Value, bool) {
	v, ok := in.globals[name]
	return v, ok
}

// ResetSteps restores the full step budget (between page scripts).
func (in *Interp) ResetSteps() { in.steps, in.keyBytes = 0, 0 }

// Steps reports the evaluation steps consumed since the last
// ResetSteps — the crawler's per-script budget telemetry.
func (in *Interp) Steps() int { return in.steps }

// MaxSteps reports the configured step budget.
func (in *Interp) MaxSteps() int { return in.maxSteps }

// RunSource parses and runs src, returning the value of the last
// expression statement.
func (in *Interp) RunSource(src string) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Undefined(), err
	}
	return in.Run(prog)
}

// Run executes a parsed program in the global scope.
func (in *Interp) Run(prog *Program) (Value, error) {
	var last Value
	for _, st := range prog.code {
		v, err := st(in, nil)
		if err != nil {
			if err == errReturn {
				return in.takeReturn(), nil
			}
			return Undefined(), err
		}
		last = v
	}
	return last, nil
}

func (in *Interp) takeReturn() Value {
	v := in.ret
	in.ret = Value{}
	return v
}

// step charges one evaluation step against the budget. It is small
// enough to inline into every compiled node.
func (in *Interp) step() error {
	in.steps++
	if in.steps > in.maxSteps {
		return in.stepLimit()
	}
	return nil
}

// stepLimit builds the limit error; it stays out of line so that step
// inlines.
//
//go:noinline
func (in *Interp) stepLimit() error {
	return rtErrf("step limit exceeded (%d)", in.maxSteps)
}

// errorValue converts a VM error to the value a catch clause binds: the
// thrown value itself, or an Error-like object for runtime errors.
func errorValue(err error) Value {
	if ts, ok := err.(thrownSignal); ok {
		return ts.v
	}
	obj := NewObject()
	obj.Object().Props["name"] = String("Error")
	obj.Object().Props["message"] = String(err.Error())
	return obj
}

// toInt32 implements ECMAScript ToInt32: truncate, reduce modulo 2^32,
// reinterpret as int32. NaN and ±Inf give 0.
func toInt32(f float64) int32 {
	if f >= math.MinInt32 && f <= math.MaxInt32 {
		return int32(f)
	}
	return wrapInt32(f) // kept out of line so the common case inlines
}

func wrapInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(uint32(int64(math.Mod(math.Trunc(f), 1<<32))))
}

// binaryOp returns the implementation of a non-short-circuit binary
// operator.
func binaryOp(op string) func(l, r Value) (Value, error) {
	switch op {
	case "+":
		return add
	case "-":
		return func(l, r Value) (Value, error) { return Number(l.Num() - r.Num()), nil }
	case "*":
		return func(l, r Value) (Value, error) { return Number(l.Num() * r.Num()), nil }
	case "/":
		return func(l, r Value) (Value, error) { return Number(l.Num() / r.Num()), nil }
	case "%":
		return func(l, r Value) (Value, error) { return Number(math.Mod(l.Num(), r.Num())), nil }
	case "==":
		return func(l, r Value) (Value, error) { return Boolean(LooseEquals(l, r)), nil }
	case "!=":
		return func(l, r Value) (Value, error) { return Boolean(!LooseEquals(l, r)), nil }
	case "===":
		return func(l, r Value) (Value, error) { return Boolean(StrictEquals(l, r)), nil }
	case "!==":
		return func(l, r Value) (Value, error) { return Boolean(!StrictEquals(l, r)), nil }
	case "<":
		return func(l, r Value) (Value, error) {
			if l.kind == KindString && r.kind == KindString {
				return Boolean(l.str() < r.str()), nil
			}
			return Boolean(l.Num() < r.Num()), nil
		}
	case ">":
		return func(l, r Value) (Value, error) {
			if l.kind == KindString && r.kind == KindString {
				return Boolean(l.str() > r.str()), nil
			}
			return Boolean(l.Num() > r.Num()), nil
		}
	case "<=":
		return func(l, r Value) (Value, error) {
			if l.kind == KindString && r.kind == KindString {
				return Boolean(l.str() <= r.str()), nil
			}
			return Boolean(l.Num() <= r.Num()), nil
		}
	case ">=":
		return func(l, r Value) (Value, error) {
			if l.kind == KindString && r.kind == KindString {
				return Boolean(l.str() >= r.str()), nil
			}
			return Boolean(l.Num() >= r.Num()), nil
		}
	case "&":
		return func(l, r Value) (Value, error) {
			return Number(float64(toInt32(l.Num()) & toInt32(r.Num()))), nil
		}
	case "|":
		return func(l, r Value) (Value, error) {
			return Number(float64(toInt32(l.Num()) | toInt32(r.Num()))), nil
		}
	case "^":
		return func(l, r Value) (Value, error) {
			return Number(float64(toInt32(l.Num()) ^ toInt32(r.Num()))), nil
		}
	case "<<":
		return func(l, r Value) (Value, error) {
			return Number(float64(toInt32(l.Num()) << (uint32(toInt32(r.Num())) & 31))), nil
		}
	case ">>":
		return func(l, r Value) (Value, error) {
			return Number(float64(toInt32(l.Num()) >> (uint32(toInt32(r.Num())) & 31))), nil
		}
	case "in":
		return func(l, r Value) (Value, error) {
			if o := r.Object(); o != nil && o.Props != nil {
				_, ok := o.Props[l.Str()]
				return Boolean(ok), nil
			}
			return Boolean(false), nil
		}
	}
	return func(l, r Value) (Value, error) { return Undefined(), rtErrf("unknown operator %q", op) }
}

// add implements +: string concatenation when either side is a string or
// a non-callable object, numeric addition otherwise.
func add(l, r Value) (Value, error) {
	if l.kind == KindNumber && r.kind == KindNumber {
		return Number(l.num + r.num), nil
	}
	if l.kind == KindString || r.kind == KindString ||
		(l.kind == KindObject && !l.IsCallable()) || (r.kind == KindObject && !r.IsCallable()) {
		ls, err := l.toStr()
		if err != nil {
			return Undefined(), err
		}
		rs, err := r.toStr()
		if err != nil {
			return Undefined(), err
		}
		return concatStrings(ls, rs)
	}
	return Number(l.Num() + r.Num()), nil
}

// concatStrings joins two strings within maxStringLen.
func concatStrings(a, b string) (Value, error) {
	if len(a)+len(b) > maxStringLen {
		return Undefined(), errStringLen
	}
	return String(a + b), nil
}

var (
	errStringLen = &RuntimeError{Msg: "invalid string length"}
	errArrayLen  = &RuntimeError{Msg: "invalid array length"}
	errCallStack = &RuntimeError{Msg: "maximum call stack size exceeded"}
)

// CallValue invokes a callable value with an explicit this and arguments.
// Host callbacks (e.g. DOM event handlers) use it to re-enter the VM.
func (in *Interp) CallValue(fn Value, this Value, args []Value) (Value, error) {
	if !fn.IsCallable() {
		return Undefined(), rtErrf("value of type %s is not callable", fn.TypeOf())
	}
	o := fn.Object()
	if o.Native != nil {
		return o.Native(this, args)
	}
	if in.depth+o.code.cost > maxCallDepth {
		return Undefined(), errCallStack
	}
	if o.code.memo != "" && in.calls != nil {
		return in.memoCall(fn, o.code, this, args)
	}
	return in.call(fn, o.code, this, args)
}

// call runs the script function fn, whose compiled code is code.
func (in *Interp) call(fn Value, code *funcCode, this Value, args []Value) (Value, error) {
	f := newFrame(fn.Object().env, code.nslots)
	for i, slot := range code.params {
		if i < len(args) {
			f.slots[slot] = args[i]
		} else {
			f.slots[slot] = Undefined()
		}
	}
	f.slots[code.thisSlot] = this
	if code.argsSlot >= 0 {
		f.slots[code.argsSlot] = NewArray(slices.Clone(args)...)
	}
	if code.selfSlot >= 0 {
		f.slots[code.selfSlot] = fn
	}
	in.depth += code.cost
	_, err := runList(in, f, code.body)
	in.depth -= code.cost
	if err == errReturn {
		return in.takeReturn(), nil
	}
	return Undefined(), err
}
