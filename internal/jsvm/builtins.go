package jsvm

import (
	"math"
	"strconv"
	"strings"
)

// interpArrayMethod serves the array methods that must re-enter the
// interpreter to run user callbacks.
func (in *Interp) interpArrayMethod(name string) NativeFunc {
	switch name {
	case "forEach":
		return func(this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || len(args) == 0 {
				return Undefined(), nil
			}
			for i, e := range o.Elems {
				if _, err := in.CallValue(args[0], Undefined(), []Value{e, Number(float64(i)), this}); err != nil {
					return Undefined(), err
				}
			}
			return Undefined(), nil
		}
	case "map":
		return func(this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || len(args) == 0 {
				return NewArray(), nil
			}
			out := make([]Value, len(o.Elems))
			for i, e := range o.Elems {
				v, err := in.CallValue(args[0], Undefined(), []Value{e, Number(float64(i)), this})
				if err != nil {
					return Undefined(), err
				}
				out[i] = v
			}
			return NewArray(out...), nil
		}
	case "filter":
		return func(this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || len(args) == 0 {
				return NewArray(), nil
			}
			var out []Value
			for i, e := range o.Elems {
				keep, err := in.CallValue(args[0], Undefined(), []Value{e, Number(float64(i)), this})
				if err != nil {
					return Undefined(), err
				}
				if keep.Bool() {
					out = append(out, e)
				}
			}
			return NewArray(out...), nil
		}
	case "reduce":
		return func(this Value, args []Value) (Value, error) {
			o := this.Object()
			if o == nil || len(args) == 0 {
				return Undefined(), rtErrf("reduce needs a callback")
			}
			acc := Undefined()
			start := 0
			if len(args) > 1 {
				acc = args[1]
			} else {
				if len(o.Elems) == 0 {
					return Undefined(), rtErrf("reduce of empty array with no initial value")
				}
				acc = o.Elems[0]
				start = 1
			}
			for i := start; i < len(o.Elems); i++ {
				v, err := in.CallValue(args[0], Undefined(), []Value{acc, o.Elems[i], Number(float64(i)), this})
				if err != nil {
					return Undefined(), err
				}
				acc = v
			}
			return acc, nil
		}
	}
	return nil
}

// nextRandom advances the deterministic Math.random stream (SplitMix64).
func (in *Interp) nextRandom() float64 {
	in.rands += 0x9E3779B97F4A7C15
	z := in.rands
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

func installBuiltins(in *Interp) {
	// Math
	mathObj := NewObject()
	mp := mathObj.Object().Props
	mp["PI"] = Number(math.Pi)
	mp["E"] = Number(math.E)
	m1 := func(f func(float64) float64) Value {
		return NewNative(func(this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(math.NaN()), nil
			}
			return Number(f(args[0].Num())), nil
		})
	}
	mp["floor"] = m1(math.Floor)
	mp["ceil"] = m1(math.Ceil)
	mp["round"] = m1(func(f float64) float64 { return math.Floor(f + 0.5) })
	mp["abs"] = m1(math.Abs)
	mp["sqrt"] = m1(math.Sqrt)
	mp["sin"] = m1(math.Sin)
	mp["cos"] = m1(math.Cos)
	mp["tan"] = m1(math.Tan)
	mp["atan"] = m1(math.Atan)
	mp["exp"] = m1(math.Exp)
	mp["log"] = m1(math.Log)
	mp["pow"] = NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Number(math.NaN()), nil
		}
		return Number(math.Pow(args[0].Num(), args[1].Num())), nil
	})
	mp["atan2"] = NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Number(math.NaN()), nil
		}
		return Number(math.Atan2(args[0].Num(), args[1].Num())), nil
	})
	mp["max"] = NewNative(func(this Value, args []Value) (Value, error) {
		out := math.Inf(-1)
		for _, a := range args {
			out = math.Max(out, a.Num())
		}
		return Number(out), nil
	})
	mp["min"] = NewNative(func(this Value, args []Value) (Value, error) {
		out := math.Inf(1)
		for _, a := range args {
			out = math.Min(out, a.Num())
		}
		return Number(out), nil
	})
	mp["random"] = NewNative(func(this Value, args []Value) (Value, error) {
		return Number(in.nextRandom()), nil
	})
	in.SetGlobal("Math", mathObj)

	// JSON
	jsonObj := NewObject()
	jsonObj.Object().Props["stringify"] = NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String("undefined"), nil
		}
		s, err := JSONStringify(args[0])
		return String(s), err
	})
	in.SetGlobal("JSON", jsonObj)

	// Conversions and predicates.
	in.SetGlobal("String", NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return String(""), nil
		}
		s, err := args[0].toStr()
		return String(s), err
	}))
	in.SetGlobal("Number", NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(0), nil
		}
		return Number(args[0].Num()), nil
	}))
	in.SetGlobal("Boolean", NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Boolean(false), nil
		}
		return Boolean(args[0].Bool()), nil
	}))
	in.SetGlobal("parseInt", NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		s := strings.TrimSpace(args[0].Str())
		base := 10
		if len(args) > 1 && args[1].Num() != 0 {
			base = int(args[1].Num())
		}
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			s = s[2:]
			base = 16
		}
		// Consume the longest valid prefix, as parseInt does.
		end := 0
		if end < len(s) && (s[end] == '+' || s[end] == '-') {
			end++
		}
		for end < len(s) && digitVal(s[end]) < base {
			end++
		}
		if end == 0 || (end == 1 && (s[0] == '+' || s[0] == '-')) {
			return Number(math.NaN()), nil
		}
		iv, err := strconv.ParseInt(s[:end], base, 64)
		if err != nil {
			return Number(math.NaN()), nil
		}
		return Number(float64(iv)), nil
	}))
	in.SetGlobal("parseFloat", NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		s := strings.TrimSpace(args[0].Str())
		end := 0
		seenDot, seenDigit := false, false
		if end < len(s) && (s[end] == '+' || s[end] == '-') {
			end++
		}
		for end < len(s) {
			c := s[end]
			if c >= '0' && c <= '9' {
				seenDigit = true
				end++
			} else if c == '.' && !seenDot {
				seenDot = true
				end++
			} else {
				break
			}
		}
		if !seenDigit {
			return Number(math.NaN()), nil
		}
		f, err := strconv.ParseFloat(s[:end], 64)
		if err != nil {
			return Number(math.NaN()), nil
		}
		return Number(f), nil
	}))
	in.SetGlobal("isNaN", NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Boolean(true), nil
		}
		return Boolean(math.IsNaN(args[0].Num())), nil
	}))
	in.SetGlobal("NaN", Number(math.NaN()))
	in.SetGlobal("Infinity", Number(math.Inf(1)))

	// Object.keys — enough of Object for the scripts in this corpus.
	objectNS := NewObject()
	objectNS.Object().Props["keys"] = NewNative(func(this Value, args []Value) (Value, error) {
		if len(args) == 0 || args[0].Object() == nil || args[0].Object().Props == nil {
			return NewArray(), nil
		}
		keys := make([]string, 0, len(args[0].Object().Props))
		for k := range args[0].Object().Props {
			keys = append(keys, k)
		}
		// Stable order for determinism.
		sortStrings(keys)
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = String(k)
		}
		return NewArray(out...), nil
	})
	in.SetGlobal("Object", objectNS)

	// Array.isArray
	arrayNS := NewObject()
	arrayNS.Object().Props["isArray"] = NewNative(func(this Value, args []Value) (Value, error) {
		return Boolean(len(args) > 0 && args[0].IsArray()), nil
	})
	in.SetGlobal("Array", arrayNS)

	// console.log → captured for tests and crawler diagnostics.
	consoleObj := NewObject()
	consoleObj.Object().Props["log"] = NewNative(func(this Value, args []Value) (Value, error) {
		parts := make([]string, len(args))
		for i, a := range args {
			parts[i] = a.Str()
		}
		in.ConsoleLog = append(in.ConsoleLog, strings.Join(parts, " "))
		return Undefined(), nil
	})
	consoleObj.Object().Props["error"] = consoleObj.Object().Props["log"]
	consoleObj.Object().Props["warn"] = consoleObj.Object().Props["log"]
	in.SetGlobal("console", consoleObj)
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	}
	return 99
}

// sortStrings is a tiny insertion sort to avoid importing sort for one
// hot-path-free call site.
func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
