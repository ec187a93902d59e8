package jsvm

import (
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// Method tables: one per receiver kind whose methods are natives.
const (
	stringMethods = iota
	arrayMethods
	numberMethods
	objectMethods
	numMethodTables
)

// methodNames lists each table's methods; a method's index here is its
// slot in the table.
var methodNames = [numMethodTables][]string{
	stringMethods: {"charCodeAt", "charAt", "indexOf", "lastIndexOf", "includes", "startsWith", "endsWith",
		"slice", "substring", "toUpperCase", "toLowerCase", "trim", "split", "replace", "repeat", "concat", "toString"},
	arrayMethods: {"push", "pop", "join", "indexOf", "includes", "slice", "concat", "reverse",
		"forEach", "map", "filter", "reduce"},
	numberMethods: {"toFixed", "toString"},
	objectMethods: {"hasOwnProperty"},
}

// methodID returns name's slot in a method table, or -1.
func methodID(table int, name string) int {
	return slices.Index(methodNames[table], name)
}

// propKey is a property name with its slot in every method table,
// resolved when the program is compiled.
type propKey struct {
	name string
	ids  [numMethodTables]int
}

func newPropKey(name string) propKey {
	k := propKey{name: name}
	for t := range k.ids {
		k.ids[t] = methodID(t, name)
	}
	return k
}

// methodAt returns the native serving method id of the given table, or
// undefined for id -1. Each native is built on first read and then
// shared by every later read in this interpreter, so a method read
// allocates nothing. The tables are per-Interp, never package-global: a
// script can write properties onto a method object ("".charCodeAt.x = 1),
// and that must not leak across pages or race between crawler workers.
func (in *Interp) methodAt(table, id int) Value {
	if id < 0 {
		return Undefined()
	}
	t := in.methods[table]
	if t == nil {
		t = make([]Value, len(methodNames[table]))
		in.methods[table] = t
	}
	if t[id].kind == KindUndefined {
		name := methodNames[table][id]
		var fn NativeFunc
		switch table {
		case stringMethods:
			fn = stringMethod(name)
		case arrayMethods:
			fn = in.arrayMethod(name)
		case numberMethods:
			fn = numberMethod(name)
		case objectMethods:
			fn = objectMethod(name)
		}
		t[id] = NewNative(fn)
	}
	return t[id]
}

// getProp implements obj.name for every value kind, including primitive
// string/array methods and host-object dispatch.
func (in *Interp) getProp(v Value, name string) (Value, error) {
	return in.member(v, name, nil)
}

// member is getProp given name's method-table slots, for a caller that
// resolved them already (ids may be nil).
func (in *Interp) member(v Value, name string, ids *[numMethodTables]int) (Value, error) {
	method := func(table int) Value {
		if ids != nil {
			return in.methodAt(table, ids[table])
		}
		return in.methodAt(table, methodID(table, name))
	}
	switch v.kind {
	case KindString:
		if name == "length" {
			return Number(float64(v.n)), nil
		}
		return method(stringMethods), nil
	case KindObject:
		o := v.Object()
		switch {
		case o.Host != nil:
			if pv, ok := o.Host.HostGet(name); ok {
				return pv, nil
			}
			return Undefined(), nil
		case o.IsArray:
			if name == "length" {
				return Number(float64(len(o.Elems))), nil
			}
			return method(arrayMethods), nil
		default:
			if o.Props != nil {
				if pv, ok := o.Props[name]; ok {
					return pv, nil
				}
			}
			return method(objectMethods), nil
		}
	case KindNumber:
		return method(numberMethods), nil
	case KindUndefined, KindNull:
		return Undefined(), rtErrf("cannot read property %q of %s", name, v.Str())
	}
	return Undefined(), nil
}

// objectMethod serves the methods every plain object inherits.
func objectMethod(name string) NativeFunc {
	if name != "hasOwnProperty" {
		return nil
	}
	return func(this Value, args []Value) (Value, error) {
		if len(args) == 0 || this.Object() == nil || this.Object().Props == nil {
			return Boolean(false), nil
		}
		_, ok := this.Object().Props[args[0].Str()]
		return Boolean(ok), nil
	}
}

// numberMethod serves number methods.
func numberMethod(name string) NativeFunc {
	switch name {
	case "toFixed":
		return func(this Value, args []Value) (Value, error) {
			digits := 0
			if len(args) > 0 {
				digits = int(args[0].Num())
			}
			if digits < 0 || digits > 20 {
				digits = 0
			}
			mult := math.Pow(10, float64(digits))
			r := math.Floor(this.Num()*mult+0.5) / mult
			s := formatNumber(r)
			if digits > 0 && !strings.Contains(s, ".") {
				s += "." + strings.Repeat("0", digits)
			}
			return String(s), nil
		}
	case "toString":
		return func(this Value, args []Value) (Value, error) {
			return String(this.Str()), nil
		}
	}
	return nil
}

// getIndex implements obj[i].
func (in *Interp) getIndex(v Value, idx Value) (Value, error) {
	if v.kind == KindString && idx.Kind() == KindNumber {
		i := int(idx.Num())
		if s := v.str(); i >= 0 && i < len(s) {
			return String(s[i : i+1]), nil
		}
		return Undefined(), nil
	}
	if o := v.Object(); o != nil && o.IsArray && idx.Kind() == KindNumber {
		i := int(idx.Num())
		if i >= 0 && i < len(o.Elems) {
			return o.Elems[i], nil
		}
		return Undefined(), nil
	}
	return in.getProp(v, idx.Str())
}

// setProp implements obj.name = val.
func (in *Interp) setProp(v Value, name string, val Value) error {
	if v.kind != KindObject {
		return rtErrf("cannot set property %q on %s", name, v.TypeOf())
	}
	o := v.Object()
	if o.Host != nil {
		o.Host.HostSet(name, val) // hosts may silently reject, like DOM
		return nil
	}
	if o.IsArray && name == "length" {
		n := int(val.Num())
		if n < 0 {
			n = 0
		}
		if n > maxArrayLen {
			return errArrayLen
		}
		for len(o.Elems) < n {
			o.Elems = append(o.Elems, Undefined())
		}
		o.Elems = o.Elems[:n]
		return nil
	}
	if o.Props == nil {
		o.Props = map[string]Value{}
	}
	o.Props[name] = val
	return nil
}

// setIndex implements obj[i] = val.
func (in *Interp) setIndex(v Value, idx Value, val Value) error {
	if o := v.Object(); o != nil && o.IsArray && idx.Kind() == KindNumber {
		i := int(idx.Num())
		if i < 0 {
			return rtErrf("negative array index")
		}
		if i >= maxArrayLen {
			return errArrayLen
		}
		for len(o.Elems) <= i {
			o.Elems = append(o.Elems, Undefined())
		}
		o.Elems[i] = val
		return nil
	}
	return in.setProp(v, idx.Str(), val)
}

// stringMethod serves string methods.
func stringMethod(name string) NativeFunc {
	switch name {
	case "charCodeAt":
		return func(this Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(args[0].Num())
			}
			str := this.Str()
			if i < 0 || i >= len(str) {
				return Number(math.NaN()), nil
			}
			return Number(float64(str[i])), nil
		}
	case "charAt":
		return func(this Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(args[0].Num())
			}
			str := this.Str()
			if i < 0 || i >= len(str) {
				return String(""), nil
			}
			return String(str[i : i+1]), nil
		}
	case "indexOf":
		return func(this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.Index(this.Str(), args[0].Str()))), nil
		}
	case "lastIndexOf":
		return func(this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.LastIndex(this.Str(), args[0].Str()))), nil
		}
	case "includes":
		return func(this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Boolean(false), nil
			}
			return Boolean(strings.Contains(this.Str(), args[0].Str())), nil
		}
	case "startsWith":
		return func(this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Boolean(false), nil
			}
			return Boolean(strings.HasPrefix(this.Str(), args[0].Str())), nil
		}
	case "endsWith":
		return func(this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Boolean(false), nil
			}
			return Boolean(strings.HasSuffix(this.Str(), args[0].Str())), nil
		}
	case "slice", "substring":
		return func(this Value, args []Value) (Value, error) {
			str := this.Str()
			start, end := 0, len(str)
			if len(args) > 0 {
				start = normIndex(int(args[0].Num()), len(str), name == "slice")
			}
			if len(args) > 1 && !args[1].IsUndefined() {
				end = normIndex(int(args[1].Num()), len(str), name == "slice")
			}
			if start > end {
				if name == "substring" {
					start, end = end, start
				} else {
					return String(""), nil
				}
			}
			return String(str[start:end]), nil
		}
	case "toUpperCase":
		return func(this Value, args []Value) (Value, error) {
			return String(strings.ToUpper(this.Str())), nil
		}
	case "toLowerCase":
		return func(this Value, args []Value) (Value, error) {
			return String(strings.ToLower(this.Str())), nil
		}
	case "trim":
		return func(this Value, args []Value) (Value, error) {
			return String(strings.TrimSpace(this.Str())), nil
		}
	case "split":
		return func(this Value, args []Value) (Value, error) {
			str := this.Str()
			if len(args) == 0 {
				return NewArray(String(str)), nil
			}
			sep := args[0].Str()
			n := strings.Count(str, sep) + 1
			if sep == "" {
				n = utf8.RuneCountInString(str)
			}
			if n > maxArrayLen {
				return Undefined(), errArrayLen
			}
			parts := strings.Split(str, sep)
			out := make([]Value, len(parts))
			for i, p := range parts {
				out[i] = String(p)
			}
			return NewArray(out...), nil
		}
	case "replace":
		return func(this Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return this, nil
			}
			str, old, repl := this.Str(), args[0].Str(), args[1].Str()
			if strings.Contains(str, old) && len(str)-len(old)+len(repl) > maxStringLen {
				return Undefined(), errStringLen
			}
			return String(strings.Replace(str, old, repl, 1)), nil
		}
	case "repeat":
		return func(this Value, args []Value) (Value, error) {
			n := 0
			if len(args) > 0 {
				n = int(args[0].Num())
			}
			if n < 0 || n > 1<<20 {
				return Undefined(), rtErrf("invalid repeat count")
			}
			str := this.Str()
			if len(str)*n > maxStringLen {
				return Undefined(), errStringLen
			}
			return String(strings.Repeat(str, n)), nil
		}
	case "concat":
		return func(this Value, args []Value) (Value, error) {
			out := String(this.Str())
			for _, a := range args {
				s, err := a.toStr()
				if err != nil {
					return Undefined(), err
				}
				if out, err = concatStrings(out.str(), s); err != nil {
					return Undefined(), err
				}
			}
			return out, nil
		}
	case "toString":
		return func(this Value, args []Value) (Value, error) {
			return String(this.Str()), nil
		}
	}
	return nil
}

func normIndex(i, n int, allowNegative bool) int {
	if i < 0 {
		if allowNegative {
			i += n
		}
		if i < 0 {
			i = 0
		}
	}
	if i > n {
		i = n
	}
	return i
}

// arrayMethod serves array methods; forEach, map, filter and reduce
// re-enter the interpreter to run their callbacks.
func (in *Interp) arrayMethod(name string) NativeFunc {
	switch name {
	case "push":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			if to == nil {
				return Undefined(), rtErrf("push on non-array")
			}
			if len(to.Elems)+len(args) > maxArrayLen {
				return Undefined(), errArrayLen
			}
			to.Elems = append(to.Elems, args...)
			return Number(float64(len(to.Elems))), nil
		}
	case "pop":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			if to == nil || len(to.Elems) == 0 {
				return Undefined(), nil
			}
			last := to.Elems[len(to.Elems)-1]
			to.Elems = to.Elems[:len(to.Elems)-1]
			return last, nil
		}
	case "join":
		return func(this Value, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = args[0].Str()
			}
			var w strWriter
			if err := w.join(this.Object().Elems, sep, 0); err != nil {
				return Undefined(), err
			}
			return String(w.b.String()), nil
		}
	case "indexOf":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			if len(args) > 0 {
				for i, e := range to.Elems {
					if StrictEquals(e, args[0]) {
						return Number(float64(i)), nil
					}
				}
			}
			return Number(-1), nil
		}
	case "includes":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			if len(args) > 0 {
				for _, e := range to.Elems {
					if StrictEquals(e, args[0]) {
						return Boolean(true), nil
					}
				}
			}
			return Boolean(false), nil
		}
	case "slice":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			start, end := 0, len(to.Elems)
			if len(args) > 0 {
				start = normIndex(int(args[0].Num()), len(to.Elems), true)
			}
			if len(args) > 1 && !args[1].IsUndefined() {
				end = normIndex(int(args[1].Num()), len(to.Elems), true)
			}
			if start > end {
				start = end
			}
			cp := make([]Value, end-start)
			copy(cp, to.Elems[start:end])
			return NewArray(cp...), nil
		}
	case "concat":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			n := len(to.Elems)
			for _, a := range args {
				if a.IsArray() {
					n += len(a.Object().Elems)
				} else {
					n++
				}
			}
			if n > maxArrayLen {
				return Undefined(), errArrayLen
			}
			out := make([]Value, len(to.Elems), n)
			copy(out, to.Elems)
			for _, a := range args {
				if a.IsArray() {
					out = append(out, a.Object().Elems...)
				} else {
					out = append(out, a)
				}
			}
			return NewArray(out...), nil
		}
	case "reverse":
		return func(this Value, args []Value) (Value, error) {
			to := this.Object()
			for i, j := 0, len(to.Elems)-1; i < j; i, j = i+1, j-1 {
				to.Elems[i], to.Elems[j] = to.Elems[j], to.Elems[i]
			}
			return this, nil
		}
	}
	return in.interpArrayMethod(name)
}
