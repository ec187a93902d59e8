package jsvm

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates runtime value kinds.
type Kind uint8

// Value kinds.
const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// NativeFunc is a Go function callable from scripts. args belongs to the
// interpreter and is reused after the call returns, so a native that
// keeps the arguments must copy them.
type NativeFunc func(this Value, args []Value) (Value, error)

// HostObject lets a Go object participate as a script object: property
// reads (which may return bound native methods) and property writes.
type HostObject interface {
	// HostGet returns the property value and whether it exists.
	HostGet(name string) (Value, bool)
	// HostSet assigns a property, reporting whether the write was
	// accepted.
	HostSet(name string, v Value) bool
}

// Object is the heap form of arrays, plain objects, functions and host
// object wrappers.
type Object struct {
	Props   map[string]Value
	Elems   []Value
	IsArray bool
	Native  NativeFunc
	Host    HostObject
	// code and env make a script function: its compiled body and the
	// frame it closes over.
	code *funcCode
	env  *frame
}

// Value is a script value. The zero Value is undefined.
//
// A Value is four fields in 32 bytes, the most the Go compiler keeps in
// registers; a larger one goes through memory on every return of a
// compiled node. So a string's bytes and an object share the pointer
// word, and a boolean is carried as 1 or 0 in num. Only str and Object
// read the pointer, and each checks the kind first.
type Value struct {
	num  float64        // KindNumber: the number; KindBool: 1 or 0
	ptr  unsafe.Pointer // KindString: the bytes; KindObject: the *Object
	n    int            // KindString: the length
	kind Kind
}

// Undefined returns the undefined value.
func Undefined() Value { return Value{} }

// Null returns the null value.
func Null() Value { return Value{kind: KindNull} }

// Boolean wraps a Go bool.
func Boolean(b bool) Value {
	if b {
		return Value{kind: KindBool, num: 1}
	}
	return Value{kind: KindBool}
}

// Number wraps a float64.
func Number(f float64) Value { return Value{kind: KindNumber, num: f} }

// String wraps a Go string.
func String(s string) Value {
	if s == "" {
		return Value{kind: KindString}
	}
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), n: len(s)}
}

// objectValue wraps a heap object.
func objectValue(o *Object) Value { return Value{kind: KindObject, ptr: unsafe.Pointer(o)} }

// NewObject returns an empty plain object.
func NewObject() Value { return objectValue(&Object{Props: map[string]Value{}}) }

// NewArray returns an array value holding elems.
func NewArray(elems ...Value) Value { return objectValue(&Object{IsArray: true, Elems: elems}) }

// NewNative wraps a Go function as a callable value.
func NewNative(fn NativeFunc) Value { return objectValue(&Object{Native: fn}) }

// NewHost wraps a HostObject.
func NewHost(h HostObject) Value { return objectValue(&Object{Host: h}) }

// Kind returns the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsUndefined reports kind == undefined.
func (v Value) IsUndefined() bool { return v.kind == KindUndefined }

// IsNullish reports undefined or null.
func (v Value) IsNullish() bool { return v.kind == KindUndefined || v.kind == KindNull }

// IsCallable reports whether Call can invoke the value.
func (v Value) IsCallable() bool {
	o := v.Object()
	return o != nil && (o.code != nil || o.Native != nil)
}

// IsArray reports whether the value is an array object.
func (v Value) IsArray() bool {
	o := v.Object()
	return o != nil && o.IsArray
}

// Host returns the wrapped HostObject, or nil.
func (v Value) Host() HostObject {
	if o := v.Object(); o != nil {
		return o.Host
	}
	return nil
}

// Object returns the underlying heap object, or nil for primitives.
func (v Value) Object() *Object {
	if v.kind == KindObject {
		return (*Object)(v.ptr)
	}
	return nil
}

// str returns a string's contents, or "" for any other kind.
func (v Value) str() string {
	if v.kind == KindString {
		return unsafe.String((*byte)(v.ptr), v.n)
	}
	return ""
}

// Bool converts per JS truthiness.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool:
		return v.num != 0
	case KindNumber:
		return v.num != 0 && !math.IsNaN(v.num)
	case KindString:
		return v.n != 0
	case KindObject:
		return true
	}
	return false
}

// Num converts per JS ToNumber.
func (v Value) Num() float64 {
	if v.kind == KindNumber {
		return v.num
	}
	return v.toNumber()
}

func (v Value) toNumber() float64 {
	switch v.kind {
	case KindBool:
		return v.num
	case KindString:
		s := strings.TrimSpace(v.str())
		if s == "" {
			return 0
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
		return math.NaN()
	case KindNull:
		return 0
	}
	return math.NaN()
}

// Str converts per JS ToString.
func (v Value) Str() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindNumber:
		return formatNumber(v.num)
	case KindString:
		return v.str()
	case KindObject:
		o := v.Object()
		switch {
		case o.IsArray:
			s, _ := v.toStr() // "" past the caps
			return s
		case o.code != nil || o.Native != nil:
			return "function () { [code] }"
		case o.Host != nil:
			if s, ok := o.Host.HostGet("__string__"); ok {
				return s.Str()
			}
			return "[object Object]"
		default:
			return "[object Object]"
		}
	}
	return ""
}

// toStr is Str for the callers that can raise an error: converting an
// array fails once it passes the caps strWriter enforces.
func (v Value) toStr() (string, error) {
	if o := v.Object(); o != nil && o.IsArray {
		var w strWriter
		if err := w.join(o.Elems, ",", 0); err != nil {
			return "", err
		}
		return w.b.String(), nil
	}
	return v.Str(), nil
}

// strWriter builds the string form of an array or the JSON text of a
// value within the interpreter's caps. Output stops at maxStringLen
// bytes. Values visited count too, up to maxStringLen of them, so a
// small array that refers to one big sub-array many times, writing
// little, still ends; and arrays nest at most maxCallDepth deep, which
// ends a cyclic array.
type strWriter struct {
	b      strings.Builder
	visits int
}

func (w *strWriter) write(s string) error {
	if w.b.Len()+len(s) > maxStringLen {
		return errStringLen
	}
	w.b.WriteString(s)
	return nil
}

func (w *strWriter) visit(depth int) error {
	if depth > maxCallDepth {
		return errCallStack
	}
	if w.visits++; w.visits > maxStringLen {
		return errStringLen
	}
	return nil
}

// join writes elems converted per ToString and separated by sep, as
// Array.prototype.join does: null and undefined become "".
func (w *strWriter) join(elems []Value, sep string, depth int) error {
	for i, e := range elems {
		if err := w.visit(depth); err != nil {
			return err
		}
		if i > 0 {
			if err := w.write(sep); err != nil {
				return err
			}
		}
		if o := e.Object(); o != nil && o.IsArray {
			if err := w.join(o.Elems, ",", depth+1); err != nil {
				return err
			}
		} else if !e.IsNullish() {
			if err := w.write(e.Str()); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatNumber renders numbers the way JavaScript does: integers without
// a decimal point, NaN/Infinity by name.
func formatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindObject:
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
	return "undefined"
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindUndefined, KindNull:
		return true
	case KindBool, KindNumber:
		return a.num == b.num // NaN !== NaN falls out naturally
	case KindString:
		return a.str() == b.str()
	case KindObject:
		return a.ptr == b.ptr
	}
	return false
}

// LooseEquals implements == with the coercions scripts actually rely on.
func LooseEquals(a, b Value) bool {
	if a.kind == b.kind {
		return StrictEquals(a, b)
	}
	if a.IsNullish() && b.IsNullish() {
		return true
	}
	if a.IsNullish() != b.IsNullish() {
		return false
	}
	// Number/string/bool cross-kind: compare as numbers.
	return a.Num() == b.Num()
}

// JSONStringify implements JSON.stringify for the supported value kinds.
// Functions and host objects serialize as null (close enough to JS, which
// drops/nulls them depending on position). It fails when the text would
// pass the caps strWriter enforces.
func JSONStringify(v Value) (string, error) {
	var w strWriter
	if err := w.json(v, 0); err != nil {
		return "", err
	}
	return w.b.String(), nil
}

// json writes v's JSON text. Undefined writes "undefined", which an
// array element turns into null and an object property drops.
func (w *strWriter) json(v Value, depth int) error {
	if err := w.visit(depth); err != nil {
		return err
	}
	switch v.kind {
	case KindUndefined:
		return w.write("undefined")
	case KindNull:
		return w.write("null")
	case KindBool, KindNumber:
		return w.write(v.Str())
	case KindString:
		return w.write(strconv.Quote(v.str()))
	}
	o := v.Object()
	if v.IsCallable() || o.Host != nil {
		return w.write("null")
	}
	if o.IsArray {
		if err := w.write("["); err != nil {
			return err
		}
		for i, e := range o.Elems {
			if i > 0 {
				if err := w.write(","); err != nil {
					return err
				}
			}
			if e.kind == KindUndefined {
				e = Null()
			}
			if err := w.json(e, depth+1); err != nil {
				return err
			}
		}
		return w.write("]")
	}
	keys := make([]string, 0, len(o.Props))
	for k, pv := range o.Props {
		if pv.kind != KindUndefined {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if err := w.write("{"); err != nil {
		return err
	}
	for i, k := range keys {
		sep := ","
		if i == 0 {
			sep = ""
		}
		if err := w.write(sep + strconv.Quote(k) + ":"); err != nil {
			return err
		}
		if err := w.json(o.Props[k], depth+1); err != nil {
			return err
		}
	}
	return w.write("}")
}
