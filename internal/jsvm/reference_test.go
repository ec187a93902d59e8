package jsvm

import (
	"math"
	"slices"
)

// This file keeps the tree-walking evaluator that the compiler replaced,
// as a test-only reference: the same AST, the same step charges, the
// same scope quirks, computed by walking nodes and scanning scopes by
// name. TestStepBudgetsMatchReference, TestStepCasesMatchReferenceOnThePage
// and FuzzEval require the compiled code to agree with it on values,
// error text, Steps() and console output. The function values it
// creates are natives that run the walker, so array callbacks and DOM
// handlers re-enter it.

// runReference executes prog on the walker.
func (in *Interp) runReference(prog *Program) (Value, error) {
	globals := &Scope{global: in.globals}
	var last Value
	for _, st := range prog.Body {
		v, err := in.execStmt(st, globals)
		if err != nil {
			if rs, ok := err.(returnSignal); ok {
				return rs.v, nil
			}
			return Undefined(), err
		}
		last = v
	}
	return last, nil
}

type returnSignal struct{ v Value }

func (returnSignal) Error() string { return "jsvm: return outside function" }

func refControlFlow(err error) bool {
	if err == errBreak || err == errContinue {
		return true
	}
	_, isReturn := err.(returnSignal)
	return isReturn
}

// refFunc makes a script function: a native that binds the call frame
// (params, then this, then arguments, then the function's own name) and
// walks the body.
func (in *Interp) refFunc(def *FuncLit, env *Scope) Value {
	var fn Value
	fn = NewNative(func(this Value, args []Value) (Value, error) {
		if in.depth+def.callCost() > maxCallDepth {
			return Undefined(), rtErrf("maximum call stack size exceeded")
		}
		args = slices.Clone(args) // args belongs to the caller's stack
		frame := &Scope{vars: make([]binding, 0, len(def.Params)+3), parent: env}
		for i, p := range def.Params {
			v := Undefined()
			if i < len(args) {
				v = args[i]
			}
			frame.declare(p, v)
		}
		frame.declare("this", this)
		frame.declare("arguments", NewArray(args...))
		if def.Name != "" {
			frame.declare(def.Name, fn)
		}
		in.depth += def.callCost()
		defer func() { in.depth -= def.callCost() }()
		for _, st := range def.Body {
			if _, err := in.execStmt(st, frame); err != nil {
				if rs, ok := err.(returnSignal); ok {
					return rs.v, nil
				}
				return Undefined(), err
			}
		}
		return Undefined(), nil
	})
	return fn
}

// Scope is a lexical environment frame. The global scope keeps its
// bindings in a map; every other frame holds a handful of names, so its
// bindings sit in a slice that lookups scan linearly.
type Scope struct {
	vars   []binding
	global map[string]Value // non-nil only on the global scope
	parent *Scope
}

type binding struct {
	name string
	val  Value
}

// get returns the value of the nearest binding of name.
func (s *Scope) get(name string) (Value, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.global != nil {
			v, ok := sc.global[name]
			return v, ok
		}
		for i := range sc.vars {
			if sc.vars[i].name == name {
				return sc.vars[i].val, true
			}
		}
	}
	return Undefined(), false
}

// set rebinds the nearest binding of name, reporting whether one exists.
func (s *Scope) set(name string, v Value) bool {
	for sc := s; sc != nil; sc = sc.parent {
		if sc.global != nil {
			if _, ok := sc.global[name]; ok {
				sc.global[name] = v
				return true
			}
			return false
		}
		for i := range sc.vars {
			if sc.vars[i].name == name {
				sc.vars[i].val = v
				return true
			}
		}
	}
	return false
}

// declare binds name in s itself, overwriting a binding s already holds
// (duplicate parameters, a parameter named arguments, var re-declaration).
func (s *Scope) declare(name string, v Value) {
	if s.global != nil {
		s.global[name] = v
		return
	}
	for i := range s.vars {
		if s.vars[i].name == name {
			s.vars[i].val = v
			return
		}
	}
	s.vars = append(s.vars, binding{name, v})
}

// execStmt executes one statement; expression statements yield a value so
// Run can return the final one.
func (in *Interp) execStmt(st Stmt, sc *Scope) (Value, error) {
	if err := in.step(); err != nil {
		return Undefined(), err
	}
	switch s := st.(type) {
	case *VarDecl:
		for i, name := range s.Names {
			var v Value
			if s.Inits[i] != nil {
				var err error
				v, err = in.eval(s.Inits[i], sc)
				if err != nil {
					return Undefined(), err
				}
			}
			sc.declare(name, v)
		}
		return Undefined(), nil
	case *ExprStmt:
		return in.eval(s.X, sc)
	case *BlockStmt:
		inner := sc
		if !s.Flat {
			inner = &Scope{parent: sc}
		}
		var last Value
		for _, st2 := range s.Body {
			v, err := in.execStmt(st2, inner)
			if err != nil {
				return Undefined(), err
			}
			last = v
		}
		return last, nil
	case *IfStmt:
		cond, err := in.eval(s.Cond, sc)
		if err != nil {
			return Undefined(), err
		}
		if cond.Bool() {
			return in.execStmt(s.Then, sc)
		}
		if s.Else != nil {
			return in.execStmt(s.Else, sc)
		}
		return Undefined(), nil
	case *ForStmt:
		loop := &Scope{parent: sc}
		if s.Init != nil {
			if _, err := in.execStmt(s.Init, loop); err != nil {
				return Undefined(), err
			}
		}
		for {
			if s.Cond != nil {
				c, err := in.eval(s.Cond, loop)
				if err != nil {
					return Undefined(), err
				}
				if !c.Bool() {
					break
				}
			}
			if _, err := in.execStmt(s.Body, loop); err != nil {
				if err == errBreak {
					break
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if s.Post != nil {
				if _, err := in.eval(s.Post, loop); err != nil {
					return Undefined(), err
				}
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	case *WhileStmt:
		first := s.Do
		for {
			if !first {
				c, err := in.eval(s.Cond, sc)
				if err != nil {
					return Undefined(), err
				}
				if !c.Bool() {
					break
				}
			}
			first = false
			if _, err := in.execStmt(s.Body, sc); err != nil {
				if err == errBreak {
					break
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	case *ReturnStmt:
		var v Value
		if s.X != nil {
			var err error
			v, err = in.eval(s.X, sc)
			if err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), returnSignal{v}
	case *BreakStmt:
		return Undefined(), errBreak
	case *ContinueStmt:
		return Undefined(), errContinue
	case *ThrowStmt:
		v, err := in.eval(s.X, sc)
		if err != nil {
			return Undefined(), err
		}
		return Undefined(), thrownSignal{v}
	case *TryStmt:
		return in.execTry(s, sc)
	}
	return Undefined(), rtErrf("unknown statement %T", st)
}

// execTry implements try/catch/finally. Control-flow signals (break,
// continue, return) pass through uncaught; thrown values and runtime
// errors reach the catch clause as an Error-like object. The finally
// clause always runs, and its own failure or control flow wins.
func (in *Interp) execTry(s *TryStmt, sc *Scope) (Value, error) {
	runBody := func(body []Stmt, frame *Scope) error {
		for _, st := range body {
			if _, err := in.execStmt(st, frame); err != nil {
				return err
			}
		}
		return nil
	}
	err := runBody(s.Body, &Scope{parent: sc})
	if err != nil && s.HasCatch && !refControlFlow(err) {
		frame := &Scope{parent: sc}
		if s.CatchParam != "" {
			frame.declare(s.CatchParam, errorValue(err))
		}
		err = runBody(s.Catch, frame)
	}
	if s.HasFinally {
		if ferr := runBody(s.Finally, &Scope{parent: sc}); ferr != nil {
			return Undefined(), ferr
		}
	}
	return Undefined(), err
}

// eval evaluates an expression.
func (in *Interp) eval(e Expr, sc *Scope) (Value, error) {
	if err := in.step(); err != nil {
		return Undefined(), err
	}
	switch x := e.(type) {
	case *NumberLit:
		return Number(x.Value), nil
	case *StringLit:
		return String(x.Value), nil
	case *BoolLit:
		return Boolean(x.Value), nil
	case *NullLit:
		return Null(), nil
	case *UndefinedLit:
		return Undefined(), nil
	case *Ident:
		if v, ok := sc.get(x.Name); ok {
			return v, nil
		}
		return Undefined(), rtErrf("%s is not defined", x.Name)
	case *ArrayLit:
		elems := make([]Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := in.eval(el, sc)
			if err != nil {
				return Undefined(), err
			}
			elems[i] = v
		}
		return NewArray(elems...), nil
	case *ObjectLit:
		obj := NewObject()
		for i, k := range x.Keys {
			v, err := in.eval(x.Values[i], sc)
			if err != nil {
				return Undefined(), err
			}
			obj.Object().Props[k] = v
		}
		return obj, nil
	case *FuncLit:
		return in.refFunc(x, sc), nil
	case *Unary:
		return in.evalUnary(x, sc)
	case *Postfix:
		old, err := in.eval(x.X, sc)
		if err != nil {
			return Undefined(), err
		}
		delta := 1.0
		if x.Op == "--" {
			delta = -1
		}
		if err := in.assignTo(x.X, Number(old.Num()+delta), sc); err != nil {
			return Undefined(), err
		}
		return Number(old.Num()), nil
	case *Binary:
		return in.evalBinary(x, sc)
	case *Assign:
		return in.evalAssign(x, sc)
	case *Cond:
		t, err := in.eval(x.Test, sc)
		if err != nil {
			return Undefined(), err
		}
		if t.Bool() {
			return in.eval(x.Then, sc)
		}
		return in.eval(x.Else, sc)
	case *Member:
		obj, err := in.eval(x.X, sc)
		if err != nil {
			return Undefined(), err
		}
		return in.getProp(obj, x.Name)
	case *Index:
		obj, err := in.eval(x.X, sc)
		if err != nil {
			return Undefined(), err
		}
		idx, err := in.eval(x.I, sc)
		if err != nil {
			return Undefined(), err
		}
		return in.getIndex(obj, idx)
	case *Call:
		return in.evalCall(x, sc)
	case *NewExpr:
		return in.evalNew(x, sc)
	}
	return Undefined(), rtErrf("unknown expression %T", e)
}

func (in *Interp) evalUnary(x *Unary, sc *Scope) (Value, error) {
	if x.Op == "typeof" {
		// typeof tolerates undefined identifiers.
		if id, ok := x.X.(*Ident); ok {
			if _, found := sc.get(id.Name); !found {
				return String("undefined"), nil
			}
		}
		v, err := in.eval(x.X, sc)
		if err != nil {
			return Undefined(), err
		}
		return String(v.TypeOf()), nil
	}
	if x.Op == "++" || x.Op == "--" {
		old, err := in.eval(x.X, sc)
		if err != nil {
			return Undefined(), err
		}
		delta := 1.0
		if x.Op == "--" {
			delta = -1
		}
		nv := Number(old.Num() + delta)
		if err := in.assignTo(x.X, nv, sc); err != nil {
			return Undefined(), err
		}
		return nv, nil
	}
	v, err := in.eval(x.X, sc)
	if err != nil {
		return Undefined(), err
	}
	switch x.Op {
	case "!":
		return Boolean(!v.Bool()), nil
	case "-":
		return Number(-v.Num()), nil
	case "+":
		return Number(v.Num()), nil
	case "~":
		return Number(float64(^toInt32(v.Num()))), nil
	}
	return Undefined(), rtErrf("unknown unary operator %q", x.Op)
}

func (in *Interp) evalBinary(x *Binary, sc *Scope) (Value, error) {
	// Short-circuit operators evaluate lazily and yield operand values.
	switch x.Op {
	case "&&":
		l, err := in.eval(x.L, sc)
		if err != nil || !l.Bool() {
			return l, err
		}
		return in.eval(x.R, sc)
	case "||":
		l, err := in.eval(x.L, sc)
		if err != nil || l.Bool() {
			return l, err
		}
		return in.eval(x.R, sc)
	case ",":
		if _, err := in.eval(x.L, sc); err != nil {
			return Undefined(), err
		}
		return in.eval(x.R, sc)
	}
	l, err := in.eval(x.L, sc)
	if err != nil {
		return Undefined(), err
	}
	r, err := in.eval(x.R, sc)
	if err != nil {
		return Undefined(), err
	}
	return binop(x.Op, l, r)
}

// binop applies a non-short-circuit binary operator to evaluated operands.
func binop(op string, l, r Value) (Value, error) {
	switch op {
	case "+":
		if l.Kind() == KindString || r.Kind() == KindString ||
			(l.Kind() == KindObject && !l.IsCallable()) || (r.Kind() == KindObject && !r.IsCallable()) {
			return concatStrings(l.Str(), r.Str())
		}
		return Number(l.Num() + r.Num()), nil
	case "-":
		return Number(l.Num() - r.Num()), nil
	case "*":
		return Number(l.Num() * r.Num()), nil
	case "/":
		return Number(l.Num() / r.Num()), nil
	case "%":
		return Number(math.Mod(l.Num(), r.Num())), nil
	case "==":
		return Boolean(LooseEquals(l, r)), nil
	case "!=":
		return Boolean(!LooseEquals(l, r)), nil
	case "===":
		return Boolean(StrictEquals(l, r)), nil
	case "!==":
		return Boolean(!StrictEquals(l, r)), nil
	case "<", ">", "<=", ">=":
		if l.Kind() == KindString && r.Kind() == KindString {
			ls, rs := l.Str(), r.Str()
			switch op {
			case "<":
				return Boolean(ls < rs), nil
			case ">":
				return Boolean(ls > rs), nil
			case "<=":
				return Boolean(ls <= rs), nil
			default:
				return Boolean(ls >= rs), nil
			}
		}
		ln, rn := l.Num(), r.Num()
		switch op {
		case "<":
			return Boolean(ln < rn), nil
		case ">":
			return Boolean(ln > rn), nil
		case "<=":
			return Boolean(ln <= rn), nil
		default:
			return Boolean(ln >= rn), nil
		}
	case "&":
		return Number(float64(toInt32(l.Num()) & toInt32(r.Num()))), nil
	case "|":
		return Number(float64(toInt32(l.Num()) | toInt32(r.Num()))), nil
	case "^":
		return Number(float64(toInt32(l.Num()) ^ toInt32(r.Num()))), nil
	case "<<":
		return Number(float64(toInt32(l.Num()) << (uint32(toInt32(r.Num())) & 31))), nil
	case ">>":
		return Number(float64(toInt32(l.Num()) >> (uint32(toInt32(r.Num())) & 31))), nil
	case "in":
		if r.Kind() == KindObject && r.Object().Props != nil {
			_, ok := r.Object().Props[l.Str()]
			return Boolean(ok), nil
		}
		return Boolean(false), nil
	}
	return Undefined(), rtErrf("unknown operator %q", op)
}

func (in *Interp) evalAssign(x *Assign, sc *Scope) (Value, error) {
	val, err := in.eval(x.Value, sc)
	if err != nil {
		return Undefined(), err
	}
	if x.Op != "=" {
		cur, err := in.eval(x.Target, sc)
		if err != nil {
			return Undefined(), err
		}
		// Compound assignment charges one more step per operand, as if
		// both were evaluated again as literals. Steps() feeds the
		// deterministic metrics, so this charge is part of the format.
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if val, err = binop(x.Op[:len(x.Op)-1], cur, val); err != nil {
			return Undefined(), err
		}
	}
	if err := in.assignTo(x.Target, val, sc); err != nil {
		return Undefined(), err
	}
	return val, nil
}

func (in *Interp) assignTo(target Expr, val Value, sc *Scope) error {
	switch t := target.(type) {
	case *Ident:
		if !sc.set(t.Name, val) {
			// Implicit global, as in sloppy-mode JS.
			in.globals[t.Name] = val
		}
		return nil
	case *Member:
		obj, err := in.eval(t.X, sc)
		if err != nil {
			return err
		}
		return in.setProp(obj, t.Name, val)
	case *Index:
		obj, err := in.eval(t.X, sc)
		if err != nil {
			return err
		}
		idx, err := in.eval(t.I, sc)
		if err != nil {
			return err
		}
		return in.setIndex(obj, idx, val)
	}
	return rtErrf("invalid assignment target %T", target)
}

func (in *Interp) evalCall(x *Call, sc *Scope) (Value, error) {
	// Method call: bind `this`.
	var this Value
	var fn Value
	var err error
	switch callee := x.Fn.(type) {
	case *Member:
		this, err = in.eval(callee.X, sc)
		if err != nil {
			return Undefined(), err
		}
		fn, err = in.getProp(this, callee.Name)
		if err != nil {
			return Undefined(), err
		}
		if fn.IsUndefined() {
			return Undefined(), rtErrf("%s.%s is not a function", this.TypeOf(), callee.Name)
		}
	case *Index:
		this, err = in.eval(callee.X, sc)
		if err != nil {
			return Undefined(), err
		}
		idx, err := in.eval(callee.I, sc)
		if err != nil {
			return Undefined(), err
		}
		fn, err = in.getIndex(this, idx)
		if err != nil {
			return Undefined(), err
		}
	default:
		fn, err = in.eval(x.Fn, sc)
		if err != nil {
			return Undefined(), err
		}
	}
	// Arguments live on the interpreter's argument stack for the duration
	// of the call, so calling a native allocates nothing. An interpreted
	// function keeps its arguments (in `arguments` and in closures), so
	// it gets its own copy.
	base := len(in.argStack)
	var ret Value
	for _, a := range x.Args {
		var v Value
		if v, err = in.eval(a, sc); err != nil {
			break
		}
		in.argStack = append(in.argStack, v)
	}
	if err == nil {
		top := len(in.argStack)
		if fn.IsCallable() && fn.Object().Native != nil {
			ret, err = fn.Object().Native(this, in.argStack[base:top:top])
		} else {
			ret, err = in.CallValue(fn, this, slices.Clone(in.argStack[base:top]))
		}
	}
	clear(in.argStack[base:])
	in.argStack = in.argStack[:base]
	return ret, err
}

func (in *Interp) evalNew(x *NewExpr, sc *Scope) (Value, error) {
	fn, err := in.eval(x.Fn, sc)
	if err != nil {
		return Undefined(), err
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := in.eval(a, sc)
		if err != nil {
			return Undefined(), err
		}
		args[i] = v
	}
	if !fn.IsCallable() {
		return Undefined(), rtErrf("constructor is not callable")
	}
	this := NewObject()
	ret, err := in.CallValue(fn, this, args)
	if err != nil {
		return Undefined(), err
	}
	if ret.Kind() == KindObject {
		return ret, nil
	}
	return this, nil
}
