package jsvm

import (
	"fmt"
	"slices"
)

// Parse compiles every program into Go closures, one per statement and
// expression node. Each closure charges the step its node costs, then
// does exactly the work and side effects of that node, in source order;
// operators are picked and identifiers resolved here, once, instead of on
// every evaluation. Compiled code holds no run state: one *Program may
// run on many Interps at once, so everything a run changes lives in the
// Interp and in its frames.

// stmtFn runs a compiled statement in frame f and yields its completion
// value (Run returns the last top-level one).
type stmtFn func(in *Interp, f *frame) (Value, error)

// exprFn evaluates a compiled expression in frame f.
type exprFn func(in *Interp, f *frame) (Value, error)

// storeFn assigns v to a compiled assignment target.
type storeFn func(in *Interp, f *frame, v Value) error

// frame holds the bindings of one runtime scope: a call, a for loop, a
// non-flat block, or a try, catch or finally clause. The compiler gives
// every name a scope may bind a slot, and a slot stays unbound until its
// declaration runs. The global scope is Interp.globals, not a frame; a
// nil *frame stands for it.
type frame struct {
	slots  []Value
	parent *frame
}

// kindUnbound marks a slot whose declaration has not run. No Value of
// this kind ever leaves a frame.
const kindUnbound Kind = 255

func newFrame(parent *frame, n int) *frame {
	f := &frame{slots: make([]Value, n), parent: parent}
	for i := range f.slots {
		f.slots[i].kind = kindUnbound
	}
	return f
}

// funcCode is a compiled function literal.
type funcCode struct {
	nslots   int
	params   []int // slot of each parameter, in order
	thisSlot int
	argsSlot int // -1 when nothing reads arguments
	selfSlot int // -1 for an anonymous function
	body     []stmtFn
	// memo is the call-memo key prefix of a pure function: its source
	// text, length-prefixed. It is "" for every other function, and
	// those never consult the memo (memo.go).
	memo string
	cost int // FuncLit.callCost
}

// scope is the compile-time view of a frame: the names it may bind.
// Scopes without names (a for loop or try clause that declares nothing)
// get no frame at run time, and depths skip them.
type scope struct {
	parent *scope
	names  []string
	// proven[i] records that names[i] is bound wherever code compiled
	// from here on runs: a parameter, this, arguments, the function's
	// own name, or a var that already ran unconditionally in this frame.
	proven []bool
	// argsSlot is the arguments slot of a function scope (-1 otherwise);
	// usesArgs is set once any reference resolves to it.
	argsSlot int
	usesArgs bool
	// fn is the scope of the function this scope's code runs in: itself
	// for a function scope, nil at top level.
	fn *scope
	// On a function scope: hidden holds the slots of this, arguments
	// and the function's own name, and impure records that its body
	// may read or write state outside its own frames (see taint).
	hidden []int
	impure bool
}

func newScope(parent *scope, names []string) *scope {
	s := &scope{parent: parent, names: names, proven: make([]bool, len(names)), argsSlot: -1}
	if parent != nil {
		s.fn = parent.fn
	}
	return s
}

// taint marks the function whose code is being compiled in s impure.
//
// A function is pure, and its calls may be memoised, when everything
// its body evaluates depends only on its arguments. The compiler calls
// taint for every construct outside a whitelist: literals, array and
// object literals, the unary, binary, logical, conditional and comma
// operators, assignment, ++ and -- to names proven bound in the
// function's own frames (resolve), x.length, method calls x.m(...), and
// the var, expression, block, if, for, while, return, break and
// continue statements. So a pure body never reads a global, an outer
// frame, this, arguments or its own name, never creates a function,
// and never holds a function value, so it cannot reach a host object
// or another script function's state. Nor can it read a property of a
// method object, which a script may have written: a member read other
// than length is allowed only as a call's callee.
func (s *scope) taint() {
	if s != nil && s.fn != nil {
		s.fn.impure = true
	}
}

// slot returns name's slot, adding one if the scope has none yet.
func (s *scope) slot(name string) int {
	if i := slices.Index(s.names, name); i >= 0 {
		return i
	}
	s.names = append(s.names, name)
	s.proven = append(s.proven, false)
	return len(s.names) - 1
}

// declared appends the names that executing st may bind in the frame it
// runs in: a var/let/const or function declaration, directly or as the
// unbraced body of an if or while. Nested blocks, for loops and try
// clauses open frames of their own.
func declared(st Stmt, names []string) []string {
	switch s := st.(type) {
	case *VarDecl:
		for _, n := range s.Names {
			if !slices.Contains(names, n) {
				names = append(names, n)
			}
		}
	case *IfStmt:
		names = declared(s.Then, names)
		if s.Else != nil {
			names = declared(s.Else, names)
		}
	case *WhileStmt:
		names = declared(s.Body, names)
	}
	return names
}

func declaredIn(body []Stmt) []string {
	var names []string
	for _, st := range body {
		names = declared(st, names)
	}
	return names
}

// slotRef is a slot depth frames up the runtime chain.
type slotRef struct{ depth, slot int }

// ref is a resolved identifier: the slots that may bind it, innermost
// first, then the global map. When proven is set, the last candidate is
// always bound and the global map is never consulted.
type ref struct {
	name   string
	cands  []slotRef
	proven bool
}

// resolve compiles a reference to name in s. Unless the name is proven
// bound in a frame of the function being compiled, other than its
// this, arguments or own-name slot, it taints that function.
func (s *scope) resolve(name string) ref {
	r := ref{name: name}
	depth := 0
	local := false
	for sc := s; sc != nil; sc = sc.parent {
		if len(sc.names) == 0 {
			continue
		}
		if i := slices.Index(sc.names, name); i >= 0 {
			r.cands = append(r.cands, slotRef{depth, i})
			if i == sc.argsSlot {
				sc.usesArgs = true
			}
			if sc.proven[i] {
				r.proven = true
				local = sc.fn == s.fn && !slices.Contains(sc.hidden, i)
				break
			}
		}
		depth++
	}
	if !local {
		s.taint()
	}
	return r
}

// load returns the first bound candidate, else the global binding.
func (r *ref) load(in *Interp, f *frame) (Value, bool) {
	d := 0
	for _, c := range r.cands {
		for ; d < c.depth; d++ {
			f = f.parent
		}
		if v := f.slots[c.slot]; v.kind != kindUnbound {
			return v, true
		}
	}
	v, ok := in.globals[r.name]
	return v, ok
}

// store rebinds the first bound candidate; with none, it writes the
// global map (an implicit global, as in sloppy-mode JS).
func (r *ref) store(in *Interp, f *frame, v Value) {
	d := 0
	for _, c := range r.cands {
		for ; d < c.depth; d++ {
			f = f.parent
		}
		if f.slots[c.slot].kind != kindUnbound {
			f.slots[c.slot] = v
			return
		}
	}
	in.globals[r.name] = v
}

// compileList compiles the statement list that makes up a frame's body.
// A var among them that runs to completion binds its names for every
// later statement of the same frame instance, so each one proves its
// names for the code compiled after it.
func compileList(body []Stmt, s *scope) []stmtFn {
	out := make([]stmtFn, len(body))
	for i, st := range body {
		out[i] = compileStmt(st, s)
		if d, ok := st.(*VarDecl); ok && s != nil {
			for _, n := range d.Names {
				s.proven[s.slot(n)] = true
			}
		}
	}
	return out
}

// runList runs compiled statements in order and yields the last value.
func runList(in *Interp, f *frame, list []stmtFn) (Value, error) {
	var last Value
	for _, st := range list {
		v, err := st(in, f)
		if err != nil {
			return Undefined(), err
		}
		last = v
	}
	return last, nil
}

// enter returns the frame a scope of n slots runs in: a fresh one, or f
// itself when the scope binds nothing.
func enter(f *frame, n int) *frame {
	if n == 0 {
		return f
	}
	return newFrame(f, n)
}

func compileStmt(st Stmt, s *scope) stmtFn {
	switch x := st.(type) {
	case *VarDecl:
		return compileVar(x, s)
	case *ExprStmt:
		e := compileExpr(x.X, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			return e(in, f)
		}
	case *BlockStmt:
		if x.Flat {
			list := make([]stmtFn, len(x.Body))
			for i, b := range x.Body {
				list[i] = compileStmt(b, s)
			}
			return func(in *Interp, f *frame) (Value, error) {
				if err := in.step(); err != nil {
					return Undefined(), err
				}
				return runList(in, f, list)
			}
		}
		inner := newScope(s, declaredIn(x.Body))
		list := compileList(x.Body, inner)
		n := len(inner.names)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			return runList(in, newFrame(f, n), list)
		}
	case *IfStmt:
		cond, then := compileExpr(x.Cond, s), compileStmt(x.Then, s)
		var els stmtFn
		if x.Else != nil {
			els = compileStmt(x.Else, s)
		}
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			c, err := cond(in, f)
			if err != nil {
				return Undefined(), err
			}
			if c.Bool() {
				return then(in, f)
			}
			if els != nil {
				return els(in, f)
			}
			return Undefined(), nil
		}
	case *ForStmt:
		return compileFor(x, s)
	case *WhileStmt:
		return compileWhile(x, s)
	case *ReturnStmt:
		var e exprFn
		if x.X != nil {
			e = compileExpr(x.X, s)
		}
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			var v Value
			if e != nil {
				var err error
				if v, err = e(in, f); err != nil {
					return Undefined(), err
				}
			}
			in.ret = v
			return Undefined(), errReturn
		}
	case *BreakStmt:
		return signal(errBreak)
	case *ContinueStmt:
		return signal(errContinue)
	case *ThrowStmt:
		s.taint()
		e := compileExpr(x.X, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			v, err := e(in, f)
			if err != nil {
				return Undefined(), err
			}
			return Undefined(), thrownSignal{v}
		}
	case *TryStmt:
		s.taint()
		return compileTry(x, s)
	}
	s.taint()
	msg := fmt.Sprintf("unknown statement %T", st)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		return Undefined(), &RuntimeError{Msg: msg}
	}
}

func signal(sig error) stmtFn {
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		return Undefined(), sig
	}
}

// compileVar binds each name in the frame the declaration runs in, or in
// the global map at top level.
func compileVar(x *VarDecl, s *scope) stmtFn {
	inits := make([]exprFn, len(x.Names))
	for i, init := range x.Inits {
		if init != nil {
			inits[i] = compileExpr(init, s)
		}
	}
	bind := func(in *Interp, f *frame, i int, v Value) { in.globals[x.Names[i]] = v }
	if s != nil {
		slots := make([]int, len(x.Names))
		for i, n := range x.Names {
			slots[i] = s.slot(n)
		}
		bind = func(in *Interp, f *frame, i int, v Value) { f.slots[slots[i]] = v }
	}
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		for i, init := range inits {
			var v Value
			if init != nil {
				var err error
				if v, err = init(in, f); err != nil {
					return Undefined(), err
				}
			}
			bind(in, f, i, v)
		}
		return Undefined(), nil
	}
}

// compileFor gives the loop one frame for all its iterations, holding
// what the initializer and an unbraced body declare.
func compileFor(x *ForStmt, s *scope) stmtFn {
	var names []string
	if x.Init != nil {
		names = declared(x.Init, names)
	}
	loop := newScope(s, declared(x.Body, names))
	var init stmtFn
	if x.Init != nil {
		init = compileList([]Stmt{x.Init}, loop)[0]
	}
	var cond, post exprFn
	if x.Cond != nil {
		cond = compileExpr(x.Cond, loop)
	}
	body := compileStmt(x.Body, loop)
	if x.Post != nil {
		post = compileExpr(x.Post, loop)
	}
	n := len(loop.names)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		lf := enter(f, n)
		if init != nil {
			if _, err := init(in, lf); err != nil {
				return Undefined(), err
			}
		}
		for {
			if cond != nil {
				c, err := cond(in, lf)
				if err != nil {
					return Undefined(), err
				}
				if !c.Bool() {
					break
				}
			}
			if _, err := body(in, lf); err != nil {
				if err == errBreak {
					break
				}
				if err != errContinue {
					return Undefined(), err
				}
			}
			if post != nil {
				if _, err := post(in, lf); err != nil {
					return Undefined(), err
				}
			}
			if err := in.step(); err != nil {
				return Undefined(), err
			}
		}
		return Undefined(), nil
	}
}

func compileWhile(x *WhileStmt, s *scope) stmtFn {
	cond, body := compileExpr(x.Cond, s), compileStmt(x.Body, s)
	do := x.Do
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		for first := do; ; first = false {
			if !first {
				c, err := cond(in, f)
				if err != nil {
					return Undefined(), err
				}
				if !c.Bool() {
					break
				}
			}
			if _, err := body(in, f); err != nil {
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
	}
}

// compileTry gives each clause a frame of its own. Control-flow signals
// (break, continue, return) pass through uncaught; thrown values and
// runtime errors reach the catch clause as an Error-like object. The
// finally clause always runs, and its own failure or control flow wins.
func compileTry(x *TryStmt, s *scope) stmtFn {
	bodyScope := newScope(s, declaredIn(x.Body))
	body := compileList(x.Body, bodyScope)
	nb := len(bodyScope.names)
	var catch []stmtFn
	nc, param := 0, -1
	if x.HasCatch {
		var names []string
		if x.CatchParam != "" {
			names = []string{x.CatchParam}
		}
		for _, st := range x.Catch {
			names = declared(st, names)
		}
		cs := newScope(s, names)
		if x.CatchParam != "" {
			param = 0
			cs.proven[0] = true
		}
		catch = compileList(x.Catch, cs)
		nc = len(cs.names)
	}
	var fin []stmtFn
	nf := 0
	if x.HasFinally {
		fs := newScope(s, declaredIn(x.Finally))
		fin = compileList(x.Finally, fs)
		nf = len(fs.names)
	}
	hasCatch, hasFinally := x.HasCatch, x.HasFinally
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		_, err := runList(in, enter(f, nb), body)
		if err != nil && hasCatch && !isControlFlow(err) {
			cf := enter(f, nc)
			if param >= 0 {
				cf.slots[param] = errorValue(err)
			}
			_, err = runList(in, cf, catch)
		}
		if hasFinally {
			// A return pending through this clause keeps its value even
			// when the clause calls functions that return.
			pending := in.ret
			if _, ferr := runList(in, enter(f, nf), fin); ferr != nil {
				return Undefined(), ferr
			}
			in.ret = pending
		}
		return Undefined(), err
	}
}

// compileFunc compiles a function literal against the scope it closes
// over. A call binds the parameters, then this, then arguments, then the
// function's own name, each overwriting an earlier binding of the same
// name.
func compileFunc(x *FuncLit, outer *scope) *funcCode {
	s := newScope(outer, nil)
	s.fn = s
	code := &funcCode{params: make([]int, len(x.Params)), selfSlot: -1, cost: x.callCost()}
	for i, p := range x.Params {
		code.params[i] = s.slot(p)
	}
	code.thisSlot = s.slot("this")
	s.argsSlot = s.slot("arguments")
	s.hidden = []int{code.thisSlot, s.argsSlot}
	if x.Name != "" {
		code.selfSlot = s.slot(x.Name)
		s.hidden = append(s.hidden, code.selfSlot)
	}
	for i := range s.proven {
		s.proven[i] = true
	}
	for _, n := range declaredIn(x.Body) {
		s.slot(n)
	}
	code.body = compileList(x.Body, s)
	code.nslots = len(s.names)
	code.argsSlot = -1
	if s.usesArgs {
		code.argsSlot = s.argsSlot
	}
	if !s.impure && x.src != "" {
		code.memo = memoPrefix(x.src)
	}
	return code
}

func constant(v Value) exprFn {
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		return v, nil
	}
}

func compileExpr(e Expr, s *scope) exprFn {
	switch x := e.(type) {
	case *NumberLit:
		return constant(Number(x.Value))
	case *StringLit:
		return constant(String(x.Value))
	case *BoolLit:
		return constant(Boolean(x.Value))
	case *NullLit:
		return constant(Null())
	case *UndefinedLit:
		return constant(Undefined())
	case *Ident:
		return compileIdent(x.Name, s)
	case *ArrayLit:
		elems := compileExprs(x.Elems, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			out := make([]Value, len(elems))
			for i, el := range elems {
				v, err := el(in, f)
				if err != nil {
					return Undefined(), err
				}
				out[i] = v
			}
			return NewArray(out...), nil
		}
	case *ObjectLit:
		keys, vals := x.Keys, compileExprs(x.Values, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			obj := NewObject()
			for i, k := range keys {
				v, err := vals[i](in, f)
				if err != nil {
					return Undefined(), err
				}
				obj.Object().Props[k] = v
			}
			return obj, nil
		}
	case *FuncLit:
		s.taint()
		code := compileFunc(x, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			return objectValue(&Object{code: code, env: f}), nil
		}
	case *Unary:
		return compileUnary(x, s)
	case *Postfix:
		return compileUpdate(x.Op, x.X, s, true)
	case *Binary:
		return compileBinary(x, s)
	case *Assign:
		return compileAssign(x, s)
	case *Cond:
		test, then, els := compileExpr(x.Test, s), compileExpr(x.Then, s), compileExpr(x.Else, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			t, err := test(in, f)
			if err != nil {
				return Undefined(), err
			}
			if t.Bool() {
				return then(in, f)
			}
			return els(in, f)
		}
	case *Member:
		if x.Name != "length" {
			s.taint()
		}
		obj, key := compileExpr(x.X, s), newPropKey(x.Name)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			o, err := obj(in, f)
			if err != nil {
				return Undefined(), err
			}
			return in.member(o, key.name, &key.ids)
		}
	case *Index:
		s.taint()
		obj, idx := compileExpr(x.X, s), compileExpr(x.I, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			o, err := obj(in, f)
			if err != nil {
				return Undefined(), err
			}
			i, err := idx(in, f)
			if err != nil {
				return Undefined(), err
			}
			return in.getIndex(o, i)
		}
	case *Call:
		return compileCall(x, s)
	case *NewExpr:
		s.taint()
		return compileNew(x, s)
	}
	s.taint()
	msg := fmt.Sprintf("unknown expression %T", e)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		return Undefined(), &RuntimeError{Msg: msg}
	}
}

func compileExprs(es []Expr, s *scope) []exprFn {
	out := make([]exprFn, len(es))
	for i, e := range es {
		out[i] = compileExpr(e, s)
	}
	return out
}

// only returns the one candidate of a name proven bound there, so its
// reads and writes need no bound check and no global fallback.
func (r *ref) only() (slotRef, bool) {
	if r.proven && len(r.cands) == 1 {
		return r.cands[0], true
	}
	return slotRef{}, false
}

func (c slotRef) frame(f *frame) *frame {
	for d := c.depth; d > 0; d-- {
		f = f.parent
	}
	return f
}

func compileIdent(name string, s *scope) exprFn {
	r := s.resolve(name)
	if c, ok := r.only(); ok {
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			return c.frame(f).slots[c.slot], nil
		}
	}
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if v, ok := r.load(in, f); ok {
			return v, nil
		}
		return Undefined(), rtErrf("%s is not defined", r.name)
	}
}

// compileTarget compiles the store half of an assignment. A member or
// index target evaluates its object (and index) again at store time.
func compileTarget(e Expr, s *scope) storeFn {
	switch t := e.(type) {
	case *Ident:
		r := s.resolve(t.Name)
		if c, ok := r.only(); ok {
			return func(in *Interp, f *frame, v Value) error {
				c.frame(f).slots[c.slot] = v
				return nil
			}
		}
		return func(in *Interp, f *frame, v Value) error {
			r.store(in, f, v)
			return nil
		}
	case *Member:
		s.taint()
		obj, name := compileExpr(t.X, s), t.Name
		return func(in *Interp, f *frame, v Value) error {
			o, err := obj(in, f)
			if err != nil {
				return err
			}
			return in.setProp(o, name, v)
		}
	case *Index:
		s.taint()
		obj, idx := compileExpr(t.X, s), compileExpr(t.I, s)
		return func(in *Interp, f *frame, v Value) error {
			o, err := obj(in, f)
			if err != nil {
				return err
			}
			i, err := idx(in, f)
			if err != nil {
				return err
			}
			return in.setIndex(o, i, v)
		}
	}
	s.taint()
	msg := fmt.Sprintf("invalid assignment target %T", e)
	return func(in *Interp, f *frame, v Value) error { return &RuntimeError{Msg: msg} }
}

func compileUnary(x *Unary, s *scope) exprFn {
	switch x.Op {
	case "typeof":
		if id, ok := x.X.(*Ident); ok {
			// typeof tolerates an unresolved name. A resolved one is then
			// evaluated, which costs the identifier's step.
			r := s.resolve(id.Name)
			return func(in *Interp, f *frame) (Value, error) {
				if err := in.step(); err != nil {
					return Undefined(), err
				}
				v, ok := r.load(in, f)
				if !ok {
					return String("undefined"), nil
				}
				if err := in.step(); err != nil {
					return Undefined(), err
				}
				return String(v.TypeOf()), nil
			}
		}
		return unary(compileExpr(x.X, s), func(v Value) Value { return String(v.TypeOf()) })
	case "++", "--":
		return compileUpdate(x.Op, x.X, s, false)
	case "!":
		return unary(compileExpr(x.X, s), func(v Value) Value { return Boolean(!v.Bool()) })
	case "-":
		return unary(compileExpr(x.X, s), func(v Value) Value { return Number(-v.Num()) })
	case "+":
		return unary(compileExpr(x.X, s), func(v Value) Value { return Number(v.Num()) })
	case "~":
		return unary(compileExpr(x.X, s), func(v Value) Value { return Number(float64(^toInt32(v.Num()))) })
	}
	s.taint()
	operand, msg := compileExpr(x.X, s), fmt.Sprintf("unknown unary operator %q", x.Op)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if _, err := operand(in, f); err != nil {
			return Undefined(), err
		}
		return Undefined(), &RuntimeError{Msg: msg}
	}
}

func unary(operand exprFn, op func(Value) Value) exprFn {
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		v, err := operand(in, f)
		if err != nil {
			return Undefined(), err
		}
		return op(v), nil
	}
}

// compileUpdate compiles ++ and --: read the operand, store it plus or
// minus one, and yield the old number (postfix) or the new one.
func compileUpdate(op string, target Expr, s *scope, postfix bool) exprFn {
	read, store := compileExpr(target, s), compileTarget(target, s)
	delta := 1.0
	if op == "--" {
		delta = -1
	}
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		old, err := read(in, f)
		if err != nil {
			return Undefined(), err
		}
		n := old.Num()
		nv := Number(n + delta)
		if err := store(in, f, nv); err != nil {
			return Undefined(), err
		}
		if postfix {
			return Number(n), nil
		}
		return nv, nil
	}
}

func compileBinary(x *Binary, s *scope) exprFn {
	l, r := compileExpr(x.L, s), compileExpr(x.R, s)
	switch x.Op {
	case "&&", "||":
		// Short-circuit operators evaluate lazily and yield operand values.
		stopOn := x.Op == "||"
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			v, err := l(in, f)
			if err != nil || v.Bool() == stopOn {
				return v, err
			}
			return r(in, f)
		}
	case ",":
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			if _, err := l(in, f); err != nil {
				return Undefined(), err
			}
			return r(in, f)
		}
	}
	op := binaryOp(x.Op)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		lv, err := l(in, f)
		if err != nil {
			return Undefined(), err
		}
		rv, err := r(in, f)
		if err != nil {
			return Undefined(), err
		}
		return op(lv, rv)
	}
}

// compileAssign compiles = and the compound assignments. A compound
// assignment evaluates the value, then the target, then charges two
// more steps before applying its operator.
func compileAssign(x *Assign, s *scope) exprFn {
	val, store := compileExpr(x.Value, s), compileTarget(x.Target, s)
	if x.Op == "=" {
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			v, err := val(in, f)
			if err != nil {
				return Undefined(), err
			}
			if err := store(in, f, v); err != nil {
				return Undefined(), err
			}
			return v, nil
		}
	}
	cur, op := compileExpr(x.Target, s), binaryOp(x.Op[:len(x.Op)-1])
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		v, err := val(in, f)
		if err != nil {
			return Undefined(), err
		}
		c, err := cur(in, f)
		if err != nil {
			return Undefined(), err
		}
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		if v, err = op(c, v); err != nil {
			return Undefined(), err
		}
		if err := store(in, f, v); err != nil {
			return Undefined(), err
		}
		return v, nil
	}
}

// compileCall binds this for a method call (obj.m() or obj[k]()). The
// callee of a method call charges no step of its own: only its object
// (and key) are evaluated.
func compileCall(x *Call, s *scope) exprFn {
	args := compileExprs(x.Args, s)
	switch callee := x.Fn.(type) {
	case *Member:
		obj, key := compileExpr(callee.X, s), newPropKey(callee.Name)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			this, err := obj(in, f)
			if err != nil {
				return Undefined(), err
			}
			fn, err := in.member(this, key.name, &key.ids)
			if err != nil {
				return Undefined(), err
			}
			if fn.IsUndefined() {
				return Undefined(), rtErrf("%s.%s is not a function", this.TypeOf(), key.name)
			}
			return in.callArgs(fn, this, args, f)
		}
	case *Index:
		s.taint()
		obj, idx := compileExpr(callee.X, s), compileExpr(callee.I, s)
		return func(in *Interp, f *frame) (Value, error) {
			if err := in.step(); err != nil {
				return Undefined(), err
			}
			this, err := obj(in, f)
			if err != nil {
				return Undefined(), err
			}
			i, err := idx(in, f)
			if err != nil {
				return Undefined(), err
			}
			fn, err := in.getIndex(this, i)
			if err != nil {
				return Undefined(), err
			}
			return in.callArgs(fn, this, args, f)
		}
	}
	s.taint()
	callee := compileExpr(x.Fn, s)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		fn, err := callee(in, f)
		if err != nil {
			return Undefined(), err
		}
		return in.callArgs(fn, Undefined(), args, f)
	}
}

// callArgs evaluates a call's arguments onto the interpreter's argument
// stack and calls fn with them. They stay there for the duration of the
// call, so a call allocates no argument slice: a native must copy what
// it keeps, and a compiled function copies them into its frame.
func (in *Interp) callArgs(fn, this Value, args []exprFn, f *frame) (Value, error) {
	base := len(in.argStack)
	var ret Value
	var err error
	for _, a := range args {
		var v Value
		if v, err = a(in, f); err != nil {
			break
		}
		in.argStack = append(in.argStack, v)
	}
	if err == nil {
		top := len(in.argStack)
		ret, err = in.CallValue(fn, this, in.argStack[base:top:top])
	}
	clear(in.argStack[base:])
	in.argStack = in.argStack[:base]
	return ret, err
}

func compileNew(x *NewExpr, s *scope) exprFn {
	callee, args := compileExpr(x.Fn, s), compileExprs(x.Args, s)
	return func(in *Interp, f *frame) (Value, error) {
		if err := in.step(); err != nil {
			return Undefined(), err
		}
		fn, err := callee(in, f)
		if err != nil {
			return Undefined(), err
		}
		vals := make([]Value, len(args))
		for i, a := range args {
			if vals[i], err = a(in, f); err != nil {
				return Undefined(), err
			}
		}
		if !fn.IsCallable() {
			return Undefined(), rtErrf("constructor is not callable")
		}
		this := NewObject()
		ret, err := in.CallValue(fn, this, vals)
		if err != nil {
			return Undefined(), err
		}
		if ret.Kind() == KindObject {
			return ret, nil
		}
		return this, nil
	}
}
