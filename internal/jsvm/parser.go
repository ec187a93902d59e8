package jsvm

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse turns source text into a Program and compiles it (compile.go).
func Parse(src string) (*Program, error) {
	prog, _, err := parse(src)
	return prog, err
}

// parse is Parse that also returns the size of src in the units the
// program memo charges by (programBytesPerUnit): one per token, and two
// more per token that opens a function literal ("function", "=>").
func parse(src string) (*Program, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	units := len(toks)
	for _, t := range toks {
		if t.kind == tKeyword && t.text == "function" || t.kind == tPunct && t.text == "=>" {
			units += 2
		}
	}
	p := &parser{src: src, toks: toks}
	prog := &Program{}
	for !p.at(tEOF, "") {
		st, err := p.statement()
		if err != nil {
			return nil, units, err
		}
		prog.Body = append(prog.Body, st)
	}
	// Top-level statements run in the global scope: a nil scope at
	// compile time, a nil frame at run time.
	prog.code = compileList(prog.Body, nil)
	return prog, units, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
	// depth counts the statement, assignment and unary levels open on
	// the current path; every recursion of the parser passes through one
	// of the three.
	depth int
	// h is the height of the expression parsed last: the number of
	// nodes on the longest path from it down its syntax tree.
	h int
	// base is depth where the innermost function body being parsed
	// begins, and deep the most levels any node of that body has
	// nested below base so far (FuncLit.nest).
	base, deep int
}

// maxNesting caps depth. Past it a script is a syntax error, so a
// megabyte of "(" fails after a short scan instead of recursing a
// million levels. The vendor, deferred and benign scripts nest at most
// 13 levels. A parenthesised level counts 2, so no chain of unary
// operators and parentheses runs deeper than 256 closures.
//
// Operator, member, index, call, comma and postfix chains are built in
// loops, so they open no level; each link checks that the levels open
// above it plus the height of the chain built so far stay within the
// cap too (link). The compiler and the interpreter recurse once per
// node on a path, so no statement's code nests more than 256 closures
// deep, and no function body more than 256 below its call.
const maxNesting = 256

// nest opens one nesting level; the caller closes it with
// defer p.unnest() once nest succeeds.
func (p *parser) nest() error {
	if p.depth >= maxNesting {
		return p.errHere("nesting too deep")
	}
	p.depth++
	p.deep = max(p.deep, p.depth-p.base)
	return nil
}

func (p *parser) unnest() { p.depth-- }

// link records h as the height of a chain link just built and fails
// when the open levels above it plus h pass maxNesting.
func (p *parser) link(h int) error {
	p.h = h
	if p.depth+h > maxNesting {
		return p.errHere("nesting too deep")
	}
	p.deep = max(p.deep, p.depth-p.base+h)
	return nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) eat(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	return token{}, p.errAt(t, fmt.Sprintf("expected %q, found %s", text, t))
}

func (p *parser) errHere(msg string) error { return p.errAt(p.cur(), msg) }

func (p *parser) errAt(t token, msg string) error { return syntaxError(p.src, t.pos, msg) }

// --- statements ---

func (p *parser) statement() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.cur()
	switch {
	case t.kind == tKeyword && (t.text == "var" || t.text == "let" || t.text == "const"):
		st, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		p.eat(tPunct, ";")
		return st, nil
	case t.kind == tKeyword && t.text == "function":
		return p.funcDecl()
	case t.kind == tKeyword && t.text == "if":
		return p.ifStmt()
	case t.kind == tKeyword && t.text == "for":
		return p.forStmt()
	case t.kind == tKeyword && t.text == "while":
		return p.whileStmt()
	case t.kind == tKeyword && t.text == "do":
		return p.doWhileStmt()
	case t.kind == tKeyword && t.text == "return":
		p.next()
		if p.eat(tPunct, ";") || p.at(tPunct, "}") {
			return &ReturnStmt{}, nil
		}
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.eat(tPunct, ";")
		return &ReturnStmt{X: x}, nil
	case t.kind == tKeyword && t.text == "break":
		p.next()
		p.eat(tPunct, ";")
		return &BreakStmt{}, nil
	case t.kind == tKeyword && t.text == "continue":
		p.next()
		p.eat(tPunct, ";")
		return &ContinueStmt{}, nil
	case t.kind == tKeyword && t.text == "try":
		return p.tryStmt()
	case t.kind == tKeyword && t.text == "throw":
		p.next()
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.eat(tPunct, ";")
		return &ThrowStmt{X: x}, nil
	case t.kind == tPunct && t.text == "{":
		return p.block()
	case t.kind == tPunct && t.text == ";":
		p.next()
		return &BlockStmt{Flat: true}, nil
	default:
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		p.eat(tPunct, ";")
		return &ExprStmt{X: x}, nil
	}
}

func (p *parser) varDecl() (*VarDecl, error) {
	p.next() // var/let/const
	decl := &VarDecl{}
	for {
		nameTok, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		decl.Names = append(decl.Names, nameTok.text)
		var init Expr
		if p.eat(tPunct, "=") {
			init, err = p.assignment()
			if err != nil {
				return nil, err
			}
		}
		decl.Inits = append(decl.Inits, init)
		if !p.eat(tPunct, ",") {
			break
		}
	}
	return decl, nil
}

func (p *parser) funcDecl() (Stmt, error) {
	p.next() // function
	nameTok, err := p.expect(tIdent, "")
	if err != nil {
		return nil, err
	}
	fn, err := p.funcRest(nameTok.text)
	if err != nil {
		return nil, err
	}
	return &VarDecl{Names: []string{nameTok.text}, Inits: []Expr{fn}, IsFunc: true}, nil
}

// funcRest parses "(params) { body }", keeping its source text.
func (p *parser) funcRest(name string) (*FuncLit, error) {
	open, err := p.expect(tPunct, "(")
	if err != nil {
		return nil, err
	}
	fn := &FuncLit{Name: name}
	for !p.at(tPunct, ")") {
		tok, err := p.expect(tIdent, "")
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, tok.text)
		if !p.eat(tPunct, ",") {
			break
		}
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	if err := p.body(fn, false); err != nil {
		return nil, err
	}
	fn.src = p.src[open.pos : p.toks[p.pos-1].pos+1]
	return fn, nil
}

func (p *parser) block() (Stmt, error) {
	if _, err := p.expect(tPunct, "{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{}
	for !p.at(tPunct, "}") && !p.at(tEOF, "") {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Body = append(b.Body, st)
	}
	if _, err := p.expect(tPunct, "}"); err != nil {
		return nil, err
	}
	b.Flat = len(declaredIn(b.Body)) == 0
	return b, nil
}

func (p *parser) tryStmt() (Stmt, error) {
	p.next() // try
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	st := &TryStmt{Body: body.(*BlockStmt).Body}
	if p.at(tKeyword, "catch") {
		p.next()
		st.HasCatch = true
		if p.eat(tPunct, "(") {
			tok, err := p.expect(tIdent, "")
			if err != nil {
				return nil, err
			}
			st.CatchParam = tok.text
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
		}
		catch, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Catch = catch.(*BlockStmt).Body
	}
	if p.at(tKeyword, "finally") {
		p.next()
		st.HasFinally = true
		fin, err := p.block()
		if err != nil {
			return nil, err
		}
		st.Finally = fin.(*BlockStmt).Body
	}
	if !st.HasCatch && !st.HasFinally {
		return nil, p.errHere("try needs catch or finally")
	}
	return st, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	p.next() // if
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.at(tKeyword, "else") {
		p.next()
		st.Else, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) forStmt() (Stmt, error) {
	p.next() // for
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	st := &ForStmt{}
	if !p.at(tPunct, ";") {
		if p.at(tKeyword, "var") || p.at(tKeyword, "let") || p.at(tKeyword, "const") {
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			st.Init = d
		} else {
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			st.Init = &ExprStmt{X: x}
		}
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(tPunct, ";") {
		c, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Cond = c
	}
	if _, err := p.expect(tPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(tPunct, ")") {
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Post = x
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	p.next() // while
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body}, nil
}

func (p *parser) doWhileStmt() (Stmt, error) {
	p.next() // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tKeyword, "while"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ")"); err != nil {
		return nil, err
	}
	p.eat(tPunct, ";")
	return &WhileStmt{Cond: cond, Body: body, Do: true}, nil
}

// --- expressions (precedence climbing) ---

func (p *parser) expression() (Expr, error) {
	x, err := p.assignment()
	if err != nil {
		return nil, err
	}
	// Comma operator: evaluate left, yield right.
	for p.at(tPunct, ",") {
		p.next()
		h := p.h
		r, err := p.assignment()
		if err != nil {
			return nil, err
		}
		if err := p.link(max(h, p.h) + 1); err != nil {
			return nil, err
		}
		x = &Binary{Op: ",", L: x, R: r}
	}
	return x, nil
}

func (p *parser) assignment() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	// Arrow functions: ident => ... or (params) => ...
	if fn, ok, err := p.tryArrow(); err != nil {
		return nil, err
	} else if ok {
		return fn, nil
	}
	left, err := p.ternary()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%="} {
		if p.at(tPunct, op) {
			switch left.(type) {
			case *Ident, *Member, *Index:
			default:
				return nil, p.errHere("invalid assignment target")
			}
			p.next()
			h := p.h
			val, err := p.assignment()
			if err != nil {
				return nil, err
			}
			p.h = max(h, p.h) + 1
			return &Assign{Op: op, Target: left, Value: val}, nil
		}
	}
	return left, nil
}

// tryArrow detects and parses arrow functions. An arrow's parameter
// list holds only identifiers and commas, so the lookahead stops at the
// first other token and nested parentheses parse in linear time.
func (p *parser) tryArrow() (Expr, bool, error) {
	start := p.pos
	if p.at(tIdent, "") && p.toks[p.pos+1].kind == tPunct && p.toks[p.pos+1].text == "=>" {
		fn := &FuncLit{Params: []string{p.next().text}}
		p.next() // =>
		if err := p.body(fn, true); err != nil {
			return nil, false, err
		}
		p.h = 1 // the body runs in a call of its own
		return fn, true, nil
	}
	if p.at(tPunct, "(") {
		i := p.pos + 1
		for p.toks[i].kind == tIdent || p.toks[i].kind == tPunct && p.toks[i].text == "," {
			i++
		}
		if p.toks[i].kind == tPunct && p.toks[i].text == ")" && p.toks[i+1].kind == tPunct && p.toks[i+1].text == "=>" {
			p.next() // (
			var params []string
			for !p.at(tPunct, ")") {
				tok, err := p.expect(tIdent, "")
				if err != nil {
					p.pos = start
					return nil, false, err
				}
				params = append(params, tok.text)
				if !p.eat(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, false, err
			}
			p.next() // =>
			fn := &FuncLit{Params: params}
			if err := p.body(fn, true); err != nil {
				return nil, false, err
			}
			p.h = 1
			return fn, true, nil
		}
	}
	return nil, false, nil
}

// body parses fn's body: a block, or for an arrow function not followed
// by "{" the one expression it returns. It records in fn.nest how many
// levels the body nests below the call.
func (p *parser) body(fn *FuncLit, arrow bool) error {
	base, deep := p.base, p.deep
	p.base, p.deep = p.depth, 0
	defer func() { p.base, p.deep = base, deep }()
	if arrow && !p.at(tPunct, "{") {
		x, err := p.assignment()
		if err != nil {
			return err
		}
		fn.Body = []Stmt{&ReturnStmt{X: x}}
	} else {
		b, err := p.block()
		if err != nil {
			return err
		}
		fn.Body = b.(*BlockStmt).Body
	}
	fn.nest = p.deep
	return nil
}

func (p *parser) ternary() (Expr, error) {
	cond, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.eat(tPunct, "?") {
		return cond, nil
	}
	h := p.h
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	h = max(h, p.h)
	if _, err := p.expect(tPunct, ":"); err != nil {
		return nil, err
	}
	els, err := p.assignment()
	if err != nil {
		return nil, err
	}
	p.h = max(h, p.h) + 1
	return &Cond{Test: cond, Then: then, Else: els}, nil
}

// binary operator precedence table, low to high.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binaryExpr(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		var op string
		if t.kind == tPunct {
			op = t.text
		} else if t.kind == tKeyword && t.text == "in" {
			op = "in"
		} else {
			return left, nil
		}
		prec, ok := binPrec[op]
		if !ok || prec < minPrec {
			return left, nil
		}
		p.next()
		h := p.h
		right, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		if err := p.link(max(h, p.h) + 1); err != nil {
			return nil, err
		}
		left = &Binary{Op: op, L: left, R: right}
	}
}

func (p *parser) unary() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	t := p.cur()
	if t.kind == tPunct && (t.text == "!" || t.text == "-" || t.text == "+" || t.text == "~" || t.text == "++" || t.text == "--") {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		p.h++
		return &Unary{Op: t.text, X: x}, nil
	}
	if t.kind == tKeyword && t.text == "typeof" {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		p.h++
		return &Unary{Op: "typeof", X: x}, nil
	}
	if t.kind == tKeyword && t.text == "new" {
		p.next()
		callee, err := p.memberChain(nil)
		if err != nil {
			return nil, err
		}
		// Split a trailing call off the chain for the constructor args;
		// the NewExpr takes the call's place and height.
		if call, ok := callee.(*Call); ok {
			return p.postfixOps(&NewExpr{Fn: call.Fn, Args: call.Args})
		}
		p.h++
		return p.postfixOps(&NewExpr{Fn: callee})
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.memberChain(nil)
	if err != nil {
		return nil, err
	}
	return p.postfixOps(x)
}

func (p *parser) postfixOps(x Expr) (Expr, error) {
	for {
		t := p.cur()
		if t.kind == tPunct && (t.text == "++" || t.text == "--") {
			p.next()
			if err := p.link(p.h + 1); err != nil {
				return nil, err
			}
			x = &Postfix{Op: t.text, X: x}
			continue
		}
		return x, nil
	}
}

// memberChain parses a primary expression followed by any sequence of
// member access, indexing, and calls.
func (p *parser) memberChain(base Expr) (Expr, error) {
	var x Expr
	var err error
	if base != nil {
		x = base
	} else {
		x, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	for {
		switch {
		case p.at(tPunct, "."):
			p.next()
			t := p.cur()
			if t.kind != tIdent && t.kind != tKeyword {
				return nil, p.errHere("expected property name after '.'")
			}
			p.next()
			if err := p.link(p.h + 1); err != nil {
				return nil, err
			}
			x = &Member{X: x, Name: t.text}
		case p.at(tPunct, "["):
			p.next()
			h := p.h
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			if err := p.link(max(h, p.h) + 1); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: idx}
		case p.at(tPunct, "("):
			p.next()
			h := p.h
			var args []Expr
			for !p.at(tPunct, ")") {
				a, err := p.assignment()
				if err != nil {
					return nil, err
				}
				h = max(h, p.h)
				args = append(args, a)
				if !p.eat(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
				return nil, err
			}
			if err := p.link(h + 1); err != nil {
				return nil, err
			}
			x = &Call{Fn: x, Args: args}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	p.h = 1
	switch {
	case t.kind == tNumber:
		p.next()
		var v float64
		var err error
		if strings.HasPrefix(t.text, "0x") || strings.HasPrefix(t.text, "0X") {
			var iv int64
			iv, err = strconv.ParseInt(t.text[2:], 16, 64)
			v = float64(iv)
		} else {
			v, err = strconv.ParseFloat(t.text, 64)
		}
		if err != nil {
			return nil, p.errAt(t, "bad number literal")
		}
		return &NumberLit{Value: v}, nil
	case t.kind == tString:
		p.next()
		return &StringLit{Value: t.text}, nil
	case t.kind == tKeyword && (t.text == "true" || t.text == "false"):
		p.next()
		return &BoolLit{Value: t.text == "true"}, nil
	case t.kind == tKeyword && t.text == "null":
		p.next()
		return &NullLit{}, nil
	case t.kind == tKeyword && t.text == "undefined":
		p.next()
		return &UndefinedLit{}, nil
	case t.kind == tKeyword && t.text == "function":
		p.next()
		name := ""
		if p.at(tIdent, "") {
			name = p.next().text
		}
		fn, err := p.funcRest(name)
		p.h = 1 // the body runs in a call of its own
		return fn, err
	case t.kind == tIdent:
		p.next()
		return &Ident{Name: t.text}, nil
	case t.kind == tPunct && t.text == "(":
		p.next()
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tPunct, ")"); err != nil {
			return nil, err
		}
		return x, nil
	case t.kind == tPunct && t.text == "[":
		p.next()
		arr := &ArrayLit{}
		h := 0
		for !p.at(tPunct, "]") {
			e, err := p.assignment()
			if err != nil {
				return nil, err
			}
			h = max(h, p.h)
			arr.Elems = append(arr.Elems, e)
			if !p.eat(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		p.h = h + 1
		return arr, nil
	case t.kind == tPunct && t.text == "{":
		p.next()
		obj := &ObjectLit{}
		h := 0
		for !p.at(tPunct, "}") {
			kt := p.cur()
			var key string
			switch kt.kind {
			case tIdent, tKeyword, tString, tNumber:
				key = kt.text
				p.next()
			default:
				return nil, p.errHere("expected object key")
			}
			if _, err := p.expect(tPunct, ":"); err != nil {
				return nil, err
			}
			v, err := p.assignment()
			if err != nil {
				return nil, err
			}
			h = max(h, p.h)
			obj.Keys = append(obj.Keys, key)
			obj.Values = append(obj.Values, v)
			if !p.eat(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "}"); err != nil {
			return nil, err
		}
		p.h = h + 1
		return obj, nil
	}
	return nil, p.errAt(t, fmt.Sprintf("unexpected token %s", t))
}
