package jsvm

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse turns source text into a Program and compiles it (compile.go).
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	prog := &Program{}
	for !p.at(tEOF, "") {
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, st)
	}
	// Top-level statements run in the global scope: a nil scope at
	// compile time, a nil frame at run time.
	prog.code = compileList(prog.Body, nil)
	return prog, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
	// depth counts the statement, assignment and unary levels open on
	// the current path; every recursion of the parser passes through one
	// of the three.
	depth int
}

// maxNesting caps depth. Past it a script is a syntax error, so a
// megabyte of "(" fails after a short scan instead of recursing a
// million levels. The vendor, deferred and benign scripts nest at most
// 13 levels. A parenthesised level counts 2, so no chain of unary
// operators and parentheses runs deeper than 256 closures.
const maxNesting = 256

// nest opens one nesting level; the caller closes it with
// defer p.unnest() once nest succeeds.
func (p *parser) nest() error {
	if p.depth >= maxNesting {
		return p.errHere("nesting too deep")
	}
	p.depth++
	return nil
}

func (p *parser) unnest() { p.depth-- }

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
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body.(*BlockStmt).Body
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
		r, err := p.assignment()
		if err != nil {
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
			val, err := p.assignment()
			if err != nil {
				return nil, err
			}
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
		name := p.next().text
		p.next() // =>
		body, err := p.arrowBody()
		if err != nil {
			return nil, false, err
		}
		return &FuncLit{Params: []string{name}, Body: body}, true, nil
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
			body, err := p.arrowBody()
			if err != nil {
				return nil, false, err
			}
			return &FuncLit{Params: params, Body: body}, true, nil
		}
	}
	return nil, false, nil
}

func (p *parser) arrowBody() ([]Stmt, error) {
	if p.at(tPunct, "{") {
		b, err := p.block()
		if err != nil {
			return nil, err
		}
		return b.(*BlockStmt).Body, nil
	}
	x, err := p.assignment()
	if err != nil {
		return nil, err
	}
	return []Stmt{&ReturnStmt{X: x}}, nil
}

func (p *parser) ternary() (Expr, error) {
	cond, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.eat(tPunct, "?") {
		return cond, nil
	}
	then, err := p.assignment()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tPunct, ":"); err != nil {
		return nil, err
	}
	els, err := p.assignment()
	if err != nil {
		return nil, err
	}
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
		right, err := p.binaryExpr(prec + 1)
		if err != nil {
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
		return &Unary{Op: t.text, X: x}, nil
	}
	if t.kind == tKeyword && t.text == "typeof" {
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "typeof", X: x}, nil
	}
	if t.kind == tKeyword && t.text == "new" {
		p.next()
		callee, err := p.memberChain(nil)
		if err != nil {
			return nil, err
		}
		// Split a trailing call off the chain for the constructor args.
		if call, ok := callee.(*Call); ok {
			return p.postfixOps(&NewExpr{Fn: call.Fn, Args: call.Args})
		}
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
			x = &Member{X: x, Name: t.text}
		case p.at(tPunct, "["):
			p.next()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: idx}
		case p.at(tPunct, "("):
			p.next()
			var args []Expr
			for !p.at(tPunct, ")") {
				a, err := p.assignment()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.eat(tPunct, ",") {
					break
				}
			}
			if _, err := p.expect(tPunct, ")"); err != nil {
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
		return p.funcRest(name)
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
		for !p.at(tPunct, "]") {
			e, err := p.assignment()
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, e)
			if !p.eat(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "]"); err != nil {
			return nil, err
		}
		return arr, nil
	case t.kind == tPunct && t.text == "{":
		p.next()
		obj := &ObjectLit{}
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
			obj.Keys = append(obj.Keys, key)
			obj.Values = append(obj.Values, v)
			if !p.eat(tPunct, ",") {
				break
			}
		}
		if _, err := p.expect(tPunct, "}"); err != nil {
			return nil, err
		}
		return obj, nil
	}
	return nil, p.errAt(t, fmt.Sprintf("unexpected token %s", t))
}
