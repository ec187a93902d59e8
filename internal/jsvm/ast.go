package jsvm

// Node is any AST node. Statements and expressions are separate interface
// families so the evaluator can't confuse them.
type Node interface{ node() }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmt()
}

// Expr is an expression node.
type Expr interface {
	Node
	expr()
}

// Program is a parsed and compiled script. It holds no run state, so
// one Program may run on any number of interpreters at once.
type Program struct {
	Body []Stmt
	code []stmtFn
}

// --- statements ---

// VarDecl declares one or more variables ("var"/"let"/"const").
type VarDecl struct {
	Names  []string
	Inits  []Expr // nil entries mean undefined
	IsFunc bool   // true when produced from a function declaration
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct{ X Expr }

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// ForStmt is the classic three-clause for loop.
type ForStmt struct {
	Init Stmt // may be nil (VarDecl or ExprStmt)
	Cond Expr // may be nil (treated as true)
	Post Expr // may be nil
	Body Stmt
}

// WhileStmt is while (and do/while when Do is set).
type WhileStmt struct {
	Cond Expr
	Body Stmt
	Do   bool
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct{ X Expr } // X may be nil

// BreakStmt breaks the innermost loop.
type BreakStmt struct{}

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{}

// ThrowStmt raises a runtime error carrying the value's string form.
type ThrowStmt struct{ X Expr }

// BlockStmt is a braced statement list with its own lexical scope.
// Parse marks a block Flat when executing it cannot declare a name in
// its own scope; a flat block runs in its parent's scope, which no
// lookup can tell apart from an empty child scope.
type BlockStmt struct {
	Body []Stmt
	Flat bool
}

// TryStmt is try/catch/finally. HasCatch/HasFinally distinguish empty
// clauses from absent ones.
type TryStmt struct {
	Body       []Stmt
	CatchParam string // "" when the catch clause binds no parameter
	Catch      []Stmt
	HasCatch   bool
	Finally    []Stmt
	HasFinally bool
}

func (*VarDecl) node()      {}
func (*ExprStmt) node()     {}
func (*IfStmt) node()       {}
func (*ForStmt) node()      {}
func (*WhileStmt) node()    {}
func (*ReturnStmt) node()   {}
func (*BreakStmt) node()    {}
func (*ContinueStmt) node() {}
func (*ThrowStmt) node()    {}
func (*BlockStmt) node()    {}
func (*TryStmt) node()      {}

func (*VarDecl) stmt()      {}
func (*ExprStmt) stmt()     {}
func (*IfStmt) stmt()       {}
func (*ForStmt) stmt()      {}
func (*WhileStmt) stmt()    {}
func (*ReturnStmt) stmt()   {}
func (*BreakStmt) stmt()    {}
func (*ContinueStmt) stmt() {}
func (*ThrowStmt) stmt()    {}
func (*BlockStmt) stmt()    {}
func (*TryStmt) stmt()      {}

// --- expressions ---

// NumberLit is a numeric literal.
type NumberLit struct{ Value float64 }

// StringLit is a string literal.
type StringLit struct{ Value string }

// BoolLit is true/false.
type BoolLit struct{ Value bool }

// NullLit is null.
type NullLit struct{}

// UndefinedLit is undefined.
type UndefinedLit struct{}

// Ident references a variable.
type Ident struct{ Name string }

// ArrayLit is [a, b, c].
type ArrayLit struct{ Elems []Expr }

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	Keys   []string
	Values []Expr
}

// FuncLit is a function expression or the desugared form of a function
// declaration and arrow function.
type FuncLit struct {
	Name   string // optional
	Params []string
	Body   []Stmt
	// src is the function's source text from "(" to the closing "}"
	// ("" for an arrow function): the call memo's key for a pure
	// function (compile.go).
	src string
	// nest is how many levels its body's syntax tree nests below the
	// call, as the parser counts them (maxNesting); calls charge the
	// call-depth budget by it (callCost).
	nest int
}

// callCost is what one call of x charges the budget of maxCallDepth
// nested calls: 1, and 1 more per callNestUnit levels its body nests.
// The Go stack a call holds grows with that nesting, so the budget
// bounds the stack of the whole call chain, not only its length.
func (x *FuncLit) callCost() int { return 1 + x.nest/callNestUnit }

// Unary is prefix !x, -x, +x, typeof x, ++x, --x.
type Unary struct {
	Op string
	X  Expr
}

// Postfix is x++ / x--.
type Postfix struct {
	Op string
	X  Expr
}

// Binary is any infix arithmetic/comparison/logical operator.
type Binary struct {
	Op   string
	L, R Expr
}

// Assign is x = v and compound assignments; Target must be an Ident,
// Member or Index expression.
type Assign struct {
	Op     string // "=", "+=", ...
	Target Expr
	Value  Expr
}

// Cond is the ternary operator.
type Cond struct {
	Test, Then, Else Expr
}

// Member is x.name.
type Member struct {
	X    Expr
	Name string
}

// Index is x[i].
type Index struct {
	X, I Expr
}

// Call is f(args) or obj.m(args).
type Call struct {
	Fn   Expr
	Args []Expr
}

// New is new F(args).
type NewExpr struct {
	Fn   Expr
	Args []Expr
}

func (*NumberLit) node()    {}
func (*StringLit) node()    {}
func (*BoolLit) node()      {}
func (*NullLit) node()      {}
func (*UndefinedLit) node() {}
func (*Ident) node()        {}
func (*ArrayLit) node()     {}
func (*ObjectLit) node()    {}
func (*FuncLit) node()      {}
func (*Unary) node()        {}
func (*Postfix) node()      {}
func (*Binary) node()       {}
func (*Assign) node()       {}
func (*Cond) node()         {}
func (*Member) node()       {}
func (*Index) node()        {}
func (*Call) node()         {}
func (*NewExpr) node()      {}

func (*NumberLit) expr()    {}
func (*StringLit) expr()    {}
func (*BoolLit) expr()      {}
func (*NullLit) expr()      {}
func (*UndefinedLit) expr() {}
func (*Ident) expr()        {}
func (*ArrayLit) expr()     {}
func (*ObjectLit) expr()    {}
func (*FuncLit) expr()      {}
func (*Unary) expr()        {}
func (*Postfix) expr()      {}
func (*Binary) expr()       {}
func (*Assign) expr()       {}
func (*Cond) expr()         {}
func (*Member) expr()       {}
func (*Index) expr()        {}
func (*Call) expr()         {}
func (*NewExpr) expr()      {}
