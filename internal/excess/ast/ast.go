// Package ast defines the abstract syntax of the EXCESS query language —
// the QUEL-derived statements (range, retrieve, append, delete, replace),
// the EXTRA DDL (define type / enum / function / procedure / index,
// create, drop), authorization commands, and the expression language with
// path expressions, aggregates with by/over partitioning, set operators,
// and ADT operator invocation.
//
// The paper presents EXCESS by example rather than by grammar; the
// concrete syntax accepted here is the reconstruction documented in the
// README. The AST is deliberately close to the surface syntax; semantic
// analysis (package sema) annotates rather than rewrites it.
package ast

import "fmt"

// Node is implemented by every AST node.
type Node interface {
	// Pos returns the 1-based line and column where the node begins.
	Pos() (line, col int)
}

// Position is embedded by all nodes.
type Position struct {
	Line, Col int
}

// Pos implements Node.
func (p Position) Pos() (int, int) { return p.Line, p.Col }

// Errorf formats an error prefixed with the node's position.
func Errorf(n Node, format string, args ...any) error {
	l, c := n.Pos()
	return fmt.Errorf("%d:%d: %s", l, c, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Type expressions (DDL)

// TypeExpr is a syntactic type: a name, a constructor application, or a
// mode-qualified component.
type TypeExpr interface {
	Node
	typeExpr()
}

// NamedType references a base type, schema type, enum or ADT by name.
// For char[n], Width holds n and Name is "char".
type NamedType struct {
	Position
	Name  string
	Width int // for char[n]
}

func (*NamedType) typeExpr() {}

// SetType is the set constructor { Elem }.
type SetType struct {
	Position
	Elem *ComponentExpr
}

func (*SetType) typeExpr() {}

// ArrayType is the array constructor [n] Elem (fixed) or [] Elem.
type ArrayType struct {
	Position
	Len   int
	Fixed bool
	Elem  *ComponentExpr
}

func (*ArrayType) typeExpr() {}

// RefType is the reference constructor ref T, when used as a bare type
// (e.g. "create StarEmployee : ref Employee").
type RefType struct {
	Position
	Target string
}

func (*RefType) typeExpr() {}

// ComponentExpr qualifies a type with its value kind. Mode strings are
// "own" (default), "ref" and "own ref".
type ComponentExpr struct {
	Position
	Mode string
	Type TypeExpr
}

// AttrDecl is one attribute declaration in a define type.
type AttrDecl struct {
	Position
	Name string
	Comp *ComponentExpr
}

// RenameClause redirects an inherited attribute name.
type RenameClause struct {
	Position
	Old, New string
}

// InheritClause is one supertype in a define type, with renames.
type InheritClause struct {
	Position
	Super   string
	Renames []RenameClause
}

// ---------------------------------------------------------------------------
// Statements

// Statement is implemented by every EXCESS statement.
type Statement interface {
	Node
	stmt()
}

// DefineType is "define type Name [inherits ...] : ( attrs )".
type DefineType struct {
	Position
	Name     string
	Inherits []InheritClause
	Attrs    []AttrDecl
}

func (*DefineType) stmt() {}

// DefineEnum is "define enum Name : ( label, ... )".
type DefineEnum struct {
	Position
	Name   string
	Labels []string
}

func (*DefineEnum) stmt() {}

// Create is "create Name : Component" — a named database variable: an
// extent ({own Employee}), a reference (ref Employee), an array
// ([10] ref Employee), or a single value (Date).
type Create struct {
	Position
	Name string
	Comp *ComponentExpr
	// Keys are uniqueness constraints associated with the set instance
	// (the paper's promised key support): each entry is a list of own
	// attribute paths that must be unique across the extent.
	Keys [][]string
}

func (*Create) stmt() {}

// Drop is "drop Name" — removes a database variable and destroys any
// objects it owns.
type Drop struct {
	Position
	Name string
}

func (*Drop) stmt() {}

// Param is a function/procedure parameter declaration.
type Param struct {
	Position
	Name string
	Type TypeExpr
}

// DefineFunction is "define [late] function Name (params) returns T as
// body". The body is an expression or a retrieve statement. Functions are
// side-effect free and are inherited down the type lattice; "late"
// requests dynamic (virtual) dispatch on the first parameter.
type DefineFunction struct {
	Position
	Name    string
	Late    bool
	Params  []Param
	Returns *ComponentExpr
	Expr    Expr      // exactly one of Expr, Query is set (unless DeclOnly)
	Query   *Retrieve // retrieve-bodied function
	// DeclOnly marks "declare function": a forward declaration whose body
	// a later define fills in — the hook for mutually recursive derived
	// data.
	DeclOnly bool
}

func (*DefineFunction) stmt() {}

// DefineProcedure is "define procedure Name (params) as stmt" — the
// IDM-style stored command, generalized with where-bound parameters at
// execution time.
type DefineProcedure struct {
	Position
	Name   string
	Params []Param
	Body   []Statement
}

func (*DefineProcedure) stmt() {}

// Execute is "execute Name (args) [from bindings] [where pred]": the
// procedure runs once per binding of the from/where clause.
type Execute struct {
	Position
	Name  string
	Args  []Expr
	From  []FromBinding
	Where Expr
}

func (*Execute) stmt() {}

// DefineIndex is "define [unique] index Name on Extent (attr[.attr...])".
type DefineIndex struct {
	Position
	Name   string
	Extent string
	Path   []string
	Unique bool
}

func (*DefineIndex) stmt() {}

// RangeDecl is "range of V is path" or "range of V is all path". The
// latter declares a universally quantified variable: a predicate
// mentioning V holds only if it holds for every binding of V.
type RangeDecl struct {
	Position
	Var string
	All bool
	Src *Path
}

func (*RangeDecl) stmt() {}

// FromBinding is "V in path" in a from clause.
type FromBinding struct {
	Position
	Var string
	Src *Path
}

// Target is one element of a retrieve target list, optionally named.
type Target struct {
	Position
	Name string // result column name; "" derives from the expression
	Expr Expr
}

// Retrieve is "retrieve [into Name] ( targets ) [from ...] [where ...]".
type Retrieve struct {
	Position
	Into    string
	Targets []Target
	From    []FromBinding
	Where   Expr
}

func (*Retrieve) stmt() {}

// FieldAssign is "attr = expr" in append/replace.
type FieldAssign struct {
	Position
	Name string
	Expr Expr
}

// Append is "append [to] path ( fields | expr ) [from ...] [where ...]".
// With field assignments it constructs a new element of the target
// collection; with a single positional expression it appends that value
// (e.g. a reference) directly.
type Append struct {
	Position
	To     *Path
	Fields []FieldAssign // non-empty for constructor form
	Value  Expr          // set for positional form
	From   []FromBinding
	Where  Expr
}

func (*Append) stmt() {}

// Delete is "delete V [where pred]" — removes the objects V ranges over
// from their collection, destroying owned objects.
type Delete struct {
	Position
	Var   string
	From  []FromBinding
	Where Expr
}

func (*Delete) stmt() {}

// Replace is "replace V ( fields ) [from ...] [where ...]" — updates
// attributes of the objects V ranges over.
type Replace struct {
	Position
	Var    string
	Fields []FieldAssign
	From   []FromBinding
	Where  Expr
}

func (*Replace) stmt() {}

// SetStmt is "set path = expr [from ...] [where ...]" — assignment to a
// database variable or a path into one (e.g. "set TopTen[1] = E where
// ..."). The from/where clause must produce exactly one binding.
type SetStmt struct {
	Position
	LHS   *Path
	RHS   Expr
	From  []FromBinding
	Where Expr
}

func (*SetStmt) stmt() {}

// Grant is "grant priv on name to who [, who...]"; privileges are
// "select", "update" or "all"; who is a user or group name.
type Grant struct {
	Position
	Priv string
	On   string
	To   []string
}

func (*Grant) stmt() {}

// Revoke mirrors Grant.
type Revoke struct {
	Position
	Priv string
	On   string
	From []string
}

func (*Revoke) stmt() {}

// ---------------------------------------------------------------------------
// Expressions

// Expr is implemented by every expression node.
type Expr interface {
	Node
	expr()
}

// IntLit is an integer literal.
type IntLit struct {
	Position
	V int64
}

func (*IntLit) expr() {}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Position
	V float64
}

func (*FloatLit) expr() {}

// StrLit is a string literal.
type StrLit struct {
	Position
	V string
}

func (*StrLit) expr() {}

// BoolLit is true or false.
type BoolLit struct {
	Position
	V bool
}

func (*BoolLit) expr() {}

// NullLit is the null literal.
type NullLit struct {
	Position
}

func (*NullLit) expr() {}

// Placeholder is a positional parameter of a prepared statement: "$1",
// "$2", ... (1-based). Outside a prepared statement it is a check-time
// error.
type Placeholder struct {
	Position
	N int
}

func (*Placeholder) expr() {}

// PathStep is one step of a path: an attribute access, optionally
// followed by an index (1-based) into an array.
type PathStep struct {
	Position
	Name  string
	Index Expr // nil unless Name[Index]
}

// Path is a root identifier followed by steps: "E.dept.floor",
// "Employees.kids", "TopTen[1].name". The root may be a range variable, a
// database variable, or a function parameter; sema decides.
type Path struct {
	Position
	Root      string
	RootIndex Expr // for "TopTen[1]..."
	Steps     []PathStep
}

func (*Path) expr() {}

// String renders the path in surface syntax (without index expressions).
func (p *Path) String() string {
	s := p.Root
	if p.RootIndex != nil {
		s += "[...]"
	}
	for _, st := range p.Steps {
		s += "." + st.Name
		if st.Index != nil {
			s += "[...]"
		}
	}
	return s
}

// Unary is a prefix operator application: "not", "-", or a registered
// ADT prefix operator.
type Unary struct {
	Position
	Op string
	X  Expr
}

func (*Unary) expr() {}

// Binary is an infix operator application. Op is the surface symbol or
// keyword: or, and, =, !=, <, <=, >, >=, is, isnot, in, contains, union,
// intersect, diff, +, -, *, /, %, or a registered ADT operator.
type Binary struct {
	Position
	Op   string
	L, R Expr
}

func (*Binary) expr() {}

// Call is a function application: a free function ("date(...)",
// "Add(a,b)"), an EXCESS function ("Wealth(E)"), or a method-style call
// via path ("CnumPair.val1.Add(x)" parses as Call{Recv: path, Name:
// "Add"}).
type Call struct {
	Position
	Recv Expr // nil for free calls
	Name string
	Args []Expr
}

func (*Call) expr() {}

// Aggregate is agg(arg [by group, ...] [over part]) for the built-in
// aggregates count, sum, avg, min, max and any registered generic set
// function (e.g. median). A nil Arg is the count-of-bindings form
// "count(V)" when V alone is the argument path.
type Aggregate struct {
	Position
	Op   string
	Arg  Expr
	By   []Expr
	Over Expr
}

func (*Aggregate) expr() {}

// SetLit is a set constructor literal "{ e1, e2, ... }".
type SetLit struct {
	Position
	Elems []Expr
}

func (*SetLit) expr() {}

// TupleLit is a tuple constructor "TypeName(attr = expr, ...)", used to
// build own values and new objects in appends and sets.
type TupleLit struct {
	Position
	TypeName string
	Fields   []FieldAssign
}

func (*TupleLit) expr() {}

// WalkExpr visits e and every expression nested in it: operands, call
// receivers and arguments, aggregate parts, constructor elements and
// path index expressions.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Path:
		WalkExpr(x.RootIndex, fn)
		for _, st := range x.Steps {
			WalkExpr(st.Index, fn)
		}
	case *Unary:
		WalkExpr(x.X, fn)
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Call:
		WalkExpr(x.Recv, fn)
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Aggregate:
		WalkExpr(x.Arg, fn)
		for _, b := range x.By {
			WalkExpr(b, fn)
		}
		WalkExpr(x.Over, fn)
	case *SetLit:
		for _, el := range x.Elems {
			WalkExpr(el, fn)
		}
	case *TupleLit:
		for _, f := range x.Fields {
			WalkExpr(f.Expr, fn)
		}
	}
}
