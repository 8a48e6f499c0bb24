// Package sema performs semantic analysis of EXCESS statements: it binds
// range variables (explicit, from-clause and the implicit variables that
// extent-rooted paths introduce), resolves paths through the type lattice
// with automatic dereferencing of ref and own ref steps (the implicit
// joins of GEM/DAPLEX), resolves overloaded ADT operators and EXCESS
// functions, classifies aggregates, and type-checks targets, predicates
// and update assignments. Its output — the Checked* statement forms — is
// what the optimizer (package algebra) and executor (package exec)
// consume.
package sema

import (
	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/types"
	"repro/internal/value"
)

// VarKind says where a range variable's bindings come from.
type VarKind int

// Variable source kinds.
const (
	// VarExtent ranges over a top-level database set variable.
	VarExtent VarKind = iota
	// VarNested ranges over a path evaluated per binding of a parent
	// variable ("from C in Employees.kids" — the DAPLEX/STDM-style path
	// range).
	VarNested
	// VarDBPath ranges over a path rooted at a singleton/array database
	// variable (e.g. "from K in StarEmployee.kids").
	VarDBPath
	// VarExprPath ranges over a collection computed from an arbitrary
	// base expression — a function or procedure parameter ("from C in
	// N.sub" inside a body).
	VarExprPath
)

// Var is a bound range variable.
type Var struct {
	Name      string
	Kind      VarKind
	Universal bool // declared "range of V is all S"
	Implicit  bool // introduced by an extent-rooted path

	// Slot is the variable's position in the checker's binding order
	// (Query.Vars). The executor's binding frames are slot-indexed
	// slices, so compiled expressions read variables by integer offset
	// instead of hashing the *Var pointer.
	Slot int

	Extent string // VarExtent: the extent name; VarDBPath: the variable name
	Parent *Var   // VarNested: parent variable
	Base   Expr   // VarExprPath: the base expression (e.g. a ParamRef)
	Steps  []Step // VarNested/VarDBPath/VarExprPath: path to the collection

	Elem types.Component // element component the variable binds to
}

// BindsObjects reports whether the variable binds first-class objects
// (so that is/isnot, delete and replace make sense on it).
func (v *Var) BindsObjects() bool {
	_, isTuple := v.Elem.Type.(*types.TupleType)
	return isTuple
}

// TupleElem returns the element schema type for object-binding vars.
func (v *Var) TupleElem() *types.TupleType {
	tt, _ := v.Elem.Type.(*types.TupleType)
	return tt
}

// ---------------------------------------------------------------------------
// Bound expressions

// Expr is a type-checked, name-resolved expression.
type Expr interface {
	// Type returns the static type; nil for the untyped null.
	Type() types.Type
	// Multi reports whether the expression is collection-valued because a
	// path stepped through a set or array (multi-valued path semantics).
	Multi() bool
}

// Const is a literal value.
type Const struct {
	Val value.Value
	T   types.Type
}

// Type implements Expr.
func (c *Const) Type() types.Type { return c.T }

// Multi implements Expr.
func (c *Const) Multi() bool { return false }

// VarRef evaluates to the current binding of a range variable.
type VarRef struct {
	Var *Var
}

// Type implements Expr.
func (v *VarRef) Type() types.Type { return v.Var.Elem.Type }

// Multi implements Expr.
func (v *VarRef) Multi() bool { return false }

// DBVarRead evaluates a singleton or array database variable (Today,
// StarEmployee, TopTen).
type DBVarRead struct {
	Name string
	T    types.Type
}

// Type implements Expr.
func (d *DBVarRead) Type() types.Type { return d.T }

// Multi implements Expr.
func (d *DBVarRead) Multi() bool { return false }

// ExtentSet evaluates a whole extent as a set value; it appears inside
// aggregate arguments, where an extent path aggregates over the full
// collection rather than introducing an implicit join variable.
type ExtentSet struct {
	Name string
	T    *types.Set
}

// Type implements Expr.
func (e *ExtentSet) Type() types.Type { return e.T }

// Multi implements Expr.
func (e *ExtentSet) Multi() bool { return true }

// Step is one bound path step: an attribute access (with automatic
// dereference when the incoming value is a reference), optionally an
// index into an array. A step applied to a collection maps over its
// elements and flattens one level (multi-valued paths).
type Step struct {
	Attr  string // attribute name; "" for a pure index step
	Index Expr   // 1-based index expression, or nil
}

// PathExpr is a base expression followed by steps.
type PathExpr struct {
	Base  Expr
	Steps []Step
	T     types.Type
	IsM   bool
}

// Type implements Expr.
func (p *PathExpr) Type() types.Type { return p.T }

// Multi implements Expr.
func (p *PathExpr) Multi() bool { return p.IsM }

// OpClass distinguishes evaluation strategies for binary operators.
type OpClass int

// Operator classes.
const (
	OpLogic   OpClass = iota // and, or
	OpCompare                // = != < <= > >=
	OpIdent                  // is, isnot
	OpMember                 // in, contains
	OpSet                    // union, intersect, diff
	OpArith                  // + - * / %
	OpADT                    // registered ADT operator
)

// Binary is a bound binary operation.
type Binary struct {
	Op    string
	Class OpClass
	L, R  Expr
	Fn    *adt.Func // for OpADT
	T     types.Type
}

// Type implements Expr.
func (b *Binary) Type() types.Type { return b.T }

// Multi implements Expr.
func (b *Binary) Multi() bool { return false }

// Unary is a bound unary operation ("not", "-", or an ADT prefix op).
type Unary struct {
	Op string
	X  Expr
	Fn *adt.Func // for ADT prefix operators
	T  types.Type
}

// Type implements Expr.
func (u *Unary) Type() types.Type { return u.T }

// Multi implements Expr.
func (u *Unary) Multi() bool { return false }

// FuncCall applies an EXCESS function. Late-bound functions re-dispatch
// on the runtime type of the first argument at evaluation time.
type FuncCall struct {
	Fn   *catalog.Function
	Name string
	Args []Expr
	T    types.Type
}

// Type implements Expr.
func (f *FuncCall) Type() types.Type { return f.T }

// Multi implements Expr.
func (f *FuncCall) Multi() bool { return false }

// ADTCall applies an ADT member function.
type ADTCall struct {
	Fn   *adt.Func
	Args []Expr
}

// Type implements Expr.
func (a *ADTCall) Type() types.Type { return a.Fn.Result }

// Multi implements Expr.
func (a *ADTCall) Multi() bool { return false }

// Agg is a bound aggregate. SetArg aggregates fold a collection-valued
// argument evaluated per row (count(E.kids), avg(Employees.salary));
// query-level aggregates fold the argument across the query's bindings,
// grouped by the By expressions, optionally deduplicated by the Over
// expression first (the paper's partitioning of nested levels).
type Agg struct {
	Op     string
	Arg    Expr
	By     []Expr
	Over   Expr
	SetArg bool
	SetFn  *adt.SetFunc // user-defined generic set function, if any
	T      types.Type
}

// Type implements Expr.
func (a *Agg) Type() types.Type { return a.T }

// Multi implements Expr.
func (a *Agg) Multi() bool { return false }

// SetCtor builds a set value from element expressions.
type SetCtor struct {
	Elems []Expr
	T     *types.Set
}

// Type implements Expr.
func (s *SetCtor) Type() types.Type { return s.T }

// Multi implements Expr.
func (s *SetCtor) Multi() bool { return false }

// FieldInit initializes one attribute in a tuple constructor.
type FieldInit struct {
	Name string
	Expr Expr
}

// TupleCtor builds a tuple value of a schema type; unassigned attributes
// are null.
type TupleCtor struct {
	TT     *types.TupleType
	Fields []FieldInit
}

// Type implements Expr.
func (t *TupleCtor) Type() types.Type { return t.TT }

// Multi implements Expr.
func (t *TupleCtor) Multi() bool { return false }

// ParamRef reads a parameter binding: slot Slot of the innermost
// parameter frame, which is the frame the expression was checked
// against (a function's or procedure's parameters, or a prepared
// statement's $1..$n).
type ParamRef struct {
	Name string
	Slot int
	T    types.Type
}

// Type implements Expr.
func (p *ParamRef) Type() types.Type { return p.T }

// Multi implements Expr.
func (p *ParamRef) Multi() bool { return false }
