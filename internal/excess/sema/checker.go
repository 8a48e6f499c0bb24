package sema

import (
	"fmt"
	"maps"
	"sort"

	"repro/internal/catalog"
	"repro/internal/excess/ast"
	"repro/internal/types"
)

// Session holds the persistent range declarations of a user session
// ("range of E is Employees" stays in effect until redeclared, as in
// QUEL).
type Session struct {
	Ranges map[string]*ast.RangeDecl
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{Ranges: make(map[string]*ast.RangeDecl)}
}

// With returns a copy of the session with the range declaration added,
// replacing any previous one for the same variable. The receiver is not
// changed: a statement checking against it keeps the declarations it
// started with while another declares.
func (s *Session) With(d *ast.RangeDecl) *Session {
	r := maps.Clone(s.Ranges)
	r[d.Var] = d
	return &Session{Ranges: r}
}

// Checker binds and type-checks one statement. A fresh Checker is used
// per statement; Session and Catalog persist across statements.
type Checker struct {
	cat     *catalog.Catalog
	session *Session
	params  map[string]types.Type // function/procedure parameter scope

	vars  map[string]*Var
	order []*Var
	inAgg bool
	depth int // function-inlining depth guard

	// phTypes records the inferred type of each $N placeholder (index
	// N-1) seen while binding. Prepare reads it through Placeholders to
	// build the statement's parameter slots.
	phTypes []types.Type
}

// NewChecker returns a checker over the catalog and session. params may
// be nil; it provides the parameter scope when checking function and
// procedure bodies.
func NewChecker(cat *catalog.Catalog, session *Session, params map[string]types.Type) *Checker {
	return &Checker{
		cat:     cat,
		session: session,
		params:  params,
		vars:    make(map[string]*Var),
	}
}

// Query is the bound from/where context of a statement: the range
// variables in dependency order (parents before nested children) and the
// bound predicate.
type Query struct {
	Vars  []*Var
	Where Expr
}

// HasUniversal reports whether any variable is universally quantified.
func (q *Query) HasUniversal() bool {
	for _, v := range q.Vars {
		if v.Universal {
			return true
		}
	}
	return false
}

// TargetCol is one bound retrieve target.
type TargetCol struct {
	Name string
	Expr Expr
}

// CheckedRetrieve is a bound retrieve statement.
type CheckedRetrieve struct {
	Query
	Targets    []TargetCol
	GroupBy    []Expr
	Aggregated bool
	Into       string
}

// CheckedAppend is a bound append. Either Extent names a top-level
// collection, or Owner+Steps locate a nested collection inside an object
// or database variable. Elem is the collection's element component; the
// new element comes from Ctor (field form) or Value (positional form).
type CheckedAppend struct {
	Query
	Extent   string
	Owner    Expr   // object-valued; nil when Extent != "" or OwnerVar != ""
	OwnerVar string // singleton/array database variable owning the collection
	Steps    []Step
	Elem     types.Component
	Ctor     *TupleCtor
	Value    Expr
}

// CheckedDelete is a bound delete of the objects/elements a variable
// ranges over.
type CheckedDelete struct {
	Query
	Var *Var
}

// Assignment is one "attr = expr" in a replace.
type Assignment struct {
	Attr string
	Comp types.Component
	Expr Expr
}

// CheckedReplace is a bound replace.
type CheckedReplace struct {
	Query
	Var     *Var
	Assigns []Assignment
}

// CheckedSet is a bound set statement: LHS is a database variable,
// optionally indexed (set TopTen[1] = ...).
type CheckedSet struct {
	Query
	VarName string
	Index   Expr // nil for whole-variable assignment
	Comp    types.Component
	RHS     Expr
}

// CheckedExecute is a bound procedure invocation.
type CheckedExecute struct {
	Query
	Proc *catalog.Procedure
	Args []Expr
}

func (c *Checker) query(where Expr) Query {
	return Query{Vars: c.order, Where: where}
}

// Placeholders returns the inferred type of every $N parameter the
// checked statement mentions, indexed by N-1. A nil entry means the
// placeholder's type could not be inferred from context (it is accepted
// and checked dynamically at execution).
func (c *Checker) Placeholders() []types.Type { return c.phTypes }

// notePlaceholder grows the placeholder table to cover $n.
func (c *Checker) notePlaceholder(n int) {
	for len(c.phTypes) < n {
		c.phTypes = append(c.phTypes, nil)
	}
}

// inferPlaceholder back-fills an untyped placeholder reference with the
// type of the expression it is compared or combined with, so "$1" in
// "E.salary > $1" both type-checks the comparison and gives Prepare a
// typed slot to validate arguments against.
func (c *Checker) inferPlaceholder(e Expr, t types.Type) {
	p, ok := e.(*ParamRef)
	if !ok || p.T != nil || t == nil {
		return
	}
	var n int
	if _, err := fmt.Sscanf(p.Name, "$%d", &n); err != nil || n < 1 {
		return
	}
	p.T = t
	c.notePlaceholder(n)
	if c.phTypes[n-1] == nil {
		c.phTypes[n-1] = t
	}
}

// bindFrom binds the from clause variables in order.
func (c *Checker) bindFrom(from []ast.FromBinding) error {
	for i := range from {
		b := &from[i]
		if _, dup := c.vars[b.Var]; dup {
			return ast.Errorf(b, "variable %s already bound", b.Var)
		}
		v, err := c.bindRangeSource(b.Var, false, b.Src)
		if err != nil {
			return err
		}
		_ = v
	}
	return nil
}

// bindRangeSource creates a range variable over a path source. The path
// may be a bare extent, a path from another variable, or a path from a
// database variable or extent (introducing an implicit parent).
func (c *Checker) bindRangeSource(name string, universal bool, src *ast.Path) (*Var, error) {
	// Bare collection variable: set variables are extents with their own
	// storage; array variables iterate their stored value.
	if len(src.Steps) == 0 && src.RootIndex == nil {
		if dv, ok := c.cat.Var(src.Root); ok {
			elem, isColl := dv.ElemType()
			if !isColl {
				return nil, ast.Errorf(src, "%s is not a collection", src.Root)
			}
			v := &Var{Name: name, Universal: universal, Elem: c.bindElem(elem)}
			if dv.Comp.Type.Kind() == types.KSet {
				v.Kind = VarExtent
				v.Extent = src.Root
			} else {
				v.Kind = VarDBPath
				v.Extent = src.Root
			}
			v.Slot = len(c.order)
			c.vars[name] = v
			c.order = append(c.order, v)
			return v, nil
		}
	}
	// Path source: bind the prefix as an expression and range over the
	// resulting collection.
	base, steps, elem, err := c.bindCollectionPath(src)
	if err != nil {
		return nil, err
	}
	v := &Var{Name: name, Universal: universal, Steps: steps, Elem: c.bindElem(elem)}
	switch b := base.(type) {
	case *VarRef:
		v.Kind = VarNested
		v.Parent = b.Var
	case *DBVarRead:
		v.Kind = VarDBPath
		v.Extent = b.Name
	case *ParamRef:
		v.Kind = VarExprPath
		v.Base = b
	default:
		return nil, ast.Errorf(src, "cannot range over %s", src)
	}
	v.Slot = len(c.order)
	c.vars[name] = v
	c.order = append(c.order, v)
	return v, nil
}

// bindElem normalizes the component a variable binds to: variables over
// reference collections bind the dereferenced objects.
func (c *Checker) bindElem(elem types.Component) types.Component {
	if r, ok := elem.Type.(*types.Ref); ok {
		return types.Component{Mode: types.RefTo, Type: r.Target}
	}
	return elem
}

// bindCollectionPath binds a path that must denote a collection, and
// splits it into (base, steps, element component). The base is a VarRef
// (explicit or implicit extent variable) or a DBVarRead.
func (c *Checker) bindCollectionPath(p *ast.Path) (Expr, []Step, types.Component, error) {
	be, err := c.bindPath(p)
	if err != nil {
		return nil, nil, types.Component{}, err
	}
	var base Expr
	var steps []Step
	var t types.Type
	switch x := be.(type) {
	case *PathExpr:
		base = x.Base
		steps = x.Steps
		t = x.T
		if x.IsM {
			// A multi-valued path ("Teams.projects.tasks") ranges over the
			// flattened elements of its final collections; unwrap the
			// multiplicity wrapper to reach the real collection type.
			if el, ok := types.ElemOf(t); ok {
				t = el.Type
			}
		}
	case *VarRef, *DBVarRead, *ParamRef:
		base = x
		t = be.Type()
	default:
		return nil, nil, types.Component{}, ast.Errorf(p, "%s does not denote a collection", p)
	}
	elem, ok := types.ElemOf(t)
	if !ok {
		return nil, nil, types.Component{}, ast.Errorf(p, "%s is not a collection (type %s)", p, t)
	}
	return base, steps, elem, nil
}

// bindSessionVar lazily binds a session range declaration when a query
// first references it.
func (c *Checker) bindSessionVar(name string) (*Var, error) {
	d, ok := c.session.Ranges[name]
	if !ok {
		return nil, nil
	}
	return c.bindRangeSource(name, d.All, d.Src)
}

// implicitVar returns (binding if needed) the implicit range variable an
// extent-rooted path introduces. One implicit variable is shared by all
// mentions of the extent in a statement, which is what makes
// "retrieve (C.name) from C in Employees.kids where Employees.dept.floor
// = 2" correlate the two mentions of Employees.
func (c *Checker) implicitVar(extent string, elem types.Component) *Var {
	name := "\x00imp:" + extent
	if v, ok := c.vars[name]; ok {
		return v
	}
	v := &Var{Name: name, Kind: VarExtent, Extent: extent, Implicit: true, Elem: c.bindElem(elem), Slot: len(c.order)}
	c.vars[name] = v
	c.order = append(c.order, v)
	return v
}

// checkGroupedTargets analyzes a bound target list for query-level
// aggregation: it collects the group-by expressions and validates that
// non-aggregate targets are grouping expressions.
func (c *Checker) checkGroupedTargets(targets []TargetCol, where Expr) ([]Expr, bool, error) {
	var groups []Expr
	agg := false
	for _, t := range targets {
		WalkAggs(t.Expr, func(a *Agg) {
			if !a.SetArg {
				agg = true
				for _, g := range a.By {
					if !containsExpr(groups, g) {
						groups = append(groups, g)
					}
				}
			}
		})
	}
	if !agg {
		return nil, false, nil
	}
	for _, t := range targets {
		if isGroupable(t.Expr, groups) {
			continue
		}
		return nil, false, fmt.Errorf("target %s mixes grouped aggregates with a non-aggregate expression that is not in any by clause", t.Name)
	}
	if where != nil {
		bad := false
		WalkAggs(where, func(a *Agg) {
			if !a.SetArg {
				bad = true
			}
		})
		if bad {
			return nil, false, fmt.Errorf("query-level aggregates are not allowed in where clauses; aggregate a set-valued path instead")
		}
	}
	return groups, true, nil
}

// isGroupable reports whether every non-aggregate leaf of the target is
// covered by a grouping expression.
func isGroupable(e Expr, groups []Expr) bool {
	if containsExpr(groups, e) {
		return true
	}
	switch x := e.(type) {
	case *Agg:
		return !x.SetArg || !referencesVars(x)
	case *Const, *ParamRef, *DBVarRead:
		return true
	case *Binary:
		return isGroupable(x.L, groups) && isGroupable(x.R, groups)
	case *Unary:
		return isGroupable(x.X, groups)
	case *FuncCall:
		for _, a := range x.Args {
			if !isGroupable(a, groups) {
				return false
			}
		}
		return true
	case *ADTCall:
		for _, a := range x.Args {
			if !isGroupable(a, groups) {
				return false
			}
		}
		return true
	}
	return !referencesVars(e)
}

// referencesVars reports whether the expression reads any range variable.
func referencesVars(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if _, ok := x.(*VarRef); ok {
			found = true
		}
	})
	return found
}

// WalkExpr visits e and every subexpression.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *PathExpr:
		WalkExpr(x.Base, fn)
		for _, s := range x.Steps {
			WalkExpr(s.Index, fn)
		}
	case *Binary:
		WalkExpr(x.L, fn)
		WalkExpr(x.R, fn)
	case *Unary:
		WalkExpr(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *ADTCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	case *Agg:
		WalkExpr(x.Arg, fn)
		for _, b := range x.By {
			WalkExpr(b, fn)
		}
		WalkExpr(x.Over, fn)
	case *SetCtor:
		for _, el := range x.Elems {
			WalkExpr(el, fn)
		}
	case *TupleCtor:
		for _, f := range x.Fields {
			WalkExpr(f.Expr, fn)
		}
	}
}

// WalkAggs visits every aggregate node in e, without descending into
// aggregate arguments (nested aggregates are rejected at bind time).
func WalkAggs(e Expr, fn func(*Agg)) {
	WalkExpr(e, func(x Expr) {
		if a, ok := x.(*Agg); ok {
			fn(a)
		}
	})
}

// containsExpr reports membership by structural equality.
func containsExpr(list []Expr, e Expr) bool {
	for _, g := range list {
		if EqualExpr(g, e) {
			return true
		}
	}
	return false
}

// EqualExpr reports structural equality of bound expressions; it is the
// grouping-compatibility test.
func EqualExpr(a, b Expr) bool {
	switch x := a.(type) {
	case *Const:
		y, ok := b.(*Const)
		return ok && x.Val.String() == y.Val.String()
	case *VarRef:
		y, ok := b.(*VarRef)
		return ok && x.Var == y.Var
	case *ParamRef:
		y, ok := b.(*ParamRef)
		return ok && x.Name == y.Name
	case *DBVarRead:
		y, ok := b.(*DBVarRead)
		return ok && x.Name == y.Name
	case *ExtentSet:
		y, ok := b.(*ExtentSet)
		return ok && x.Name == y.Name
	case *PathExpr:
		y, ok := b.(*PathExpr)
		if !ok || len(x.Steps) != len(y.Steps) || !EqualExpr(x.Base, y.Base) {
			return false
		}
		for i := range x.Steps {
			if x.Steps[i].Attr != y.Steps[i].Attr {
				return false
			}
			xi, yi := x.Steps[i].Index, y.Steps[i].Index
			if (xi == nil) != (yi == nil) || (xi != nil && !EqualExpr(xi, yi)) {
				return false
			}
		}
		return true
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && EqualExpr(x.L, y.L) && EqualExpr(x.R, y.R)
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && EqualExpr(x.X, y.X)
	case *FuncCall:
		y, ok := b.(*FuncCall)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !EqualExpr(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// sortedVarNames lists the bound variable names, for error messages.
func (c *Checker) sortedVarNames() []string {
	out := make([]string, 0, len(c.vars))
	for n := range c.vars {
		if n[0] != '\x00' {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
