// Package adt implements the EXTRA abstract data type facility.
//
// In the paper, new base types are added by writing a "dbclass" in E, the
// EXODUS implementation language (an extension of C++). The dbclass
// exports member functions, and functions may additionally be registered
// as infix or prefix operators with a declared precedence and
// associativity, exactly as in POSTGRES-style extensibility [Ston86,
// Ston87b] — except that EXCESS optimizes operators and functions
// uniformly.
//
// This package is the Go substitute for the E substrate: an ADT is a
// descriptor with Go-implemented member functions and operator
// registrations; the EXCESS semantic analyzer resolves overloaded
// operators against the registry and the executor invokes the
// implementations. The interface surface (register a class, register
// functions, register operators with precedence/associativity, invoke
// from queries) matches Figure 7 of the paper.
package adt

import (
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/types"
	"repro/internal/value"
)

// Func is a member function of an ADT (or a free function over ADTs).
type Func struct {
	Name   string
	Params []types.Type // declared parameter types
	Result types.Type
	Impl   func(args []value.Value) (value.Value, error)
}

// Arity returns the number of declared parameters.
func (f *Func) Arity() int { return len(f.Params) }

// Operator registers a function under an operator symbol. Prefix
// operators take one argument; infix operators take two. Functions with
// three or more arguments cannot be registered as operators (the paper's
// rule), and this is enforced at registration time.
type Operator struct {
	Symbol     string
	Prefix     bool
	Precedence int // 1 (loosest) .. 7 (tightest); see package parse
	RightAssoc bool
	Fn         *Func
}

// Class is an ADT descriptor — the analogue of an E dbclass interface.
// A Class is immutable once registered: registering a member function
// publishes a copy.
type Class struct {
	Name  string
	Type  *types.ADT
	funcs map[string][]*Func // name -> overloads
}

// Funcs returns the overloads registered under name.
func (c *Class) Funcs(name string) []*Func { return c.funcs[name] }

// FuncNames returns the sorted member-function names, for catalog display.
func (c *Class) FuncNames() []string {
	out := make([]string, 0, len(c.funcs))
	for n := range c.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetFunc is a user-defined set (aggregate) function, generalized over
// element types via a constraint — the paper's "median over any totally
// ordered type" extension example, which POSTGRES could only provide for
// a single fixed type. Constraint decides whether the function applies to
// a given element type; Result gives the result type; Impl folds the
// elements.
type SetFunc struct {
	Name       string
	Constraint func(elem types.Type) bool
	Result     func(elem types.Type) types.Type
	Impl       func(elems []value.Value) (value.Value, error)
}

// Registry holds the ADTs, free functions, operators and set functions
// known to a database. It is safe for concurrent use: the parser, the
// checker and the executor read it with one atomic load and no lock,
// and a registration publishes a new copy of the tables (registrations
// are rare — set-up code — and serialize among themselves).
type Registry struct {
	mu  sync.Mutex // serializes registrations; readers never take it
	cur atomic.Pointer[regTables]
}

// regTables is one immutable version of the registry.
type regTables struct {
	version  uint64 // bumped by every registration
	classes  map[string]*Class
	ops      map[string][]*Operator // symbol -> overloads (mixed prefix/infix)
	setFuncs map[string]*SetFunc
}

// NewRegistry returns a registry preloaded with the built-in Date and
// Complex ADTs used throughout the paper's figures.
func NewRegistry() *Registry {
	r := &Registry{}
	r.cur.Store(&regTables{
		classes:  make(map[string]*Class),
		ops:      make(map[string][]*Operator),
		setFuncs: make(map[string]*SetFunc),
	})
	registerDate(r)
	registerComplex(r)
	return r
}

// edit applies one registration to a copy of the tables and publishes
// the copy if fn succeeds.
func (r *Registry) edit(fn func(t *regTables) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	t := &regTables{
		version:  old.version + 1,
		classes:  maps.Clone(old.classes),
		ops:      maps.Clone(old.ops),
		setFuncs: maps.Clone(old.setFuncs),
	}
	if err := fn(t); err != nil {
		return err
	}
	r.cur.Store(t)
	return nil
}

// Version identifies the registry's current contents: every
// registration moves it. What was parsed under one version (operator
// symbols, precedences) may parse differently under another.
func (r *Registry) Version() uint64 { return r.cur.Load().version }

// Define registers a new ADT and returns its Class. It fails if the name
// is taken.
func (r *Registry) Define(name string) (*Class, error) {
	c := &Class{Name: name, Type: &types.ADT{Name: name}, funcs: map[string][]*Func{}}
	err := r.edit(func(t *regTables) error {
		if _, dup := t.classes[name]; dup {
			return fmt.Errorf("adt %s already defined", name)
		}
		t.classes[name] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Lookup returns the ADT class registered under name.
func (r *Registry) Lookup(name string) (*Class, bool) {
	c, ok := r.cur.Load().classes[name]
	return c, ok
}

// Type returns the types.ADT for a registered class name.
func (r *Registry) Type(name string) (*types.ADT, bool) {
	c, ok := r.Lookup(name)
	if !ok {
		return nil, false
	}
	return c.Type, true
}

// Names returns the sorted names of all registered ADTs.
func (r *Registry) Names() []string {
	classes := r.cur.Load().classes
	out := make([]string, 0, len(classes))
	for n := range classes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RegisterFunc adds a member function to a class. Overloading within a
// class is permitted on distinct signatures.
func (r *Registry) RegisterFunc(class string, f *Func) error {
	return r.edit(func(t *regTables) error {
		c, ok := t.classes[class]
		if !ok {
			return fmt.Errorf("adt %s not defined", class)
		}
		for _, g := range c.funcs[f.Name] {
			if sameSig(g.Params, f.Params) {
				return fmt.Errorf("adt %s: function %s with this signature already defined", class, f.Name)
			}
		}
		nc := *c
		nc.funcs = maps.Clone(c.funcs)
		nc.funcs[f.Name] = append(c.funcs[f.Name][:len(c.funcs[f.Name]):len(c.funcs[f.Name])], f)
		t.classes[class] = &nc
		return nil
	})
}

// RegisterOperator registers an operator as an alternative invocation
// syntax for a function, with explicit precedence and associativity (as
// the paper requires for new operators). Functions overloaded within a
// single dbclass may not be registered as operators, and operator
// functions must be unary (prefix) or binary (infix).
func (r *Registry) RegisterOperator(class string, op Operator) error {
	return r.edit(func(t *regTables) error { return t.registerOperator(class, op) })
}

func (t *regTables) registerOperator(class string, op Operator) error {
	c, ok := t.classes[class]
	if !ok {
		return fmt.Errorf("adt %s not defined", class)
	}
	if op.Fn == nil {
		return fmt.Errorf("operator %s: no function", op.Symbol)
	}
	if len(c.funcs[op.Fn.Name]) > 1 {
		return fmt.Errorf("operator %s: function %s is overloaded within dbclass %s and may not be an operator",
			op.Symbol, op.Fn.Name, class)
	}
	want := 2
	if op.Prefix {
		want = 1
	}
	if op.Fn.Arity() != want {
		return fmt.Errorf("operator %s: function %s has %d arguments, need %d",
			op.Symbol, op.Fn.Name, op.Fn.Arity(), want)
	}
	if op.Precedence < 1 || op.Precedence > 7 {
		return fmt.Errorf("operator %s: precedence %d out of range 1..7", op.Symbol, op.Precedence)
	}
	o := op
	ovs := t.ops[op.Symbol]
	t.ops[op.Symbol] = append(ovs[:len(ovs):len(ovs)], &o)
	return nil
}

// OperatorInfo reports the parse-level properties of a registered
// operator symbol: its precedence, associativity and fixity. All
// overloads of a symbol must agree on these; the first registration wins
// and later disagreeing registrations are rejected by ResolveOperator at
// semantic-analysis time.
func (r *Registry) OperatorInfo(symbol string) (prec int, rightAssoc, prefix, ok bool) {
	ovs := r.cur.Load().ops[symbol]
	if len(ovs) == 0 {
		return 0, false, false, false
	}
	return ovs[0].Precedence, ovs[0].RightAssoc, ovs[0].Prefix, true
}

// ResolveOperator finds the operator overload applicable to the argument
// types. Candidates whose declared parameter types the arguments are
// assignable to are ranked by exactness (exact matches beat widenings).
func (r *Registry) ResolveOperator(symbol string, args []types.Type) (*Func, error) {
	ovs := r.cur.Load().ops[symbol]
	var cands []*Func
	for _, o := range ovs {
		if o.Fn.Arity() == len(args) {
			cands = append(cands, o.Fn)
		}
	}
	return resolve(symbol, cands, args)
}

// ResolveFunc finds the member-function overload of class applicable to
// the argument types. The receiver is args[0] under the paper's
// "CnumPair.val1.Add(x)" member syntax, but the symmetric call syntax
// "Add(a, b)" resolves identically.
func (r *Registry) ResolveFunc(class, name string, args []types.Type) (*Func, error) {
	c, ok := r.Lookup(class)
	if !ok {
		return nil, fmt.Errorf("adt %s not defined", class)
	}
	return resolve(class+"."+name, c.funcs[name], args)
}

// ResolveAnyFunc searches every class for a function overload matching
// name and argument types; used for the symmetric call syntax when the
// receiver type alone does not determine the class.
func (r *Registry) ResolveAnyFunc(name string, args []types.Type) (*Func, error) {
	classes := r.cur.Load().classes
	// Collect candidates in class-name order, so overload resolution
	// (and any ambiguity it reports) never depends on map iteration.
	classNames := make([]string, 0, len(classes))
	for n := range classes {
		classNames = append(classNames, n)
	}
	sort.Strings(classNames)
	var cands []*Func
	for _, n := range classNames {
		cands = append(cands, classes[n].funcs[name]...)
	}
	return resolve(name, cands, args)
}

func resolve(what string, cands []*Func, args []types.Type) (*Func, error) {
	var best *Func
	bestScore := -1
	ambiguous := false
	for _, f := range cands {
		if len(f.Params) != len(args) {
			continue
		}
		score := 0
		ok := true
		for i, p := range f.Params {
			switch {
			case args[i].Equal(p):
				score += 2
			case types.AssignableTo(args[i], p):
				score++
			default:
				ok = false
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		switch {
		case score > bestScore:
			best, bestScore, ambiguous = f, score, false
		case score == bestScore:
			ambiguous = true
		}
	}
	if best == nil {
		return nil, fmt.Errorf("no applicable overload of %s for (%s)", what, typeList(args))
	}
	if ambiguous {
		return nil, fmt.Errorf("ambiguous overload of %s for (%s)", what, typeList(args))
	}
	return best, nil
}

func typeList(ts []types.Type) string {
	s := ""
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s
}

func sameSig(a, b []types.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// RegisterSetFunc adds a generic set function (user-defined aggregate).
func (r *Registry) RegisterSetFunc(f *SetFunc) error {
	return r.edit(func(t *regTables) error {
		if _, dup := t.setFuncs[f.Name]; dup {
			return fmt.Errorf("set function %s already defined", f.Name)
		}
		t.setFuncs[f.Name] = f
		return nil
	})
}

// HasSetFunc reports whether a set function is registered under name.
func (r *Registry) HasSetFunc(name string) bool {
	_, ok := r.cur.Load().setFuncs[name]
	return ok
}

// SetFuncFor returns the set function name if it applies to sets with the
// given element type.
func (r *Registry) SetFuncFor(name string, elem types.Type) (*SetFunc, bool) {
	f, ok := r.cur.Load().setFuncs[name]
	if !ok || (f.Constraint != nil && !f.Constraint(elem)) {
		return nil, false
	}
	return f, true
}
