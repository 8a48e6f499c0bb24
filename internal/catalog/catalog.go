// Package catalog implements the EXTRA schema catalog: named types
// (tuple schema types, enumerations, ADTs), named database variables
// (extents, references, arrays and single values — EXTRA separates type
// from instance, so a database may hold many collections of one type),
// EXCESS functions and procedures, and secondary indexes.
package catalog

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/adt"
	"repro/internal/authz"
	"repro/internal/excess/ast"
	"repro/internal/storage"
	"repro/internal/types"
)

// Variable is a named database variable created with "create Name :
// Component": a set extent ({own Employee}), a reference variable
// (ref Employee), an array (e.g. [10] ref Employee) or a single value
// (Date).
type Variable struct {
	Name string
	Comp types.Component
}

// IsObjectSet reports whether the variable is a set extent whose
// elements are first-class objects stored in their own heap (own and own
// ref element sets — at the top level both give elements identity; the
// difference between them matters for nested attributes).
func (v *Variable) IsObjectSet() bool {
	s, ok := v.Comp.Type.(*types.Set)
	if !ok {
		return false
	}
	_, isTuple := s.Elem.Type.(*types.TupleType)
	return isTuple && (s.Elem.Mode == types.Own || s.Elem.Mode == types.OwnRef)
}

// IsRefSet reports whether the variable is a set of references to
// objects owned elsewhere.
func (v *Variable) IsRefSet() bool {
	s, ok := v.Comp.Type.(*types.Set)
	return ok && s.Elem.Mode == types.RefTo
}

// IsValueSet reports whether the variable is a set of non-object values
// (scalars, embedded tuples of non-schema shape are impossible, so this
// means scalar/ADT element sets).
func (v *Variable) IsValueSet() bool {
	s, ok := v.Comp.Type.(*types.Set)
	if !ok {
		return false
	}
	_, isTuple := s.Elem.Type.(*types.TupleType)
	return !isTuple
}

// ElemType returns the element component for set/array variables.
func (v *Variable) ElemType() (types.Component, bool) {
	return types.ElemOf(v.Comp.Type)
}

// FuncParam is a declared parameter of an EXCESS function or procedure.
type FuncParam struct {
	Name string
	Type types.Type
}

// Function is an EXCESS function: a named, side-effect-free derived-data
// definition whose body is an expression or a retrieve. Functions whose
// first parameter is a schema type act as derived attributes of that type
// and are inherited down the lattice; Late requests dynamic dispatch on
// the runtime type (the paper's virtual-function distinction).
type Function struct {
	Name    string
	Late    bool
	Params  []FuncParam
	Returns types.Component
	Expr    ast.Expr
	Query   *ast.Retrieve
}

// Receiver returns the schema type of the first parameter, or nil when
// the function is free-standing.
func (f *Function) Receiver() *types.TupleType {
	if len(f.Params) == 0 {
		return nil
	}
	tt, _ := f.Params[0].Type.(*types.TupleType)
	return tt
}

// Procedure is an EXCESS procedure: an IDM-style stored command with
// parameters bound per-row by the where clause of its execute statement.
type Procedure struct {
	Name   string
	Params []FuncParam
	Body   []ast.Statement
	// Owner is the defining user; execute runs the body with the owner's
	// privileges (definer rights), which is how IDM stored commands
	// regulate database activity and how the paper's §4.2.3 builds data
	// abstraction out of authorization.
	Owner string
}

// Index is a secondary access method: a B+-tree over an own scalar
// attribute path of an object-set extent, mapping encoded keys to OIDs.
type Index struct {
	Name   string
	Extent string
	Path   []string
	Tree   *storage.BTree
	// Unique indexes implement the key constraints the paper associates
	// with set instances: two live objects may not share a key value.
	Unique bool
	// KeyPaths, when non-empty, makes this a composite key constraint
	// over several attribute paths (Path is then unused). Objects with
	// any null key attribute are exempt, the usual sparse-key rule.
	KeyPaths [][]string
}

// Catalog is the schema dictionary together with the grant table: the
// database's contents other than data. It is a value in two states.
// The working catalog belongs to the object store and is edited only
// by write statements, which the database serializes; Freeze hands out
// an immutable copy of it, which the store publishes in every snapshot
// beside the data it describes. Readers only ever see frozen catalogs,
// so no method takes a lock. A frozen catalog must not be edited.
type Catalog struct {
	adts    *adt.Registry
	auth    *authz.Authorizer
	tuples  map[string]*types.TupleType
	enums   map[string]*types.Enum
	vars    map[string]*Variable
	funcs   map[string][]*Function
	procs   map[string]*Procedure
	indexes map[string]*Index
	byExt   map[string][]*Index // extent -> indexes

	// version counts schema mutations, and Reset moves it too: it never
	// moves back. Plans checked against one catalog version are stale at
	// any other; the plan cache keys on it so DDL invalidates every
	// cached statement at once. Grants do not move it.
	version uint64
}

// Version returns the schema-mutation counter. Every define / create /
// drop / index operation bumps it, and no two catalog states share a
// version.
func (c *Catalog) Version() uint64 { return c.version }

// bump records a schema mutation.
func (c *Catalog) bump() { c.version++ }

// Edits counts every change to the catalog and its grant table: a
// frozen copy is current for as long as it does not move.
func (c *Catalog) Edits() uint64 { return c.version + c.auth.Edits() }

// New returns a catalog bound to an ADT registry, with a fresh grant
// table.
func New(reg *adt.Registry) *Catalog {
	return &Catalog{
		adts:    reg,
		auth:    authz.New(),
		tuples:  make(map[string]*types.TupleType),
		enums:   make(map[string]*types.Enum),
		vars:    make(map[string]*Variable),
		funcs:   make(map[string][]*Function),
		procs:   make(map[string]*Procedure),
		indexes: make(map[string]*Index),
		byExt:   make(map[string][]*Index),
	}
}

// Freeze returns an immutable copy of the catalog and its grant table.
// Schema objects are shared, never copied: a definition is immutable
// once registered. A copy costs a few map copies of the schema's size;
// the store makes one when Edits has moved, so it is paid once per DDL
// statement or grant change, never by a reader.
func (c *Catalog) Freeze() *Catalog {
	return &Catalog{
		adts:    c.adts,
		auth:    c.auth.Freeze(),
		tuples:  maps.Clone(c.tuples),
		enums:   maps.Clone(c.enums),
		vars:    maps.Clone(c.vars),
		funcs:   maps.Clone(c.funcs),
		procs:   maps.Clone(c.procs),
		indexes: maps.Clone(c.indexes),
		byExt:   maps.Clone(c.byExt),
		version: c.version,
	}
}

// Reset puts the catalog and its grant table back to f, a frozen copy
// of an earlier state, in place: whoever holds the working catalog
// keeps it. The version moves on, never back, so nothing cached under
// a version the discarded edits had is served again.
func (c *Catalog) Reset(f *Catalog) {
	ver, auth := c.version, c.auth
	*c = *f.Freeze()
	*auth = *c.auth
	c.auth, c.version = auth, ver+1
}

// ADTs returns the ADT registry.
func (c *Catalog) ADTs() *adt.Registry { return c.adts }

// Auth returns the grant table: users, groups, owners and privileges.
func (c *Catalog) Auth() *authz.Authorizer { return c.auth }

// nameTaken reports whether any schema object uses the name.
func (c *Catalog) nameTaken(name string) bool {
	if _, ok := c.tuples[name]; ok {
		return true
	}
	if _, ok := c.enums[name]; ok {
		return true
	}
	if _, ok := c.vars[name]; ok {
		return true
	}
	if _, ok := c.adts.Lookup(name); ok {
		return true
	}
	return false
}

// DefineTuple registers a schema type.
func (c *Catalog) DefineTuple(t *types.TupleType) error {
	if c.nameTaken(t.Name) {
		return fmt.Errorf("name %s already in use", t.Name)
	}
	c.tuples[t.Name] = t
	c.bump()
	return nil
}

// TupleType implements codec.TypeResolver.
func (c *Catalog) TupleType(name string) (*types.TupleType, bool) {
	t, ok := c.tuples[name]
	return t, ok
}

// TupleTypeNames returns the sorted schema type names.
//
// extra:output
func (c *Catalog) TupleTypeNames() []string {
	out := make([]string, 0, len(c.tuples))
	for n := range c.tuples {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefineEnum registers an enumeration type.
func (c *Catalog) DefineEnum(e *types.Enum) error {
	if c.nameTaken(e.Name) {
		return fmt.Errorf("name %s already in use", e.Name)
	}
	c.enums[e.Name] = e
	c.bump()
	return nil
}

// EnumType implements codec.TypeResolver.
func (c *Catalog) EnumType(name string) (*types.Enum, bool) {
	e, ok := c.enums[name]
	return e, ok
}

// EnumNames returns the sorted enumeration type names.
//
// extra:output
func (c *Catalog) EnumNames() []string {
	out := make([]string, 0, len(c.enums))
	for n := range c.enums {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateVar registers a database variable.
func (c *Catalog) CreateVar(name string, comp types.Component) (*Variable, error) {
	if c.nameTaken(name) {
		return nil, fmt.Errorf("name %s already in use", name)
	}
	v := &Variable{Name: name, Comp: comp}
	c.vars[name] = v
	c.bump()
	return v, nil
}

// DropVar removes a database variable and its indexes.
func (c *Catalog) DropVar(name string) error {
	if _, ok := c.vars[name]; !ok {
		return fmt.Errorf("no database variable %s", name)
	}
	c.bump()
	delete(c.vars, name)
	for _, ix := range c.byExt[name] {
		delete(c.indexes, ix.Name)
	}
	delete(c.byExt, name)
	return nil
}

// Var looks up a database variable.
func (c *Catalog) Var(name string) (*Variable, bool) {
	v, ok := c.vars[name]
	return v, ok
}

// VarNames returns the sorted database variable names.
//
// extra:output
func (c *Catalog) VarNames() []string {
	out := make([]string, 0, len(c.vars))
	for n := range c.vars {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HasBody reports whether the function has a definition (declarations
// created by "declare function" have none until filled in).
func (f *Function) HasBody() bool { return f.Expr != nil || f.Query != nil }

// DefineFunction registers an EXCESS function and returns it. Functions
// may be overloaded on their receiver (first-parameter) type, which is
// how a subtype redefines an inherited function; two definitions with
// the same receiver are rejected — except that a define replaces a
// prior bodyless declaration. Call sites bound against the declaration
// find the body through FindFunction at call time, so no registered
// Function is ever edited in place.
func (c *Catalog) DefineFunction(f *Function) (*Function, error) {
	list := c.funcs[f.Name]
	for i, g := range list {
		gr, fr := g.Receiver(), f.Receiver()
		same := (gr == nil && fr == nil) || (gr != nil && fr != nil && gr.Name == fr.Name)
		if !same {
			continue
		}
		if !g.HasBody() && f.HasBody() {
			if len(g.Params) != len(f.Params) || !g.Returns.Equal(f.Returns) {
				return nil, fmt.Errorf("definition of %s does not match its declaration", f.Name)
			}
			list = slices.Clone(list) // frozen catalogs share the old slice
			list[i] = f
			c.funcs[f.Name] = list
			c.bump()
			return f, nil
		}
		if fr == nil {
			return nil, fmt.Errorf("function %s already defined", f.Name)
		}
		return nil, fmt.Errorf("function %s already defined for type %s", f.Name, fr.Name)
	}
	c.funcs[f.Name] = append(list, f)
	c.bump()
	return f, nil
}

// Functions returns the overloads registered under name.
func (c *Catalog) Functions(name string) []*Function {
	return c.funcs[name]
}

// FindFunction resolves a function application on a receiver type,
// walking up the lattice: the overload with the most specific receiver
// supertype of recv wins. With recv nil, only the free-standing overload
// matches.
func (c *Catalog) FindFunction(name string, recv *types.TupleType) (*Function, bool) {
	var best *Function
	for _, f := range c.funcs[name] {
		fr := f.Receiver()
		if recv == nil {
			if fr == nil {
				return f, true
			}
			continue
		}
		if fr == nil || !recv.IsSubtypeOf(fr) {
			continue
		}
		if best == nil || fr.IsSubtypeOf(best.Receiver()) {
			best = f
		}
	}
	return best, best != nil
}

// DefineProcedure registers an EXCESS procedure.
func (c *Catalog) DefineProcedure(p *Procedure) error {
	if _, dup := c.procs[p.Name]; dup {
		return fmt.Errorf("procedure %s already defined", p.Name)
	}
	c.procs[p.Name] = p
	c.bump()
	return nil
}

// Procedure looks up a procedure by name.
func (c *Catalog) Procedure(name string) (*Procedure, bool) {
	p, ok := c.procs[name]
	return p, ok
}

// AddIndex registers a secondary index (already built by the object
// store).
func (c *Catalog) AddIndex(ix *Index) error {
	if _, dup := c.indexes[ix.Name]; dup {
		return fmt.Errorf("index %s already defined", ix.Name)
	}
	c.indexes[ix.Name] = ix
	c.byExt[ix.Extent] = append(c.byExt[ix.Extent], ix)
	c.bump()
	return nil
}

// IndexesOn returns the indexes over an extent.
func (c *Catalog) IndexesOn(extent string) []*Index {
	return c.byExt[extent]
}

// Index looks up an index by name.
func (c *Catalog) Index(name string) (*Index, bool) {
	ix, ok := c.indexes[name]
	return ix, ok
}

// FunctionNames returns the sorted names of all EXCESS functions.
//
// extra:output
func (c *Catalog) FunctionNames() []string {
	out := make([]string, 0, len(c.funcs))
	for n := range c.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ProcedureNames returns the sorted names of all procedures.
//
// extra:output
func (c *Catalog) ProcedureNames() []string {
	out := make([]string, 0, len(c.procs))
	for n := range c.procs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IndexNames returns the sorted names of all indexes.
//
// extra:output
func (c *Catalog) IndexNames() []string {
	out := make([]string, 0, len(c.indexes))
	for n := range c.indexes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
