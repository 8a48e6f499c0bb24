package catalog

import (
	"fmt"

	"repro/internal/excess/ast"
	"repro/internal/types"
)

// baseTypes maps the predefined base type names of EXTRA.
var baseTypes = map[string]types.Type{
	"int1":    types.Int1,
	"int2":    types.Int2,
	"int4":    types.Int4,
	"float4":  types.Float4,
	"float8":  types.Float8,
	"bool":    types.Boolean,
	"varchar": types.Varchar,
}

// ResolveType resolves a syntactic type expression against the catalog:
// base types, char[n], schema types, enums, ADTs, and the set/array/ref
// constructors.
func (c *Catalog) ResolveType(e ast.TypeExpr) (types.Type, error) {
	switch t := e.(type) {
	case *ast.NamedType:
		if t.Name == "char" {
			w := t.Width
			if w == 0 {
				return nil, ast.Errorf(t, "char requires a width: char[n]")
			}
			return types.Char(w), nil
		}
		if bt, ok := baseTypes[t.Name]; ok {
			return bt, nil
		}
		if tt, ok := c.TupleType(t.Name); ok {
			return tt, nil
		}
		if et, ok := c.EnumType(t.Name); ok {
			return et, nil
		}
		if at, ok := c.adts.Type(t.Name); ok {
			return at, nil
		}
		return nil, ast.Errorf(t, "unknown type %s", t.Name)
	case *ast.SetType:
		elem, err := c.ResolveComponent(t.Elem)
		if err != nil {
			return nil, err
		}
		return &types.Set{Elem: elem}, nil
	case *ast.ArrayType:
		elem, err := c.ResolveComponent(t.Elem)
		if err != nil {
			return nil, err
		}
		return &types.Array{Elem: elem, Len: t.Len, Fixed: t.Fixed}, nil
	case *ast.RefType:
		tt, ok := c.TupleType(t.Target)
		if !ok {
			return nil, ast.Errorf(t, "ref target %s is not a schema type", t.Target)
		}
		return &types.Ref{Target: tt}, nil
	}
	return nil, fmt.Errorf("unhandled type expression %T", e)
}

// ResolveComponent resolves a mode-qualified type expression. "ref T" in
// attribute position is normalized to a types.Ref with mode own carried
// as RefTo on the component, matching the data model's treatment of ref
// attributes as reference-valued slots.
func (c *Catalog) ResolveComponent(e *ast.ComponentExpr) (types.Component, error) {
	t, err := c.ResolveType(e.Type)
	if err != nil {
		return types.Component{}, err
	}
	var mode types.Mode
	switch e.Mode {
	case "", "own":
		mode = types.Own
	case "ref":
		mode = types.RefTo
	case "own ref":
		mode = types.OwnRef
	default:
		return types.Component{}, ast.Errorf(e, "unknown attribute mode %q", e.Mode)
	}
	// "x: ref Employee" can parse either as mode=ref + named type, or as
	// mode=own + RefType. Normalize the latter to the former.
	if rt, isRef := t.(*types.Ref); isRef && mode == types.Own {
		return types.Component{Mode: types.RefTo, Type: rt.Target}, nil
	}
	comp := types.Component{Mode: mode, Type: t}
	if err := comp.Validate(); err != nil {
		return types.Component{}, ast.Errorf(e, "%s", err)
	}
	return comp, nil
}

// DefineTupleFromAST resolves and registers a define-type statement. The
// type name is visible to its own attribute declarations, so
// self-referential types ("kids: { own ref Person }" inside Person) work;
// mutually recursive pairs require the referenced type to exist first.
func (c *Catalog) DefineTupleFromAST(d *ast.DefineType) (*types.TupleType, error) {
	if c.nameTaken(d.Name) {
		return nil, ast.Errorf(d, "name %s already in use", d.Name)
	}
	fwd := types.NewForward(d.Name)
	c.tuples[d.Name] = fwd // provisionally visible for self-reference

	fail := func(err error) (*types.TupleType, error) {
		delete(c.tuples, d.Name)
		return nil, err
	}
	var supers []types.Super
	for _, ic := range d.Inherits {
		st, ok := c.TupleType(ic.Super)
		if !ok {
			return fail(ast.Errorf(&ic, "unknown supertype %s", ic.Super))
		}
		if st == fwd {
			return fail(ast.Errorf(&ic, "type %s cannot inherit itself", d.Name))
		}
		s := types.Super{Type: st}
		for _, rc := range ic.Renames {
			s.Renames = append(s.Renames, types.Rename{Super: ic.Super, Old: rc.Old, New: rc.New})
		}
		supers = append(supers, s)
	}
	var attrs []types.Attr
	for _, ad := range d.Attrs {
		comp, err := c.ResolveComponent(ad.Comp)
		if err != nil {
			return fail(err)
		}
		attrs = append(attrs, types.Attr{Name: ad.Name, Comp: comp})
	}
	if err := fwd.Complete(supers, attrs); err != nil {
		return fail(ast.Errorf(d, "%s", err))
	}
	c.bump()
	return fwd, nil
}
