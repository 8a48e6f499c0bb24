package exec

import (
	"fmt"
	"sort"

	"repro/internal/excess/sema"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
)

// Append executes a checked append, returning the number of elements
// appended (one per binding of the from/where clause; one when the
// statement has no bindings).
//
// extra:requires db.wmu.W
func (ex *State) appendStmt(ca *sema.CheckedAppend) (int, error) {
	type job struct {
		elem  value.Value
		owner prov // target location for nested appends
	}
	var jobs []job
	plan := ex.Plan(ca.Query)
	c := ex.compiler()
	prog := c.program(nil, plan)
	var elemFn, ownerFn compiledExpr
	if ca.Ctor != nil {
		elemFn = c.expr(ca.Ctor)
	} else {
		elemFn = c.expr(ca.Value)
	}
	if ca.Owner != nil {
		ownerFn = c.expr(ca.Owner)
	}
	// An index step of the collection path may read the statement's
	// variables (T.groups[T.i]), so it is resolved to its integer while
	// the binding exists, and the job records the constant.
	index := make([]compiledExpr, len(ca.Steps))
	for i, st := range ca.Steps {
		if st.Index != nil {
			index[i] = c.expr(st.Index)
		}
	}
	collect := func(ctx *evalCtx) error {
		elem, err := elemFn(ex, ctx)
		if err != nil {
			return err
		}
		celem, err := ex.coerce(elem, ca.Elem)
		if err != nil {
			return err
		}
		j := job{elem: celem}
		if ca.Extent == "" {
			// Locate the owning object / database variable now; the
			// mutation happens after enumeration so iteration never sees
			// its own updates (QUEL statement semantics).
			var ownerOID oid.OID
			ownerVar := ca.OwnerVar
			var steps []sema.Step
			if ownerFn != nil {
				ov, err := ownerFn(ex, ctx)
				if err != nil {
					return err
				}
				owner0, err := ex.resolveOwner(ov, ctx.b, ca.Owner)
				if err != nil {
					return err
				}
				ownerOID, ownerVar = owner0.oid, owner0.dbvar
				steps = owner0.steps
			}
			// Record the collection location relative to the owner.
			for i, st := range ca.Steps {
				if index[i] != nil {
					iv, err := index[i](ex, ctx)
					if err != nil {
						return err
					}
					st.Index = &sema.Const{Val: iv}
				}
				steps = append(steps, st)
			}
			j.owner = prov{parentOID: ownerOID, parentVar: ownerVar, steps: steps}
		}
		jobs = append(jobs, j)
		return nil
	}
	if err := ex.Run(plan, prog, collect); err != nil {
		return 0, err
	}
	for _, j := range jobs {
		if ca.Extent != "" {
			if err := ex.appendToExtent(ca, j.elem); err != nil {
				return 0, err
			}
			continue
		}
		if err := ex.mutateCollection(j.owner, func(coll *[]value.Value) error {
			*coll = append(*coll, j.elem)
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return len(jobs), nil
}

// resolveOwner maps an owner expression value to its location.
func (ex *State) resolveOwner(v value.Value, b *binding, e sema.Expr) (collOwner, error) {
	if o, isObj := v.(value.Object); isObj {
		return collOwner{oid: o.OID}, nil
	}
	if vr, isVar := e.(*sema.VarRef); isVar {
		// An own element without identity: address it positionally within
		// its container so the nested mutation lands inside the element.
		pr := b.getSlot(vr.Var).location()
		steps := append(append([]sema.Step(nil), pr.steps...),
			sema.Step{Index: &sema.Const{Val: value.NewInt(int64(pr.elemIdx + 1))}})
		return collOwner{oid: pr.parentOID, dbvar: pr.parentVar, steps: steps}, nil
	}
	if dv, isDB := e.(*sema.DBVarRead); isDB {
		return collOwner{dbvar: dv.Name}, nil
	}
	return collOwner{}, fmt.Errorf("cannot locate the collection owner for append")
}

// appendToExtent inserts a new element into a top-level collection.
//
// extra:requires db.wmu.W
func (ex *State) appendToExtent(ca *sema.CheckedAppend, elem value.Value) error {
	if ex.store.IsObjectExtent(ca.Extent) {
		switch ev := elem.(type) {
		case *value.Tuple:
			_, err := ex.store.Insert(ca.Extent, ev)
			return err
		case value.Ref:
			// Appending an existing object to an object extent copies its
			// value (own semantics, including fresh copies of own-ref
			// components) — the reference form stores a membership only in
			// ref-set extents.
			tv, ok, err := ex.store.Get(ev.OID)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("append of a dangling reference")
			}
			cp, err := ex.ownCopy(types.Component{Mode: types.Own, Type: tv.Type}, value.Copy(tv))
			if err != nil {
				return err
			}
			_, err = ex.store.Insert(ca.Extent, cp.(*value.Tuple))
			return err
		default:
			return fmt.Errorf("cannot append %s to object extent %s", elem, ca.Extent)
		}
	}
	return ex.store.InsertElem(ca.Extent, elem)
}

// mutateCollection loads the container identified by loc (an object or a
// database variable), walks loc.steps to the collection, applies fn, and
// stores the container back. When the walk crosses a reference (the
// container path runs through a ref or own-ref component), the mutation
// redirects to the referenced object.
//
// extra:requires db.wmu.W
func (ex *State) mutateCollection(loc prov, fn func(coll *[]value.Value) error) error {
	var redirect *prov
	apply := func(root value.Value) (value.Value, error) {
		cur := root
		setCur := func(value.Value) {} // writes back the current position
		for si, st := range loc.steps {
			if r, isRef := cur.(value.Ref); isRef {
				// The collection lives inside the referenced object.
				redirect = &prov{parentOID: r.OID, steps: loc.steps[si:], elemIdx: loc.elemIdx}
				return root, nil
			}
			if st.Attr != "" {
				tv, ok := value.AsTuple(cur)
				if !ok {
					return nil, fmt.Errorf("path step %s into non-tuple", st.Attr)
				}
				attr := st.Attr
				setCur = func(nv value.Value) { tv.Set(attr, nv) }
				cur = tv.Get(attr)
			}
			if st.Index != nil {
				// Locations record index steps as constants (stepOnce,
				// resolveOwner, appendStmt).
				var i int64
				if c, isConst := st.Index.(*sema.Const); isConst {
					i, _ = value.AsInt(c.Val)
				}
				elems, ok := elemsOf(cur)
				if !ok || i < 1 || int(i) > len(elems) {
					return nil, fmt.Errorf("bad index step in update path")
				}
				idx := int(i) - 1
				setCur = func(nv value.Value) { elems[idx] = nv }
				cur = elems[idx]
			}
			if value.IsNull(cur) {
				// Initialize absent nested sets on first append.
				cur = &value.Set{}
				setCur(cur)
			}
		}
		if r, isRef := cur.(value.Ref); isRef {
			// Path ends on a reference whose target holds the collection —
			// cannot happen for well-typed paths, but redirect defensively.
			redirect = &prov{parentOID: r.OID, elemIdx: loc.elemIdx}
			return root, nil
		}
		switch coll := cur.(type) {
		case *value.Set:
			if err := fn(&coll.Elems); err != nil {
				return nil, err
			}
		case *value.Array:
			if coll.Fixed {
				return nil, fmt.Errorf("cannot change the size of a fixed array")
			}
			if err := fn(&coll.Elems); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("update path does not reach a collection")
		}
		return root, nil
	}
	switch {
	case !loc.parentOID.IsNil():
		tv, ok, err := ex.store.Get(loc.parentOID)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("owner object %s no longer exists", loc.parentOID)
		}
		nv, err := apply(tv)
		if err != nil {
			return err
		}
		if redirect != nil {
			return ex.mutateCollection(*redirect, fn)
		}
		return ex.store.Update(loc.parentOID, nv.(*value.Tuple))
	case loc.parentVar != "":
		v, err := ex.store.GetVar(loc.parentVar)
		if err != nil {
			return err
		}
		nv, err := apply(v)
		if err != nil {
			return err
		}
		if redirect != nil {
			return ex.mutateCollection(*redirect, fn)
		}
		return ex.store.SetVar(loc.parentVar, nv)
	default:
		return fmt.Errorf("update path has no owner")
	}
}

// Delete executes a checked delete: removes the variable's bindings from
// their collection, destroying owned objects.
//
// extra:requires db.wmu.W
func (ex *State) deleteStmt(cd *sema.CheckedDelete) (int, error) {
	var objs []oid.OID
	var elems []storage.RID
	var nested []prov
	v := cd.Var
	inExtent := v.Kind == sema.VarExtent
	objExtent := inExtent && ex.reader().IsObjectExtent(v.Extent)
	plan := ex.Plan(cd.Query)
	err := ex.Run(plan, ex.CompilePlan(nil, plan), func(ctx *evalCtx) error {
		s := ctx.b.getSlot(v)
		switch {
		case objExtent && !s.oid.IsNil():
			objs = append(objs, s.oid)
		case inExtent:
			elems = append(elems, s.rid)
		default:
			nested = append(nested, s.location())
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for _, id := range objs {
		if !ex.store.Exists(id) {
			continue // already destroyed via an owner earlier in the list
		}
		if err := ex.store.Delete(id); err != nil {
			return n, err
		}
		n++
	}
	for _, rid := range elems {
		if err := ex.store.DeleteElem(v.Extent, rid); err != nil {
			return n, err
		}
		n++
	}
	// Nested deletions grouped by owner and path so each container is
	// rewritten once, with element indexes applied high-to-low.
	type groupKey struct {
		oid oid.OID
		v   string
		p   string
	}
	grouped := map[groupKey][]prov{}
	var gorder []groupKey
	for _, loc := range nested {
		k := groupKey{oid: loc.parentOID, v: loc.parentVar, p: stepsKey(loc.steps)}
		if _, ok := grouped[k]; !ok {
			gorder = append(gorder, k)
		}
		grouped[k] = append(grouped[k], loc)
	}
	for _, k := range gorder {
		locs := grouped[k]
		sort.Slice(locs, func(i, j int) bool { return locs[i].elemIdx > locs[j].elemIdx })
		loc := locs[0]
		err := ex.mutateCollection(loc, func(coll *[]value.Value) error {
			for _, l := range locs {
				if l.elemIdx < 0 || l.elemIdx >= len(*coll) {
					return fmt.Errorf("stale element index in delete")
				}
				*coll = append((*coll)[:l.elemIdx], (*coll)[l.elemIdx+1:]...)
				n++
			}
			return nil
		})
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func stepsKey(steps []sema.Step) string {
	s := ""
	for _, st := range steps {
		if st.Attr != "" {
			s += "." + st.Attr
		}
		if st.Index != nil {
			if c, ok := st.Index.(*sema.Const); ok {
				s += "[" + c.Val.String() + "]"
			} else {
				s += "[?]"
			}
		}
	}
	return s
}

// Replace executes a checked replace: per matching binding, assigns the
// attributes and stores the object (or rewrites the owning container for
// own elements without identity).
//
// extra:requires db.wmu.W
func (ex *State) replaceStmt(cr *sema.CheckedReplace) (int, error) {
	type job struct {
		oid  oid.OID // the object to rewrite, or nil for an own element at loc
		loc  prov
		vals []value.Value
	}
	var jobs []job
	plan := ex.Plan(cr.Query)
	c := ex.compiler()
	prog := c.program(nil, plan)
	assigns := make([]compiledExpr, len(cr.Assigns))
	for i, as := range cr.Assigns {
		assigns[i] = c.expr(as.Expr)
	}
	err := ex.Run(plan, prog, func(ctx *evalCtx) error {
		s := ctx.b.getSlot(cr.Var)
		j := job{oid: s.oid, loc: s.location()}
		for i, as := range cr.Assigns {
			v, err := assigns[i](ex, ctx)
			if err != nil {
				return err
			}
			cv, err := ex.coerce(v, as.Comp)
			if err != nil {
				return err
			}
			j.vals = append(j.vals, cv)
		}
		jobs = append(jobs, j)
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, j := range jobs {
		if !j.oid.IsNil() {
			tv, ok, err := ex.store.Get(j.oid)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
			for i, as := range cr.Assigns {
				tv.Set(as.Attr, j.vals[i])
			}
			if err := ex.store.Update(j.oid, tv); err != nil {
				return 0, err
			}
			continue
		}
		// Own element without identity: rewrite it inside its container.
		loc := j.loc
		err := ex.mutateCollection(loc, func(coll *[]value.Value) error {
			if loc.elemIdx < 0 || loc.elemIdx >= len(*coll) {
				return fmt.Errorf("stale element index in replace")
			}
			tv, ok := value.AsTuple((*coll)[loc.elemIdx])
			if !ok {
				return fmt.Errorf("replace target is not a tuple")
			}
			for i, as := range cr.Assigns {
				tv.Set(as.Attr, j.vals[i])
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return len(jobs), nil
}

// Set executes a checked set statement: the from/where clause must bind
// at most one row (zero bindings with variables is an error; a set with
// no variables always has its one empty binding).
//
// extra:requires db.wmu.W
func (ex *State) setStmt(cs *sema.CheckedSet) error {
	var rows []*binding
	plan := ex.Plan(cs.Query)
	c := ex.compiler()
	rhs := c.expr(cs.RHS)
	var index compiledExpr
	if cs.Index != nil {
		index = c.expr(cs.Index)
	}
	err := ex.Run(plan, c.program(nil, plan), func(ctx *evalCtx) error {
		rows = append(rows, ctx.b.clone())
		if len(rows) > 1 {
			return fmt.Errorf("set statement matched more than one binding")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		if len(cs.Query.Vars) > 0 {
			return fmt.Errorf("set statement matched no binding")
		}
		rows = []*binding{newBinding()}
	}
	ctx := &evalCtx{b: rows[0]}
	v, err := rhs(ex, ctx)
	if err != nil {
		return err
	}
	if v, err = ex.coerce(v, cs.Comp); err != nil {
		return err
	}
	if index == nil {
		return ex.store.SetVar(cs.VarName, v)
	}
	iv, err := index(ex, ctx)
	if err != nil {
		return err
	}
	i, ok := value.AsInt(iv)
	if !ok {
		return fmt.Errorf("array index must be an integer")
	}
	cur, err := ex.store.GetVar(cs.VarName)
	if err != nil {
		return err
	}
	arr, isArr := cur.(*value.Array)
	if !isArr {
		return fmt.Errorf("%s is not an array", cs.VarName)
	}
	if i < 1 || int(i) > len(arr.Elems) {
		if arr.Fixed {
			return fmt.Errorf("index %d out of bounds for %s", i, cs.VarName)
		}
		for int64(len(arr.Elems)) < i {
			arr.Elems = append(arr.Elems, value.Null{})
		}
	}
	arr.Elems[i-1] = v
	return ex.store.SetVar(cs.VarName, arr)
}

// Execute runs a checked procedure invocation: the body executes once
// per binding of the from/where clause with the arguments bound as
// parameters (the generalized IDM stored command).
//
// extra:requires db.wmu.W
func (ex *State) executeStmt(ce *sema.CheckedExecute, runBody func(frame []value.Value) error) (int, error) {
	var frames [][]value.Value
	plan := ex.Plan(ce.Query)
	c := ex.compiler()
	prog := c.program(nil, plan)
	args := c.exprs(ce.Args)
	err := ex.Run(plan, prog, func(ctx *evalCtx) error {
		f := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a(ex, ctx)
			if err != nil {
				return err
			}
			f[i] = coerceParam(v, ce.Proc.Params[i].Type)
		}
		frames = append(frames, f)
		return nil
	})
	if err != nil {
		return 0, err
	}
	for _, f := range frames {
		if err := runBody(f); err != nil {
			return 0, err
		}
	}
	return len(frames), nil
}

// coerceParam shapes an argument for a parameter slot: objects stay
// objects when the parameter is a schema type (so paths work on them),
// and become refs for ref parameters.
func coerceParam(v value.Value, t types.Type) value.Value {
	if _, isRef := t.(*types.Ref); isRef {
		if o, ok := v.(value.Object); ok {
			return o.Ref()
		}
	}
	return v
}

// PushFrame installs a parameter frame, values by slot: a prepared
// statement's arguments, a procedure body's parameters, or the literals
// the database layer lifted out of an ad-hoc statement.
func (ex *State) PushFrame(vals []value.Value) { ex.params = append(ex.params, vals) }

// PushParams installs a frame given by placeholder name ("$N" fills slot
// N-1; other names are ignored), for callers that bind a prepared
// statement's arguments by name.
func (ex *State) PushParams(f map[string]value.Value) {
	var vals []value.Value
	for name, v := range f {
		if n, ok := sema.PlaceholderSlot(name); ok {
			for len(vals) <= n {
				vals = append(vals, value.Null{})
			}
			vals[n] = v
		}
	}
	ex.PushFrame(vals)
}

// PopParams removes the top parameter frame.
func (ex *State) PopParams() { ex.params = ex.params[:len(ex.params)-1] }

// param reads a parameter from the innermost frame: a ParamRef is
// checked against exactly the frame its reader runs inside.
func (ex *State) param(p *sema.ParamRef) (value.Value, error) {
	if n := len(ex.params); n > 0 && p.Slot < len(ex.params[n-1]) {
		return ex.params[n-1][p.Slot], nil
	}
	return nil, fmt.Errorf("parameter %s not bound", p.Name)
}
