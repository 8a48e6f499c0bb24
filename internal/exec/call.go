package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// evalFuncCall invokes an EXCESS function. Late functions re-dispatch on
// the runtime type of the first argument (the paper's virtual-function
// distinction); early functions run the statically chosen definition.
func (ex *State) evalFuncCall(ctx *evalCtx, c *sema.FuncCall) (value.Value, error) {
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := ex.eval(ctx, a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return ex.dispatchCall(c, args)
}

// dispatchCall shapes evaluated arguments for the call's parameter slots
// and invokes the function, re-dispatching late-bound calls on the
// runtime type of the first argument. Shared by the interpreter and
// compiled closures.
func (ex *State) dispatchCall(c *sema.FuncCall, args []value.Value) (value.Value, error) {
	for i, v := range args {
		// Schema-typed parameters receive objects: a reference argument
		// is dereferenced (dangling references pass null).
		if r, isRef := v.(value.Ref); isRef {
			if _, isTT := c.Fn.Params[i].Type.(*types.TupleType); isTT {
				tv, live, err := ex.derefGet(r.OID)
				if err != nil {
					return nil, err
				}
				if live {
					args[i] = value.Object{OID: r.OID, Tuple: tv}
				} else {
					args[i] = value.Null{}
				}
			}
		}
	}
	fn := c.Fn
	if fn.Late && len(args) > 0 {
		if o, isObj := args[0].(value.Object); isObj && o.Tuple != nil {
			if dyn, ok := ex.cat.FindFunction(fn.Name, o.Tuple.Type); ok {
				fn = dyn
			}
		}
	}
	return ex.callFunction(fn, args)
}

// callFunction evaluates a function body with the arguments bound as
// parameters.
func (ex *State) callFunction(fn *catalog.Function, args []value.Value) (value.Value, error) {
	if ex.depth >= maxCallDepth {
		return nil, fmt.Errorf("function %s: call depth %d exceeded (recursive derived data?)", fn.Name, maxCallDepth)
	}
	if len(args) != len(fn.Params) {
		return nil, fmt.Errorf("function %s: %d arguments, want %d", fn.Name, len(args), len(fn.Params))
	}
	if !fn.HasBody() {
		// A call site checked against a declaration runs the definition
		// the statement's catalog has for it, if any.
		def, ok := ex.cat.FindFunction(fn.Name, fn.Receiver())
		if !ok || !def.HasBody() {
			return nil, fmt.Errorf("function %s is declared but not defined", fn.Name)
		}
		fn = def
	}
	ex.depth++
	ex.params = append(ex.params, args) // the arguments are the frame, by slot
	defer func() {
		ex.params = ex.params[:len(ex.params)-1]
		ex.depth--
	}()

	body, err := ex.bindBody(fn)
	if err != nil {
		return nil, err
	}
	if body.expr != nil {
		bb := newBinding()
		v, err := body.fn(ex, &evalCtx{b: bb})
		bb.release()
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", fn.Name, err)
		}
		return coerceTo(v, fn.Returns), nil
	}
	// Retrieve-bodied function: run the query and shape the result by
	// the declared return component.
	res, err := ex.RetrieveProgram(body.query, body.plan, body.prog)
	if err != nil {
		return nil, fmt.Errorf("function %s: %w", fn.Name, err)
	}
	if _, isSet := fn.Returns.Type.(*types.Set); isSet {
		out := &value.Set{}
		elem, _ := types.ElemOf(fn.Returns.Type)
		for _, row := range res.Rows {
			if len(row) > 0 {
				out.Elems = append(out.Elems, coerceTo(row[0], elem))
			}
		}
		return out, nil
	}
	switch len(res.Rows) {
	case 0:
		return value.Null{}, nil
	case 1:
		if len(res.Rows[0]) == 0 {
			return value.Null{}, nil
		}
		return coerceTo(res.Rows[0][0], fn.Returns), nil
	default:
		return nil, fmt.Errorf("function %s returned %d rows for a scalar result", fn.Name, len(res.Rows))
	}
}

// boundBody is a function body ready to run, kept the way a plan-cache
// entry keeps a retrieve: the checked body (an expression or a
// retrieve), and for one catalog version and optimizer-option
// fingerprint its compiled closure, or its plan and program. A call
// therefore checks, plans and compiles nothing; DDL or a toggled
// optimizer knob re-plans on the next call. A boundBody is immutable
// once cached and shared freely between statements.
type boundBody struct {
	expr   sema.Expr
	query  *sema.CheckedRetrieve
	fn     compiledExpr
	plan   *algebra.Plan
	prog   *Program
	catVer uint64
	optsFP uint64
}

// bindBody returns the bound body of a function for the current catalog
// version and options, binding it on first use (bodies are stored as
// AST, stored-command style) and re-planning it when either moved. The
// catalog's schema objects are immutable once defined, so the checked
// body of an earlier version is reused. The work happens outside fnMu,
// which guards only the map: two first calls racing may both build, and
// the second result replaces the first, which is harmless.
//
// extra:acquires fnMu.W
func (ex *State) bindBody(fn *catalog.Function) (*boundBody, error) {
	catVer, optsFP := ex.cat.Version(), ex.opts.Fingerprint()
	ex.fnMu.Lock()
	old := ex.fnCache[fn]
	ex.fnMu.Unlock()
	if old != nil && old.catVer == catVer && old.optsFP == optsFP {
		return old, nil
	}
	b := &boundBody{catVer: catVer, optsFP: optsFP}
	if old != nil {
		b.expr, b.query = old.expr, old.query
	} else {
		ck := sema.NewFrameChecker(ex.cat, sema.NewSession(), sema.Frame(fn.Params))
		var err error
		if fn.Expr != nil {
			b.expr, err = ck.BindExpr(fn.Expr)
		} else {
			b.query, err = ck.CheckRetrieve(fn.Query)
		}
		if err != nil {
			return nil, fmt.Errorf("function %s: %w", fn.Name, err)
		}
	}
	c := ex.compiler()
	if b.expr != nil {
		b.fn = c.expr(b.expr)
	} else {
		b.plan = ex.Plan(b.query.Query)
		b.prog = c.program(b.query, b.plan)
	}
	ex.fnMu.Lock()
	ex.fnCache[fn] = b
	ex.fnMu.Unlock()
	return b, nil
}

// evalAgg evaluates a set-argument aggregate: its argument is a
// collection computed for the current binding (count(E.kids),
// avg(Employees.salary)). Query-level aggregates are computed by the
// grouped retrieve path and delivered through ctx.aggVals.
func (ex *State) evalAgg(ctx *evalCtx, a *sema.Agg) (value.Value, error) {
	if !a.SetArg {
		if ctx.aggVals != nil {
			if v, ok := ctx.aggVals[a]; ok {
				return v, nil
			}
		}
		return nil, fmt.Errorf("query-level aggregate %s outside an aggregated retrieve", a.Op)
	}
	arg, err := ex.eval(ctx, a.Arg)
	if err != nil {
		return nil, err
	}
	if value.IsNull(arg) {
		return foldAgg(a, nil)
	}
	elems, ok := elemsOf(arg)
	if !ok {
		return nil, fmt.Errorf("aggregate %s over non-collection %s", a.Op, arg)
	}
	return foldAgg(a, elems)
}

// foldAgg folds the elements with the aggregate's operator. Nulls are
// ignored; count counts non-null elements; empty input yields 0 for
// count and null for the others (QUEL behaviour).
func foldAgg(a *sema.Agg, elems []value.Value) (value.Value, error) {
	var vals []value.Value
	for _, e := range elems {
		if !value.IsNull(e) {
			vals = append(vals, e)
		}
	}
	if a.SetFn != nil {
		for i, v := range vals {
			vals[i] = deobject(v)
		}
		return a.SetFn.Impl(vals)
	}
	switch a.Op {
	case "count":
		return value.NewInt(int64(len(vals))), nil
	case "sum", "avg":
		if len(vals) == 0 {
			if a.Op == "sum" {
				return value.NewInt(0), nil
			}
			return value.Null{}, nil
		}
		sumF := 0.0
		sumI := int64(0)
		allInt := true
		for _, v := range vals {
			if iv, isInt := v.(value.Int); isInt {
				sumI += iv.V
				sumF += float64(iv.V)
				continue
			}
			allInt = false
			f, ok := value.AsFloat(v)
			if !ok {
				return nil, fmt.Errorf("%s over non-numeric value %s", a.Op, v)
			}
			sumF += f
		}
		if a.Op == "avg" {
			return value.NewFloat(sumF / float64(len(vals))), nil
		}
		if allInt {
			return value.NewInt(sumI), nil
		}
		return value.NewFloat(sumF), nil
	case "min", "max":
		if len(vals) == 0 {
			return value.Null{}, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := value.Compare(deobject(v), deobject(best))
			if err != nil {
				return nil, err
			}
			if (a.Op == "min" && c < 0) || (a.Op == "max" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("unhandled aggregate %s", a.Op)
}
