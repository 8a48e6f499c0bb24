package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// dispatchCall shapes evaluated arguments for the call's parameter slots
// and invokes the function. Late functions re-dispatch on the runtime
// type of the first argument (the paper's virtual-function distinction);
// early functions run the statically chosen definition.
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
// retrieve), and for one catalog version its compiled closure, or its
// plan and program. A call therefore checks, plans and compiles
// nothing; DDL re-plans on the next call. A boundBody is immutable
// once cached and shared freely between statements.
type boundBody struct {
	expr   sema.Expr
	query  *sema.CheckedRetrieve
	fn     compiledExpr
	plan   *algebra.Plan
	prog   *Program
	catVer uint64
}

// bindBody returns the bound body of a function for the current catalog
// version, binding it on first use (bodies are stored as AST,
// stored-command style) and re-planning it when the version moved. The
// catalog's schema objects are immutable once defined, so the checked
// body of an earlier version is reused. The work happens outside fnMu,
// which guards only the map: two first calls racing may both build, and
// the second result replaces the first, which is harmless.
//
// extra:acquires fnMu.W
func (ex *State) bindBody(fn *catalog.Function) (*boundBody, error) {
	catVer := ex.cat.Version()
	ex.fnMu.Lock()
	old := ex.fnCache[fn]
	ex.fnMu.Unlock()
	if old != nil && old.catVer == catVer {
		return old, nil
	}
	b := &boundBody{catVer: catVer}
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

// foldAgg folds the elements with the aggregate's operator, through
// the accumulator a grouped retrieve adds its rows to (aggState).
func foldAgg(a *sema.Agg, elems []value.Value) (value.Value, error) {
	st := newAggState(a)
	for _, e := range elems {
		if err := st.add(e); err != nil {
			return nil, err
		}
	}
	return st.result()
}

// aggOp is an aggregate's operator, resolved once per accumulator.
type aggOp uint8

const (
	aggCount aggOp = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggSetFn   // an ADT set function (sema.Agg.SetFn)
	aggUnknown // result reports it
)

// aggState folds one aggregate's arguments as they arrive, in O(1)
// space: the count of non-null values, their int and float sums and
// whether every one was an int, and the best value so far. Nulls are
// ignored and count counts the rest; a sum of ints is an int and a sum
// with any float a float; an empty sum is 0 and an empty avg, min or
// max null (QUEL behaviour); min and max keep the first of equal
// values. Only an ADT set function keeps its arguments, because its
// Impl takes them as a slice.
type aggState struct {
	a      *sema.Agg
	op     aggOp
	notInt bool // a summed value was not an int
	n      int64
	sumI   int64
	sumF   float64
	best   value.Value
	vals   []value.Value    // ADT set functions only
	over   map[hashKey]bool // dedup keys seen (for "over")
}

func newAggState(a *sema.Agg) aggState {
	op := aggUnknown
	switch {
	case a.SetFn != nil:
		op = aggSetFn
	case a.Op == "count":
		op = aggCount
	case a.Op == "sum":
		op = aggSum
	case a.Op == "avg":
		op = aggAvg
	case a.Op == "min":
		op = aggMin
	case a.Op == "max":
		op = aggMax
	}
	return aggState{a: a, op: op}
}

// add folds one argument in.
func (st *aggState) add(v value.Value) error {
	if value.IsNull(v) {
		return nil
	}
	switch st.op {
	case aggSetFn:
		st.vals = append(st.vals, deobject(v))
	case aggSum, aggAvg:
		if iv, isInt := v.(value.Int); isInt {
			st.sumI += iv.V
			st.sumF += float64(iv.V)
			break
		}
		f, ok := value.AsFloat(v)
		if !ok {
			return fmt.Errorf("%s over non-numeric value %s", st.a.Op, v)
		}
		st.notInt = true
		st.sumF += f
	case aggMin, aggMax:
		if st.n == 0 {
			st.best = v
			break
		}
		c, err := value.Compare(deobject(v), deobject(st.best))
		if err != nil {
			return err
		}
		if (st.op == aggMin && c < 0) || (st.op == aggMax && c > 0) {
			st.best = v
		}
	}
	st.n++
	return nil
}

// result is the aggregate of what was added.
func (st *aggState) result() (value.Value, error) {
	switch st.op {
	case aggSetFn:
		return st.a.SetFn.Impl(st.vals)
	case aggCount: // a count or sum in value's shared range allocates nothing
		return value.NewInt(st.n).Box(), nil
	case aggSum:
		if st.notInt {
			return value.NewFloat(st.sumF), nil
		}
		return value.NewInt(st.sumI).Box(), nil
	case aggAvg:
		if st.n == 0 {
			return value.Null{}, nil
		}
		return value.NewFloat(st.sumF / float64(st.n)), nil
	case aggMin, aggMax:
		if st.n == 0 {
			return value.Null{}, nil
		}
		return st.best, nil
	}
	return nil, fmt.Errorf("unhandled aggregate %s", st.a.Op)
}
