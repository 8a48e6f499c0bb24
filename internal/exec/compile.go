package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/excess/sema"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// This file compiles a plan into a Program: every expression the plan
// evaluates per row, lowered once to a Go closure. Compilation pays the
// dispatch on the node type of every subexpression once; the per-row
// work is a chain of direct closure calls with the decisions baked in:
//
//   - constant subtrees (literals, arithmetic/comparison over literals,
//     ADT calls over literals — ADT member functions are side-effect
//     free by the paper's convention, the same license algebra.Build
//     uses to fold index keys) are evaluated once and become a
//     load-of-value;
//   - variable reads index the binding's slot slice directly with the
//     slot number captured in the closure (sema.Var.Slot); a path over
//     an object variable starts at the bound tuple (compilePath), so the
//     object is boxed only where it is read whole;
//   - attribute steps read the field at the position the attribute has
//     in the static tuple type, falling back to the name lookup only
//     when the runtime tuple has another type (a subtype reached
//     through a ref lays its attributes out differently);
//   - operator class and ADT/function targets are resolved at compile
//     time instead of switch-dispatched per row.
//
// The closures are the engine's only expression evaluator; a scan
// node's leading integer comparisons also compile to tuple tests
// (tupletest.go), which decide the same conjuncts on the raw tuple
// through the same field read (stepProg.field) and comparison (cmpInt),
// and leave every row they cannot decide to the closures. The operator
// semantics live in the kernels they call (applyBinary, logicCombine,
// arith, dispatchCall, applyStep, foldAgg, coerce); the root package's
// tests check results against a reference evaluator that shares none
// of this code.

// compiledExpr is an expression compiled to a closure over the
// execution state and the current binding.
type compiledExpr func(*State, *evalCtx) (value.Value, error)

// Program is a plan compiled for execution: the closures of every
// expression the plan evaluates, laid out in the positions of the
// plan's nodes. A Program is immutable and holds no per-run state, so
// concurrent statements share one: the plan cache keeps it beside the
// plan, and a cache hit runs it without compiling anything. A clone of
// the plan (EXPLAIN ANALYZE instruments one) runs the program of the
// plan it was cloned from, whose nodes sit at the same positions.
type Program struct {
	nodes     []nodeProgram // by plan node position
	universal []varProgram  // by position in Plan.Universal
	final     []compiledExpr
	forAll    []compiledExpr
	// Retrieves only: the target list, the by-expressions and the
	// query-level aggregates of the target list.
	targets []compiledExpr
	groupBy []compiledExpr
	byHops  []*refHop // by position in groupBy; nil for a key not V.r.a
	aggs    []aggProgram
}

// varProgram is what enumerating a path-ranging variable evaluates: the
// base of an expression path and the steps to the collection.
type varProgram struct {
	base  compiledExpr
	steps []stepProg
}

// nodeProgram is one plan node compiled: its variable's source, its
// filter conjuncts and, for a hash join, its keys. A hash node's filter
// leads with the conjuncts the build applies (local), then the join
// conjunct where the keys are exact (decided).
type nodeProgram struct {
	varProgram
	filter         []compiledExpr
	tests          []tupleTest // the filter's leading tuple tests (tupletest.go)
	build, probe   compiledExpr
	hop            *refHop // the probe key's memo form, nil when it is not V.r.a
	mode           keyMode
	need           [2]types.Kind // the string kind an exact build, probe key needs
	local, decided int
	// An index probe's key expressions, one per Access.Bounds entry, or,
	// when every key is a literal, the range they fold to (fixed).
	keys  []compiledExpr
	fixed *algebra.KeyRange
}

// aggProgram is one query-level aggregate: its argument and its over
// (dedup) expression, nil when it has none.
type aggProgram struct {
	agg       *sema.Agg
	arg, over compiledExpr
}

// stepProg is one path step ready to run. tt is the static tuple type
// the attribute was resolved in and pos its field there; tt is nil when
// the static type is unknown, which reads the attribute by name.
type stepProg struct {
	attr  string
	tt    *types.TupleType
	pos   int
	index compiledExpr // nil for a pure attribute step
}

// field reads the step's attribute of a tuple: by position when the
// tuple has the static type, by name otherwise.
func (st *stepProg) field(tv *value.Tuple) value.Value {
	if tv.Type == st.tt {
		return tv.Fields[st.pos]
	}
	return tv.Get(st.attr)
}

// resolveSteps prepares path steps that start at a value of static type
// t (nil when unknown), resolving each attribute against the tuple type
// the checker stepped through: collections map over their elements and
// references dereference, as sema's applySteps has it. index lowers the
// index expressions.
func resolveSteps(t types.Type, steps []sema.Step, index func(sema.Expr) compiledExpr) []stepProg {
	if len(steps) == 0 {
		return nil
	}
	out := make([]stepProg, len(steps))
	for i, st := range steps {
		sp := &out[i]
		sp.attr = st.Attr
		if st.Attr != "" {
			for {
				el, ok := types.ElemOf(t)
				if !ok {
					break
				}
				t = el.Type
			}
			if r, ok := t.(*types.Ref); ok {
				t = r.Target
			}
			tt, ok := t.(*types.TupleType)
			t = nil
			if ok {
				if a, found := tt.Attr(st.Attr); found {
					sp.tt, sp.pos = tt, tt.AttrIndex(st.Attr)
					t = a.Comp.Type
				}
			}
		}
		if st.Index != nil {
			sp.index = index(st.Index)
			if at, ok := t.(*types.Array); ok {
				t = at.Elem.Type
			} else {
				t = nil
			}
		}
	}
	return out
}

// compiler lowers the expressions of one program, counting each under
// expr.compile.count.
type compiler struct {
	ex *State
}

func (ex *State) compiler() compiler {
	return compiler{ex: ex}
}

func (c compiler) expr(e sema.Expr) compiledExpr {
	if c.ex.cExprCompile != nil {
		c.ex.cExprCompile.Inc()
	}
	fn, _, _ := compile(e)
	return fn
}

func (c compiler) exprs(es []sema.Expr) []compiledExpr {
	if len(es) == 0 {
		return nil
	}
	out := make([]compiledExpr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

// varProgram compiles how a variable's bindings are reached.
func (c compiler) varProgram(v *sema.Var) varProgram {
	var vp varProgram
	var t types.Type // DB-path variables start untyped: the steps read by name
	switch v.Kind {
	case sema.VarExtent:
		return vp
	case sema.VarNested:
		t = v.Parent.Elem.Type
	case sema.VarExprPath:
		vp.base = c.expr(v.Base)
		t = v.Base.Type()
	}
	vp.steps = resolveSteps(t, v.Steps, c.expr)
	return vp
}

// program compiles a plan; cq, when not nil, adds a retrieve's targets,
// by-expressions and aggregates.
func (c compiler) program(cq *sema.CheckedRetrieve, p *algebra.Plan) *Program {
	prog := &Program{
		nodes:  make([]nodeProgram, len(p.Nodes)),
		final:  c.exprs(p.Final),
		forAll: c.exprs(p.ForAll),
	}
	for i := range p.Nodes {
		n, np := &p.Nodes[i], &prog.nodes[i]
		np.varProgram = c.varProgram(n.Var)
		if n.Hash == nil {
			np.filter = c.exprs(n.Filter)
			np.tests = tupleTests(n.Var, n.Filter)
		} else {
			c.hashNode(n, np)
		}
		if a := n.Access; a != nil {
			if rng, ok := a.ConstRange(); ok {
				np.fixed = &rng
			} else {
				for _, b := range a.Bounds {
					np.keys = append(np.keys, c.expr(b.Key))
				}
			}
		}
	}
	for _, v := range p.Universal {
		prog.universal = append(prog.universal, c.varProgram(v))
	}
	if cq == nil {
		return prog
	}
	for _, t := range cq.Targets {
		prog.targets = append(prog.targets, c.expr(t.Expr))
	}
	prog.groupBy = c.exprs(cq.GroupBy)
	for _, by := range cq.GroupBy {
		prog.byHops = append(prog.byHops, compileRefHop(by))
	}
	if cq.Aggregated {
		for _, t := range cq.Targets {
			sema.WalkAggs(t.Expr, func(a *sema.Agg) {
				if a.SetArg {
					return
				}
				ap := aggProgram{agg: a, arg: c.expr(a.Arg)}
				if a.Over != nil {
					ap.over = c.expr(a.Over)
				}
				prog.aggs = append(prog.aggs, ap)
			})
		}
	}
	return prog
}

// hashNode compiles a hash-join node, its filter in nodeProgram's order.
func (c compiler) hashNode(n *algebra.Node, np *nodeProgram) {
	h := n.Hash
	np.build, np.probe, np.hop = c.expr(h.Build), c.expr(h.Probe), compileRefHop(h.Probe)
	np.mode, np.need = hashKeyMode(h)
	var local, join, rest []sema.Expr
	for _, f := range n.Filter {
		switch b, _ := f.(*sema.Binary); {
		case mentionsOnlyVar(f, n.Var):
			local = append(local, f)
		case np.mode != keyCoarse && b != nil && join == nil &&
			(b.L == h.Build && b.R == h.Probe || b.L == h.Probe && b.R == h.Build):
			join = append(join, f)
		default:
			rest = append(rest, f)
		}
	}
	np.local, np.decided = len(local), len(local)+len(join)
	np.filter = c.exprs(append(append(local, join...), rest...))
}

// CompilePlan compiles a retrieve's plan into its Program: node filters,
// index-probe keys (folded to a range when they are literals), hash-join
// keys, the residual and forall conjuncts, targets, group keys and
// aggregate arguments. The database layer compiles once per plan
// and keeps the program beside the plan in the plan-cache entry; the
// compile phase of the statement trace times it.
func (ex *State) CompilePlan(cq *sema.CheckedRetrieve, p *algebra.Plan) *Program {
	return ex.compiler().program(cq, p)
}

// intExpr is the unboxed integer lane of the compiler. Expression trees
// whose static type is integral evaluate to a raw int64 instead of
// allocating a value.Int per operator node per row; null carries SQL
// null propagation. Only the subtree's interior skips boxing — leaves
// (path steps, parameters, variables) unbox whatever the boxed lane
// yields, and the enclosing expression re-boxes once at the top.
type intExpr func(*State, *evalCtx) (v int64, null bool, err error)

// intTyped reports whether an expression's static type is an integer
// the decode layer represents as value.Int.
func intTyped(e sema.Expr) bool {
	switch staticKind(e) {
	case types.KInt1, types.KInt2, types.KInt4:
		return true
	}
	return false
}

// staticKind is the kind of an expression's static type, KInvalid when
// it has none.
func staticKind(e sema.Expr) types.Kind {
	if t := e.Type(); t != nil {
		return t.Kind()
	}
	return types.KInvalid
}

// compileInt lowers an expression to the unboxed integer lane; ok=false
// means the shape is not covered and the caller stays on the boxed
// lane. Semantics mirror the arith kernel exactly: both operands are
// evaluated before the null check, null propagates, and / and % by zero
// fail with the kernel's error.
func compileInt(e sema.Expr) (intExpr, bool) {
	if !intTyped(e) {
		return nil, false
	}
	switch x := e.(type) {
	case *sema.Const:
		if iv, ok := x.Val.(value.Int); ok {
			v := iv.V
			return func(*State, *evalCtx) (int64, bool, error) { return v, false, nil }, true
		}
		if value.IsNull(x.Val) {
			return func(*State, *evalCtx) (int64, bool, error) { return 0, true, nil }, true
		}
		return nil, false

	case *sema.Unary:
		if x.Op != "-" || x.Fn != nil {
			return nil, false
		}
		xf, ok := compileInt(x.X)
		if !ok {
			return nil, false
		}
		return func(ex *State, ctx *evalCtx) (int64, bool, error) {
			v, null, err := xf(ex, ctx)
			return -v, null, err
		}, true

	case *sema.Binary:
		if x.Class != sema.OpArith {
			return nil, false
		}
		switch x.Op {
		case "+", "-", "*", "/", "%":
		default:
			return nil, false
		}
		lf, lok := compileInt(x.L)
		rf, rok := compileInt(x.R)
		if !lok || !rok {
			return nil, false
		}
		op := x.Op
		return func(ex *State, ctx *evalCtx) (int64, bool, error) {
			l, lnull, err := lf(ex, ctx)
			if err != nil {
				return 0, false, err
			}
			r, rnull, err := rf(ex, ctx)
			if err != nil {
				return 0, false, err
			}
			if lnull || rnull {
				return 0, true, nil
			}
			switch op {
			case "+":
				return l + r, false, nil
			case "-":
				return l - r, false, nil
			case "*":
				return l * r, false, nil
			case "/":
				if r == 0 {
					return 0, false, fmt.Errorf("division by zero")
				}
				return l / r, false, nil
			default: // %
				if r == 0 {
					return 0, false, fmt.Errorf("division by zero")
				}
				return l % r, false, nil
			}
		}, true
	}

	// Boxed leaf (path step, parameter, variable, call): evaluate through
	// the boxed lane and unbox. The static type guarantees the runtime
	// value is Int or Null. A parameter's leaf is a load from its frame
	// slot, so a literal lifted into a slot costs about what the constant
	// did.
	bf, _, _ := compile(e)
	return func(ex *State, ctx *evalCtx) (int64, bool, error) {
		v, err := bf(ex, ctx)
		if err != nil {
			return 0, false, err
		}
		if iv, ok := v.(value.Int); ok {
			return iv.V, false, nil
		}
		if value.IsNull(v) {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("expected an integer, got %s", v)
	}, true
}

// constFn wraps a folded value as a closure.
func constFn(v value.Value) compiledExpr {
	return func(*State, *evalCtx) (value.Value, error) { return v, nil }
}

// foldable reports whether a value may be shared across rows when its
// expression folds to a constant: immutable scalars only. Collection
// and tuple values are mutable (update statements write through them),
// so folding them would alias one instance across every row.
func foldable(v value.Value) bool {
	switch v.(type) {
	case value.Int, value.Float, value.Str, value.Bool, value.Null, nil:
		return true
	}
	return false
}

// compile lowers a checked expression to a closure. The second and
// third results carry constant folding upward: when isConst, the
// expression always yields cv and the closure is a constant load.
func compile(e sema.Expr) (fn compiledExpr, cv value.Value, isConst bool) {
	switch x := e.(type) {
	case *sema.Const:
		return constFn(x.Val), x.Val, true

	case *sema.VarRef:
		return readVar(x.Var), nil, false

	case *sema.ParamRef:
		return func(ex *State, _ *evalCtx) (value.Value, error) {
			return ex.param(x)
		}, nil, false

	case *sema.PathExpr:
		return compilePath(x), nil, false

	case *sema.Unary:
		return compileUnary(x)

	case *sema.Binary:
		return compileBinary(x)

	case *sema.FuncCall:
		argfs := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			argfs[i], _, _ = compile(a)
		}
		return func(ex *State, ctx *evalCtx) (value.Value, error) {
			args := make([]value.Value, len(argfs))
			for i, af := range argfs {
				v, err := af(ex, ctx)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			return ex.dispatchCall(x, args)
		}, nil, false

	case *sema.ADTCall:
		argfs := make([]compiledExpr, len(x.Args))
		allConst := true
		for i, a := range x.Args {
			var ac bool
			argfs[i], _, ac = compile(a)
			allConst = allConst && ac
		}
		impl := x.Fn.Impl
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			args := make([]value.Value, len(argfs))
			for i, af := range argfs {
				v, err := af(ex, ctx)
				if err != nil {
					return nil, err
				}
				if value.IsNull(v) {
					return value.Null{}, nil
				}
				args[i] = deobject(v)
			}
			return impl(args)
		}
		if allConst {
			if v, err := fn(nil, nil); err == nil && foldable(v) {
				return constFn(v), v, true
			}
		}
		return fn, nil, false

	case *sema.Agg:
		return compileAgg(x), nil, false

	case *sema.SetCtor:
		elemfs := make([]compiledExpr, len(x.Elems))
		for i, el := range x.Elems {
			elemfs[i], _, _ = compile(el)
		}
		return func(ex *State, ctx *evalCtx) (value.Value, error) {
			s := &value.Set{Elems: make([]value.Value, 0, len(elemfs))}
			for _, ef := range elemfs {
				v, err := ef(ex, ctx)
				if err != nil {
					return nil, err
				}
				s.Elems = append(s.Elems, v)
			}
			return s, nil
		}, nil, false

	case *sema.TupleCtor:
		return compileTupleCtor(x), nil, false

	case *sema.ExtentSet:
		return func(ex *State, _ *evalCtx) (value.Value, error) {
			return ex.materializeExtent(x.Name)
		}, nil, false

	case *sema.DBVarRead:
		return func(ex *State, _ *evalCtx) (value.Value, error) {
			return ex.reader().GetVar(x.Name)
		}, nil, false
	}
	return func(*State, *evalCtx) (value.Value, error) {
		return nil, fmt.Errorf("unhandled expression %T", e)
	}, nil, false
}

// compileAgg compiles an aggregate. A set-argument aggregate folds the
// collection its argument yields for the current binding (count(E.kids),
// avg(Employees.salary)) through the accumulator (foldAgg), copying
// nothing; a query-level one reads the value the grouped retrieve
// folded across the group (ctx.aggVals).
func compileAgg(a *sema.Agg) compiledExpr {
	if !a.SetArg {
		return func(_ *State, ctx *evalCtx) (value.Value, error) {
			if v, ok := ctx.aggVals[a]; ok {
				return v, nil
			}
			return nil, fmt.Errorf("query-level aggregate %s outside an aggregated retrieve", a.Op)
		}
	}
	argf, _, _ := compile(a.Arg)
	return func(ex *State, ctx *evalCtx) (value.Value, error) {
		arg, err := argf(ex, ctx)
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
}

// compileTupleCtor compiles a tuple constructor: each field is computed
// and shaped for its attribute's component (coerce); unassigned
// attributes stay null.
func compileTupleCtor(t *sema.TupleCtor) compiledExpr {
	type field struct {
		pos  int
		comp types.Component
		fn   compiledExpr
	}
	fields := make([]field, len(t.Fields))
	for i, f := range t.Fields {
		a, _ := t.TT.Attr(f.Name)
		fields[i] = field{pos: t.TT.AttrIndex(f.Name), comp: a.Comp}
		fields[i].fn, _, _ = compile(f.Expr)
	}
	tt := t.TT
	return func(ex *State, ctx *evalCtx) (value.Value, error) {
		tv := value.NewTuple(tt)
		for i := range fields {
			f := &fields[i]
			v, err := f.fn(ex, ctx)
			if err != nil {
				return nil, err
			}
			cv, err := ex.coerce(v, f.comp)
			if err != nil {
				return nil, err
			}
			tv.Fields[f.pos] = cv
		}
		return tv, nil
	}
}

// readVar compiles a read of a range variable's slot, boxing an object
// binding into its value.Object: the variable is read whole.
func readVar(v *sema.Var) compiledExpr {
	i, name := v.Slot, v.Name
	return func(_ *State, ctx *evalCtx) (value.Value, error) {
		if b := ctx.b; i < len(b.used) && b.used[i] {
			return b.val(i), nil
		}
		return nil, fmt.Errorf("variable %s not bound", name)
	}
}

// compilePath compiles a path to one loop, the field-read kernel of the
// per-row pipeline. A path over a range variable starts at its slot's
// tuple, unboxed; an attribute step of a tuple reads the field at its
// static position (stepProg.field); a reference is dereferenced against
// the snapshot and its target's field read in the same iteration. Only
// collection fan-out, index steps and other shapes go through applyStep.
// A null or dangling hop ends the path in null.
func compilePath(x *sema.PathExpr) compiledExpr {
	vr, isVar := x.Base.(*sema.VarRef)
	var bf compiledExpr // the base, when it is not a variable
	if !isVar || len(x.Steps) == 0 {
		bf, _, _ = compile(x.Base)
		if len(x.Steps) == 0 {
			return bf
		}
	}
	i, name := -1, ""
	if isVar {
		i, name = vr.Var.Slot, vr.Var.Name
	}
	steps := resolveSteps(x.Base.Type(), x.Steps, func(e sema.Expr) compiledExpr {
		f, _, _ := compile(e)
		return f
	})
	return func(ex *State, ctx *evalCtx) (value.Value, error) {
		var cur value.Value
		var err error
		if bf == nil {
			b := ctx.b
			if i >= len(b.used) || !b.used[i] {
				return nil, fmt.Errorf("variable %s not bound", name)
			}
			if cur = b.vals[i]; b.slots[i].tup != nil {
				cur = b.slots[i].tup
			}
		} else if cur, err = bf(ex, ctx); err != nil {
			return nil, err
		}
		for k := range steps {
			st := &steps[k]
			if st.index != nil {
				cur, err = ex.applyStep(ctx, cur, st)
			} else {
				switch c := cur.(type) {
				case *value.Tuple:
					cur = st.field(c)
				case value.Ref:
					tv, live, derr := ex.derefGet(c.OID)
					if derr != nil {
						return nil, derr
					}
					if !live {
						return value.Null{}, nil
					}
					cur = st.field(tv)
				default:
					cur, err = ex.applyStep(ctx, cur, st)
				}
			}
			if err != nil {
				return nil, err
			}
			if value.IsNull(cur) {
				return value.Null{}, nil
			}
		}
		return cur, nil
	}
}

// refHop is a path V.r.a compiled for the reference memo (refMemo), r a
// reference attribute: within a run, which reads one immutable snapshot,
// its value is a function of the OID of r's target.
type refHop struct {
	slot int
	r, a stepProg
}

// compileRefHop returns the memo form of e, or nil when e is not V.r.a
// with r a reference attribute of V's static type.
func compileRefHop(e sema.Expr) *refHop {
	x, ok := e.(*sema.PathExpr)
	if !ok || len(x.Steps) != 2 || x.Steps[0].Index != nil || x.Steps[1].Index != nil {
		return nil
	}
	vr, ok := x.Base.(*sema.VarRef)
	if !ok {
		return nil
	}
	st := resolveSteps(x.Base.Type(), x.Steps, nil)
	if st[0].tt == nil || st[1].tt == nil || !st[0].tt.Attrs()[st[0].pos].Comp.Mode.HasIdentity() {
		return nil
	}
	return &refHop{slot: vr.Var.Slot, r: st[0], a: st[1]}
}

// target returns the OID of the object V.r refers to; false, leaving the
// path to its closure, when h is nil, V is no object or r no reference.
func (h *refHop) target(ctx *evalCtx) (oid.OID, bool) {
	b := ctx.b
	if h == nil || h.slot >= len(b.used) || !b.used[h.slot] || b.slots[h.slot].tup == nil {
		return 0, false
	}
	r, ok := h.r.field(b.slots[h.slot].tup).(value.Ref)
	return r.OID, ok && !r.OID.IsNil()
}

// read is the path's value, as compilePath has it, when V.r refers to id.
func (h *refHop) read(ex *State, id oid.OID) (value.Value, error) {
	tv, live, err := ex.derefGet(id)
	if err != nil || !live {
		return value.Null{}, err
	}
	return h.a.field(tv), nil
}

// compileUnary compiles not / - / ADT prefix operators, folding over a
// constant operand (all three are pure given the operand value).
func compileUnary(u *sema.Unary) (compiledExpr, value.Value, bool) {
	xf, _, xConst := compile(u.X)
	fn := func(ex *State, ctx *evalCtx) (value.Value, error) {
		v, err := xf(ex, ctx)
		if err != nil {
			return nil, err
		}
		return applyUnary(u, v)
	}
	if xConst {
		if v, err := fn(nil, nil); err == nil && foldable(v) {
			return constFn(v), v, true
		}
	}
	return fn, nil, false
}

// applyUnary applies a unary operator to an evaluated operand.
func applyUnary(u *sema.Unary, v value.Value) (value.Value, error) {
	if u.Fn != nil {
		return u.Fn.Impl([]value.Value{deobject(v)})
	}
	switch u.Op {
	case "not":
		b, ok := value.AsBool(v)
		if !ok {
			return value.Null{}, nil
		}
		return value.Bool(!b), nil
	case "-":
		switch n := v.(type) {
		case value.Int:
			return value.Int{K: n.K, V: -n.V}, nil
		case value.Float:
			return value.Float{K: n.K, V: -n.V}, nil
		}
		return value.Null{}, nil
	}
	return nil, fmt.Errorf("unhandled unary %s", u.Op)
}

// compileBinary compiles a binary operator: short-circuiting closures
// for and/or, an inlined integer fast path for arithmetic, and the
// shared applyBinary kernel for the rest. Arithmetic, comparison and
// ADT operators over constant operands fold (they are pure and yield
// immutable scalars); identity needs the store and membership/set
// operators yield shared mutable collections, so they never fold.
func compileBinary(b *sema.Binary) (compiledExpr, value.Value, bool) {
	lf, _, lConst := compile(b.L)
	rf, _, rConst := compile(b.R)

	if b.Class == sema.OpLogic {
		op := b.Op
		fn := func(ex *State, ctx *evalCtx) (value.Value, error) {
			l, err := lf(ex, ctx)
			if err != nil {
				return nil, err
			}
			if v, done := logicShort(op, l); done {
				return v, nil
			}
			r, err := rf(ex, ctx)
			if err != nil {
				return nil, err
			}
			return logicCombine(op, l, r), nil
		}
		if lConst && rConst {
			if v, err := fn(nil, nil); err == nil && foldable(v) {
				return constFn(v), v, true
			}
		}
		return fn, nil, false
	}

	// Integer comparison over unboxed operands: the whole subtree runs in
	// the int lane and the only boxed value per row is the Bool result.
	if op, ok := cmpOpOf(b.Op); ok && b.Class == sema.OpCompare {
		if lif, lok := compileInt(b.L); lok {
			if rif, rok := compileInt(b.R); rok {
				fn := func(ex *State, ctx *evalCtx) (value.Value, error) {
					l, lnull, err := lif(ex, ctx)
					if err != nil {
						return nil, err
					}
					r, rnull, err := rif(ex, ctx)
					if err != nil {
						return nil, err
					}
					if lnull || rnull {
						return value.Null{}, nil
					}
					return value.Bool(cmpInt(op, l, r)), nil
				}
				if lConst && rConst {
					if v, err := fn(nil, nil); err == nil && foldable(v) {
						return constFn(v), v, true
					}
				}
				return fn, nil, false
			}
		}
	}

	var fn compiledExpr
	if xif, ok := compileInt(b); ok {
		// Arithmetic whose result a boxed consumer needs: run the int lane
		// and box once at the top of the subtree.
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			v, null, err := xif(ex, ctx)
			if err != nil {
				return nil, err
			}
			if null {
				return value.Null{}, nil
			}
			return value.NewInt(v), nil
		}
	} else if b.Class == sema.OpArith {
		op := b.Op
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			l, err := lf(ex, ctx)
			if err != nil {
				return nil, err
			}
			r, err := rf(ex, ctx)
			if err != nil {
				return nil, err
			}
			// Integer fast path: the dominant case in filters.
			if li, ok := l.(value.Int); ok {
				if ri, ok := r.(value.Int); ok {
					switch op {
					case "+":
						return value.NewInt(li.V + ri.V), nil
					case "-":
						return value.NewInt(li.V - ri.V), nil
					case "*":
						return value.NewInt(li.V * ri.V), nil
					}
				}
			}
			if value.IsNull(l) || value.IsNull(r) {
				return value.Null{}, nil
			}
			return arith(op, l, r)
		}
	} else {
		fn = func(ex *State, ctx *evalCtx) (value.Value, error) {
			l, err := lf(ex, ctx)
			if err != nil {
				return nil, err
			}
			r, err := rf(ex, ctx)
			if err != nil {
				return nil, err
			}
			return ex.applyBinary(b, l, r)
		}
	}
	if lConst && rConst {
		switch b.Class {
		case sema.OpArith, sema.OpCompare, sema.OpADT:
			// applyBinary never touches the state for these classes, so a
			// nil receiver is safe for the one fold-time evaluation.
			if v, err := fn(nil, nil); err == nil && foldable(v) {
				return constFn(v), v, true
			}
		}
	}
	return fn, nil, false
}
