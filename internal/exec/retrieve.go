package exec

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/algebra"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// Row is one result row.
type Row []value.Value

// Result is the outcome of a retrieve: named columns and rows in
// enumeration order.
type Result struct {
	Cols []string
	Rows []Row
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	widths := make([]int, len(r.Cols))
	cells := make([][]string, 0, len(r.Rows)+1)
	header := make([]string, len(r.Cols))
	for i, c := range r.Cols {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range r.Rows {
		line := make([]string, len(r.Cols))
		for i := range r.Cols {
			if i < len(row) {
				line[i] = displayValue(row[i])
			}
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	for ri, line := range cells {
		for i, cell := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if i < len(line)-1 { // no trailing padding on the last column
				b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := range line {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", widths[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func displayValue(v value.Value) string {
	if v == nil {
		return "null"
	}
	return v.String()
}

// RetrievePlan runs a checked retrieve through an already-built plan,
// compiling the plan's program first — for callers that keep no program
// of their own.
func (ex *State) RetrievePlan(cq *sema.CheckedRetrieve, plan *algebra.Plan) (*Result, error) {
	return ex.RetrieveProgram(cq, plan, nil)
}

// RetrieveProgram runs a checked retrieve through its plan and the
// plan's compiled program (CompilePlan); a nil program is compiled here.
// The database layer passes the program its plan-cache entry keeps, and
// an instrumented clone of the plan (EXPLAIN ANALYZE) with the program
// of the original. When the statement has an into clause, the result is
// also materialized as a new database variable.
func (ex *State) RetrieveProgram(cq *sema.CheckedRetrieve, plan *algebra.Plan, prog *Program) (*Result, error) {
	if prog == nil {
		prog = ex.CompilePlan(cq, plan)
	}
	res := &Result{}
	for _, t := range cq.Targets {
		res.Cols = append(res.Cols, t.Name)
	}
	var err error
	if cq.Aggregated {
		err = ex.retrieveGrouped(cq, plan, prog, res)
	} else {
		err = ex.Run(plan, prog, func(ctx *evalCtx) error {
			row, err := ex.targetRow(ctx, prog)
			if err == nil {
				res.Rows = append(res.Rows, row)
			}
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	if cq.Into != "" {
		// A retrieve with an into clause is write-classified by
		// sema.ReadOnly, so the dispatcher took the commit lock; the
		// checker cannot see through the Into guard.
		//extravet:ignore lockcheck snapcheck (into-retrieves run under the commit lock)
		if err := ex.materializeInto(cq, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// targetRow evaluates the target list.
func (ex *State) targetRow(ctx *evalCtx, prog *Program) (Row, error) {
	row := make(Row, len(prog.targets))
	for i, t := range prog.targets {
		v, err := t(ex, ctx)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

// groupState accumulates one group during grouped retrieval: its
// representative binding and, by position in Program.aggs, the state of
// each aggregate.
type groupState struct {
	rep  *binding
	aggs []aggState
}

type aggState struct {
	vals []value.Value
	over map[hashKey]bool // dedup keys seen (for "over")
}

// groupNode is one level of the group table: the groups whose first k
// by-values agree, keyed on value k+1. A row finds its group with one
// map lookup per by-expression and allocates only when it opens one.
type groupNode struct {
	g    *groupState
	next map[hashKey]*groupNode
}

// retrieveGrouped implements query-level aggregation: rows are grouped
// by the collected by-expressions; within each group each aggregate
// folds its argument across the group's bindings, after deduplicating by
// the over-expression when one is given (the paper's mechanism for
// aggregating one level of a complex object while partitioning on
// another, which also subsumes QUEL's unique aggregates).
func (ex *State) retrieveGrouped(cq *sema.CheckedRetrieve, plan *algebra.Plan, prog *Program, res *Result) error {
	root := &groupNode{next: map[hashKey]*groupNode{}}
	var order []*groupState
	err := ex.Run(plan, prog, func(ctx *evalCtx) error {
		n := root
		for _, by := range prog.groupBy {
			v, err := by(ex, ctx)
			if err != nil {
				return err
			}
			k := groupKey(v)
			next := n.next[k]
			if next == nil {
				next = &groupNode{next: map[hashKey]*groupNode{}}
				n.next[k] = next
			}
			n = next
		}
		g := n.g
		if g == nil {
			g = &groupState{rep: ctx.b.clone(), aggs: make([]aggState, len(prog.aggs))}
			n.g = g
			order = append(order, g)
		}
		for k := range prog.aggs {
			a, st := &prog.aggs[k], &g.aggs[k]
			if a.over != nil {
				ov, err := a.over(ex, ctx)
				if err != nil {
					return err
				}
				ok := groupKey(ov)
				if st.over == nil {
					st.over = map[hashKey]bool{}
				}
				if st.over[ok] {
					continue // already counted this partition value
				}
				st.over[ok] = true
			}
			av, err := a.arg(ex, ctx)
			if err != nil {
				return err
			}
			st.vals = append(st.vals, av)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// A global aggregate (no by-expressions) over zero bindings still
	// produces one row: count = 0, sum = 0, the others null.
	if len(order) == 0 && len(cq.GroupBy) == 0 {
		order = append(order, &groupState{rep: newBinding(), aggs: make([]aggState, len(prog.aggs))})
	}
	for _, g := range order {
		aggVals := make(map[*sema.Agg]value.Value, len(prog.aggs))
		for k := range prog.aggs {
			v, err := foldAgg(prog.aggs[k].agg, g.aggs[k].vals)
			if err != nil {
				return err
			}
			aggVals[prog.aggs[k].agg] = v
		}
		row, err := ex.targetRow(&evalCtx{b: g.rep, aggVals: aggVals}, prog)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, g := range order {
		g.rep.release()
	}
	return nil
}

// groupKey is the grouping and dedup key of a value: objects and refs
// group by identity, null in a group of its own, every other value by
// its display form. Ints, floats and strings key on what their display
// form is a function of, without rendering it: an integral float that
// displays as an int (|f| < 1e6, not -0) keys as that int, and every
// NaN displays alike.
func groupKey(v value.Value) hashKey {
	if id, ok := value.OIDOf(v); ok {
		return hashKey{kind: hkOID, n: uint64(id)}
	}
	switch x := v.(type) {
	case nil, value.Null:
		return hashKey{kind: hkNull}
	case value.Int:
		return hashKey{kind: hkInt, n: uint64(x.V)}
	case value.Float:
		f := x.V
		if f == math.Trunc(f) && math.Abs(f) < 1e6 && !(f == 0 && math.Signbit(f)) {
			return hashKey{kind: hkInt, n: uint64(int64(f))}
		}
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return hashKey{kind: hkFloat, n: math.Float64bits(f)}
	case value.Str:
		return hashKey{kind: hkStr, s: x.V}
	}
	return hashKey{kind: hkShow, s: v.String()}
}

// materializeInto stores a retrieve result as a fresh database variable:
// a set of own tuples of a synthesized result type named "<Name>_t".
// Object and reference columns are stored as references.
//
// extra:requires db.wmu.W
func (ex *State) materializeInto(cq *sema.CheckedRetrieve, res *Result) error {
	typeName := cq.Into + "_t"
	var attrs []types.Attr
	for i, t := range cq.Targets {
		comp, err := resultComponent(t.Expr.Type())
		if err != nil {
			return fmt.Errorf("retrieve into %s, column %s: %w", cq.Into, res.Cols[i], err)
		}
		attrs = append(attrs, types.Attr{Name: res.Cols[i], Comp: comp})
	}
	tt, err := types.NewTupleType(typeName, nil, attrs)
	if err != nil {
		return err
	}
	if err := ex.cat.DefineTuple(tt); err != nil {
		return err
	}
	comp := types.Component{Mode: types.Own, Type: &types.Set{
		Elem: types.Component{Mode: types.Own, Type: tt},
	}}
	v, err := ex.cat.CreateVar(cq.Into, comp)
	if err != nil {
		return err
	}
	if err := ex.store.InitVar(v); err != nil {
		return err
	}
	for _, row := range res.Rows {
		tv := value.NewTuple(tt)
		for i, a := range tt.Attrs() {
			if i < len(row) {
				tv.Fields[i] = coerceTo(row[i], a.Comp)
			}
		}
		if _, err := ex.store.Insert(cq.Into, tv); err != nil {
			return err
		}
	}
	return nil
}

// resultComponent derives the stored component for a result column type.
func resultComponent(t types.Type) (types.Component, error) {
	switch tt := t.(type) {
	case nil:
		return types.Component{Mode: types.Own, Type: types.Varchar}, nil
	case *types.TupleType:
		return types.Component{Mode: types.RefTo, Type: tt}, nil
	case *types.Ref:
		return types.Component{Mode: types.RefTo, Type: tt.Target}, nil
	case *types.Set:
		elem, err := resultComponent(tt.Elem.Type)
		if err != nil {
			return types.Component{}, err
		}
		return types.Component{Mode: types.Own, Type: &types.Set{Elem: elem}}, nil
	default:
		return types.Component{Mode: types.Own, Type: t}, nil
	}
}
