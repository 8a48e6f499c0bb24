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
	outer := ex.startRows(len(prog.targets))
	var err error
	if cq.Aggregated {
		err = ex.retrieveGrouped(plan, prog, len(cq.GroupBy) == 0)
	} else {
		err = ex.Run(plan, prog, func(ctx *evalCtx) error {
			return ex.targetRow(ctx, prog, ex.newRow())
		})
	}
	rows := ex.endRows(outer, err == nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: make([]string, len(cq.Targets)), Rows: rows}
	for i, t := range cq.Targets {
		res.Cols[i] = t.Name
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

// targetRow evaluates the target list into row.
func (ex *State) targetRow(ctx *evalCtx, prog *Program, row Row) error {
	for i, t := range prog.targets {
		v, err := t(ex, ctx)
		if err != nil {
			return err
		}
		row[i] = v
	}
	return nil
}

// maxBlockRows caps the rows of one result block. Blocks double from
// one row up to it, so a result of n rows allocates about log2(n)
// blocks while it is small and one more per maxBlockRows rows after,
// and leaves at most one block's cells unused.
const maxBlockRows = 1024

// rowWriter lays out the rows of the result being built as they are
// produced: each row's cells are the next ncols cells of the current
// block in State.blocks, and endRows cuts the blocks into the result's
// rows once their number is known. No block is copied, and the row
// headers are allocated once, at their exact length.
type rowWriter struct {
	ncols int
	base  int           // the result's first block in State.blocks
	rows  int           // rows written
	free  []value.Value // the current block's unwritten cells
	next  int           // rows in the next block
}

// startRows begins a result of ncols columns on the state and returns
// the writer of the enclosing result, which endRows restores: a
// retrieve a function body runs in the middle of another's row writes
// its blocks above the outer one's and removes them when it ends.
func (ex *State) startRows(ncols int) rowWriter {
	outer := ex.out
	ex.out = rowWriter{ncols: ncols, base: len(ex.blocks), next: 1}
	return outer
}

// newRow returns the cells of the result's next row.
func (ex *State) newRow() Row {
	w := &ex.out
	if len(w.free) < w.ncols {
		w.free = make([]value.Value, w.next*w.ncols)
		ex.blocks = append(ex.blocks, w.free)
		w.next = min(2*w.next, maxBlockRows)
	}
	row := w.free[:w.ncols:w.ncols] // full slice: an append to a row cannot reach the next
	w.free = w.free[w.ncols:]
	w.rows++
	return row
}

// endRows ends the result startRows began and returns its rows, or
// nil when keep is false (the retrieve failed), and restores the
// enclosing result's writer.
func (ex *State) endRows(outer rowWriter, keep bool) []Row {
	w := ex.out
	ex.out = outer
	blocks := ex.blocks[w.base:]
	var rows []Row
	if keep && w.rows > 0 {
		rows = make([]Row, w.rows)
		i := 0
		for _, blk := range blocks {
			for ; i < len(rows) && len(blk) >= w.ncols; i++ {
				rows[i] = blk[:w.ncols:w.ncols]
				blk = blk[w.ncols:]
			}
		}
	}
	clear(blocks) // the rows own the blocks now; the pooled state must not pin them
	ex.blocks = ex.blocks[:w.base]
	return rows
}

// groupState accumulates one group during grouped retrieval: its
// representative binding and, by position in Program.aggs, the state of
// each aggregate.
type groupState struct {
	rep  *binding
	aggs []aggState
}

func newGroup(rep *binding, aggs []aggProgram) *groupState {
	g := &groupState{rep: rep, aggs: make([]aggState, len(aggs))}
	for k := range aggs {
		g.aggs[k] = newAggState(aggs[k].agg)
	}
	return g
}

// groupNode is one level of the group table: the groups whose first k
// by-values agree, keyed on value k+1 (next is nil on the last level).
// A row finds its group with one map lookup per by-expression and
// allocates only when it opens one.
type groupNode struct {
	g    *groupState
	next map[hashKey]*groupNode
}

// retrieveGrouped implements query-level aggregation: rows are grouped
// by the collected by-expressions, and each row adds its argument to
// each aggregate's accumulator in its group as it arrives, after
// deduplicating by the over-expression when one is given (the paper's
// mechanism for aggregating one level of a complex object while
// partitioning on another, which also subsumes QUEL's unique
// aggregates). A group holds O(1) per aggregate, whatever its size. A
// global retrieve (no by-expressions) over zero bindings still
// produces one row: count = 0, sum = 0, the others null.
func (ex *State) retrieveGrouped(plan *algebra.Plan, prog *Program, global bool) error {
	var root groupNode
	var order []*groupState
	gen := ex.memoGen + 1 // by key j's memo generation is gen+j
	ex.memoGen += uint64(len(prog.groupBy))
	err := ex.Run(plan, prog, func(ctx *evalCtx) error {
		n := &root
		for j, by := range prog.groupBy {
			var err error
			if n, err = ex.groupChild(ctx, n, by, prog.byHops[j], gen+uint64(j)); err != nil {
				return err
			}
		}
		g := n.g
		if g == nil {
			g = newGroup(ctx.b.clone(), prog.aggs)
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
			if err := st.add(av); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(order) == 0 && global {
		order = append(order, newGroup(newBinding(), prog.aggs))
	}
	ctx := evalCtx{aggVals: make(map[*sema.Agg]value.Value, len(prog.aggs))}
	for _, g := range order {
		for k := range g.aggs {
			v, err := g.aggs[k].result()
			if err != nil {
				return err
			}
			ctx.aggVals[prog.aggs[k].agg] = v
		}
		ctx.b = g.rep
		if err := ex.targetRow(&ctx, prog, ex.newRow()); err != nil {
			return err
		}
	}
	for _, g := range order {
		g.rep.release()
	}
	return nil
}

// groupChild returns the group under n of the row's value of by, opened
// on first sight; a by key V.r.a (hop) finds it in the reference memo
// when the run met the same target under n before.
func (ex *State) groupChild(ctx *evalCtx, n *groupNode, by compiledExpr, hop *refHop, gen uint64) (*groupNode, error) {
	var v value.Value
	var err error
	id, memo := hop.target(ctx)
	if memo {
		if m := ex.memoSlot(id, gen); m.gen == gen && m.id == id && m.at == n {
			return m.grp, nil
		}
		v, err = hop.read(ex, id)
	} else {
		v, err = by(ex, ctx)
	}
	if err != nil {
		return nil, err
	}
	k := groupKey(v)
	if n.next == nil {
		n.next = map[hashKey]*groupNode{}
	}
	next := n.next[k]
	if next == nil {
		next = &groupNode{}
		n.next[k] = next
	}
	if memo {
		*ex.memoSlot(id, gen) = memoEntry{gen: gen, id: id, at: n, grp: next}
	}
	return next, nil
}

// hashKey is the comparable form of a grouping or dedup key: a kind tag
// plus an integer (an identity, an integer or a float's bits) or a
// string the value already holds (a string's text, a display form).
// Building one allocates only where it renders a display form.
type hashKey struct {
	kind uint8
	n    uint64
	s    string
}

// hashKey kinds.
const (
	hkOID uint8 = iota + 1
	hkStr
	hkNull
	hkInt
	hkFloat
	hkShow
)

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
