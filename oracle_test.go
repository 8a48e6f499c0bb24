package extra

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
)

// This file is the reference evaluator the engine's results are checked
// against: a second, deliberately naive implementation of EXCESS retrieve
// semantics. It shares no execution code with the engine — it imports
// neither the executor, the optimizer nor the storage layer, and reads
// the database only as the decoded export of a pinned snapshot (objects,
// element sets, variables) held in Go maps. It binds range variables by
// nested loops in declaration order, dereferences through its own oid
// map (a dangling reference reads as null), and walks the checked sema
// tree: multi-valued paths, three-valued logic, arithmetic, membership,
// set operators, identity, set-argument and by/over aggregates,
// universal quantification, EXCESS functions (late-bound on the first
// argument's runtime type) and ADT calls. It shares the front end
// (parser, checker), the value model and the ADT registry with the
// engine; none of them is under test here. An evaluation error unwinds
// the walk as an oracleError panic that OracleRows turns back into an
// error.

type oracleError struct{ error }

func fail(format string, args ...any) { panic(oracleError{fmt.Errorf(format, args...)}) }

// must unwraps a value whose error is the statement's.
func must[T any](v T, err error) T {
	if err != nil {
		panic(oracleError{err})
	}
	return v
}

// OracleRows runs a retrieve through the reference evaluator over the
// database's current snapshot and returns its rows rendered by canonRow,
// sorted: the result as a multiset.
func OracleRows(db *DB, src string) (rows []string, err error) {
	defer func() {
		if r := recover(); r != nil {
			oe, ok := r.(oracleError)
			if !ok {
				panic(r)
			}
			rows, err = nil, oe.error
		}
	}()
	st := must(parse.Single(must(parse.Statements(src, db.reg))))
	r, ok := st.(*ast.Retrieve)
	if !ok || r.Into != "" {
		fail("oracle: %q is not a plain retrieve", src)
	}
	o := loadOracle(db)
	cq := must(sema.NewFrameChecker(o.cat, db.def.sem.Load(), nil).CheckRetrieve(r))
	for _, row := range o.retrieve(cq) {
		rows = append(rows, canonRow(row))
	}
	sort.Strings(rows)
	return rows, nil
}

// CanonRows renders an engine result the way OracleRows renders the
// oracle's, sorted.
func CanonRows(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		out = append(out, canonRow(row))
	}
	sort.Strings(out)
	return out
}

// DiffRows reports how engine rows differ from the oracle's, both as
// CanonRows and OracleRows return them; nil when they are equal.
func DiffRows(src string, got, want []string) error {
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return nil
	}
	return fmt.Errorf("%s: engine and oracle disagree\nengine (%d rows):\n  %s\noracle (%d rows):\n  %s",
		src, len(got), strings.Join(got, "\n  "), len(want), strings.Join(want, "\n  "))
}

// OracleCheck runs src through the engine and the reference evaluator:
// nil when both return the same rows as a multiset, or both fail.
func OracleCheck(db *DB, src string) error {
	want, oerr := OracleRows(db, src)
	res, err := db.Query(src)
	switch {
	case err != nil && oerr != nil:
		return nil
	case err != nil:
		return fmt.Errorf("%s: engine failed (%v), oracle returned %d rows", src, err, len(want))
	case oerr != nil:
		return fmt.Errorf("%s: oracle failed (%v), engine returned %d rows", src, oerr, len(res.Rows))
	}
	return DiffRows(src, CanonRows(res), want)
}

// canonRow renders a row with set elements sorted: sets are unordered,
// and a plan may build one in another order than the oracle.
func canonRow(row []value.Value) string {
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = canonValue(v)
	}
	return strings.Join(cells, " | ")
}

func canonValue(v value.Value) string {
	join := func(vs []value.Value, sorted bool) string {
		parts := make([]string, len(vs))
		for i, e := range vs {
			parts[i] = canonValue(e)
		}
		if sorted {
			sort.Strings(parts)
		}
		return strings.Join(parts, ", ")
	}
	switch x := v.(type) {
	case nil:
		return "null"
	case value.Object:
		if x.Tuple != nil {
			return canonValue(x.Tuple)
		}
	case *value.Tuple:
		parts := make([]string, len(x.Fields))
		for i, a := range x.Type.Attrs() {
			parts[i] = a.Name + "=" + canonValue(x.Fields[i])
		}
		return x.Type.Name + "(" + strings.Join(parts, ", ") + ")"
	case *value.Set:
		return "{" + join(x.Elems, true) + "}"
	case *value.Array:
		return "[" + join(x.Elems, false) + "]"
	}
	return v.String()
}

// oracle is one snapshot's contents, decoded, and the parameter frames
// of the function calls in progress.
type oracle struct {
	cat     *catalog.Catalog
	objs    map[oid.OID]*value.Tuple
	extents map[string][]oid.OID     // object extents
	elems   map[string][]value.Value // ref- and value-set extents
	vars    map[string]value.Value   // singleton and array variables
	bodies  map[*catalog.Function]any
	frames  [][]value.Value
}

func loadOracle(db *DB) *oracle {
	snap := db.store.Snapshot()
	o := &oracle{cat: snap.Catalog(), objs: map[oid.OID]*value.Tuple{}, extents: map[string][]oid.OID{},
		elems: map[string][]value.Value{}, vars: map[string]value.Value{}, bodies: map[*catalog.Function]any{}}
	for _, eo := range must(snap.ExportObjects()) {
		tv, ok := must(codec.DecodeOne(eo.Data, o.cat)).(*value.Tuple)
		if !ok {
			fail("object %s is not a tuple", eo.OID)
		}
		o.objs[eo.OID] = tv
		if eo.Extent != "" {
			o.extents[eo.Extent] = append(o.extents[eo.Extent], eo.OID)
		}
	}
	for _, name := range o.cat.VarNames() {
		switch cv, _ := o.cat.Var(name); {
		case cv.IsObjectSet():
		case cv.IsRefSet() || cv.IsValueSet():
			for _, b := range must(snap.ExportElems(name)) {
				o.elems[name] = append(o.elems[name], must(codec.DecodeOne(b, o.cat)))
			}
		default:
			o.vars[name] = must(codec.DecodeOne(must(snap.ExportVar(name)), o.cat))
		}
	}
	return o
}

// env is one binding of a statement's range variables and, while a
// grouped row is produced, its aggregates' values.
type env struct {
	vals map[*sema.Var]value.Value
	aggs map[*sema.Agg]value.Value
}

func newEnv() *env { return &env{vals: map[*sema.Var]value.Value{}} }

func isNull(v value.Value) bool { return v == nil || value.IsNull(v) }

// deref follows a reference to its object, or to null when it dangles.
func (o *oracle) deref(v value.Value) value.Value {
	if r, ok := v.(value.Ref); ok {
		if tv, live := o.objs[r.OID]; live {
			return value.Object{OID: r.OID, Tuple: tv}
		}
		return value.Null{}
	}
	return v
}

func elements(v value.Value) ([]value.Value, bool) {
	switch x := v.(type) {
	case *value.Set:
		return x.Elems, true
	case *value.Array:
		return x.Elems, true
	}
	return nil, false
}

// members lists what a variable ranging over a collection binds: live
// references as their objects, dangling ones not at all, values as they
// are.
func (o *oracle) members(coll []value.Value) []value.Value {
	var out []value.Value
	for _, e := range coll {
		if _, isRef := e.(value.Ref); isRef {
			if e = o.deref(e); isNull(e) {
				continue
			}
		}
		out = append(out, e)
	}
	return out
}

// extent lists the members of a top-level collection.
func (o *oracle) extent(name string) []value.Value {
	out := o.members(o.elems[name])
	for _, id := range o.extents[name] {
		out = append(out, value.Object{OID: id, Tuple: o.objs[id]})
	}
	return out
}

// retrieve returns a checked retrieve's rows, in no particular order.
func (o *oracle) retrieve(cq *sema.CheckedRetrieve) [][]value.Value {
	var exist, univ []*sema.Var
	for _, v := range cq.Vars {
		if v.Universal {
			univ = append(univ, v)
		} else {
			exist = append(exist, v)
		}
	}
	// Conjuncts over universal variables must hold for every binding of
	// them; the others select the existential bindings.
	var conds, forall []sema.Expr
	for _, c := range conjuncts(cq.Where) {
		universal := false
		sema.WalkExpr(c, func(x sema.Expr) {
			if vr, ok := x.(*sema.VarRef); ok && vr.Var.Universal {
				universal = true
			}
		})
		if universal {
			forall = append(forall, c)
		} else {
			conds = append(conds, c)
		}
	}
	var rows [][]value.Value
	groups, keys := map[string]*group{}, []string(nil)
	aggs := queryAggs(cq)
	e := newEnv()
	o.bindAll(exist, e, func() {
		if !o.holds(conds, e) {
			return
		}
		all := true
		if len(forall) > 0 {
			o.bindAll(univ, e, func() { all = all && o.holds(forall, e) }) // stops evaluating at the first failure
		}
		switch {
		case !all:
		case !cq.Aggregated:
			rows = append(rows, o.targets(cq, e))
		default:
			var key strings.Builder
			for _, by := range cq.GroupBy {
				key.WriteString(groupKey(o.eval(by, e)) + "\x00")
			}
			g := groups[key.String()]
			if g == nil {
				g = &group{rep: newEnv(), vals: map[*sema.Agg][]value.Value{}, seen: map[overKey]bool{}}
				for v, val := range e.vals {
					g.rep.vals[v] = val
				}
				groups[key.String()] = g
				keys = append(keys, key.String())
			}
			for i, a := range aggs {
				if a.Over != nil {
					seen := overKey{i, groupKey(o.eval(a.Over, e))}
					if g.seen[seen] {
						continue
					}
					g.seen[seen] = true
				}
				g.vals[a] = append(g.vals[a], o.eval(a.Arg, e))
			}
		}
	})
	if !cq.Aggregated {
		return rows
	}
	if len(keys) == 0 && len(cq.GroupBy) == 0 {
		groups[""], keys = &group{rep: newEnv()}, []string{""}
	}
	for _, k := range keys {
		g := groups[k]
		g.rep.aggs = map[*sema.Agg]value.Value{}
		for _, a := range aggs {
			g.rep.aggs[a] = fold(a, g.vals[a])
		}
		rows = append(rows, o.targets(cq, g.rep))
	}
	return rows
}

// group is one group of an aggregated retrieve: its first binding, the
// arguments each aggregate collected, and the over values seen.
type group struct {
	rep  *env
	vals map[*sema.Agg][]value.Value
	seen map[overKey]bool
}

// overKey is an over value an aggregate (by position) has counted.
type overKey struct {
	agg int
	key string
}

func queryAggs(cq *sema.CheckedRetrieve) []*sema.Agg {
	var out []*sema.Agg
	for _, t := range cq.Targets {
		sema.WalkAggs(t.Expr, func(a *sema.Agg) {
			if !a.SetArg {
				out = append(out, a)
			}
		})
	}
	return out
}

// groupKey: objects and references group by identity, everything else
// by its display form.
func groupKey(v value.Value) string {
	if id, ok := value.OIDOf(v); ok {
		return "#" + id.String()
	}
	if isNull(v) {
		return "\x00null"
	}
	return v.String()
}

func (o *oracle) targets(cq *sema.CheckedRetrieve, e *env) []value.Value {
	row := make([]value.Value, len(cq.Targets))
	for i, t := range cq.Targets {
		row[i] = o.eval(t.Expr, e)
	}
	return row
}

func conjuncts(e sema.Expr) []sema.Expr {
	if b, ok := e.(*sema.Binary); ok && b.Class == sema.OpLogic && b.Op == "and" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []sema.Expr{e}
}

// holds reports whether every condition is true; null is not.
func (o *oracle) holds(conds []sema.Expr, e *env) bool {
	for _, c := range conds {
		if b, ok := o.eval(c, e).(value.Bool); !ok || !bool(b) {
			return false
		}
	}
	return true
}

// bindAll binds vars[0], then vars[1] under it, and so on, calling fn
// for every complete combination.
func (o *oracle) bindAll(vars []*sema.Var, e *env, fn func()) {
	if len(vars) == 0 {
		fn()
		return
	}
	v := vars[0]
	var src []value.Value
	switch v.Kind {
	case sema.VarExtent:
		src = o.extent(v.Extent)
	case sema.VarNested:
		o.reach(e.vals[v.Parent], v.Steps, e, &src)
	case sema.VarDBPath:
		o.reach(o.vars[v.Extent], v.Steps, e, &src)
	case sema.VarExprPath:
		o.reach(o.eval(v.Base, e), v.Steps, e, &src)
	}
	for _, val := range src {
		e.vals[v] = val
		o.bindAll(vars[1:], e, fn)
	}
	delete(e.vals, v)
}

// reach collects the members of the collection a range path leads to.
// A collection met before an attribute step fans out over its elements;
// an index step applies to the collection itself.
func (o *oracle) reach(cur value.Value, steps []sema.Step, e *env, out *[]value.Value) {
	for i, st := range steps {
		if cur = o.step(cur, st, e); isNull(cur) {
			return
		}
		if elems, ok := elements(cur); ok && i+1 < len(steps) && steps[i+1].Attr != "" {
			for _, el := range elems {
				o.reach(o.deref(el), steps[i+1:], e, out)
			}
			return
		}
	}
	elems, ok := elements(cur)
	if !ok {
		fail("path does not end in a collection (got %T)", cur)
	}
	*out = append(*out, o.members(elems)...)
}

// step applies one path step to a single value: dereference, attribute,
// then index (1-based; out of range reads as null).
func (o *oracle) step(cur value.Value, st sema.Step, e *env) value.Value {
	if cur = o.deref(cur); isNull(cur) {
		return value.Null{}
	}
	if st.Attr != "" {
		tv, ok := value.AsTuple(cur)
		if !ok {
			fail("attribute %s of non-tuple value %s", st.Attr, cur)
		}
		if cur = tv.Get(st.Attr); isNull(cur) {
			return value.Null{}
		}
	}
	if st.Index == nil {
		return cur
	}
	i, ok := o.eval(st.Index, e).(value.Int)
	if !ok {
		fail("array index must be an integer")
	}
	arr, ok := cur.(*value.Array)
	if !ok {
		fail("indexing a non-array value")
	}
	if i.V < 1 || i.V > int64(len(arr.Elems)) {
		return value.Null{}
	}
	return arr.Elems[i.V-1]
}

// path applies a step of a path expression: an attribute step over a
// collection maps over its elements, dropping nulls and flattening
// collections one level, so a path through a set is set-valued.
func (o *oracle) path(cur value.Value, st sema.Step, e *env) value.Value {
	elems, ok := elements(cur)
	if !ok || st.Attr == "" {
		return o.step(cur, st, e)
	}
	out := &value.Set{}
	for _, el := range elems {
		r := o.path(el, st, e)
		if inner, ok := elements(r); ok {
			out.Elems = append(out.Elems, inner...)
		} else if !isNull(r) {
			out.Elems = append(out.Elems, r)
		}
	}
	return out
}

// plain strips an object to its value for the value operators.
func plain(v value.Value) value.Value {
	if obj, ok := v.(value.Object); ok {
		return obj.Tuple
	}
	return v
}

func (o *oracle) evalAll(es []sema.Expr, e *env) []value.Value {
	out := make([]value.Value, len(es))
	for i, x := range es {
		out[i] = o.eval(x, e)
	}
	return out
}

func (o *oracle) eval(x sema.Expr, e *env) value.Value {
	switch x := x.(type) {
	case *sema.Const:
		return x.Val
	case *sema.VarRef:
		v, ok := e.vals[x.Var]
		if !ok {
			fail("variable %s not bound", x.Var.Name)
		}
		return v
	case *sema.ParamRef:
		if n := len(o.frames); n == 0 || x.Slot >= len(o.frames[n-1]) {
			fail("parameter %s not bound", x.Name)
		}
		return o.frames[len(o.frames)-1][x.Slot]
	case *sema.DBVarRead:
		v, ok := o.vars[x.Name]
		if !ok {
			fail("no database variable %s", x.Name)
		}
		return v
	case *sema.ExtentSet:
		return &value.Set{Elems: o.extent(x.Name)}
	case *sema.PathExpr:
		cur := o.eval(x.Base, e)
		for _, st := range x.Steps {
			if isNull(cur) {
				break
			}
			cur = o.path(cur, st, e)
		}
		if isNull(cur) {
			return value.Null{}
		}
		return cur
	case *sema.Unary:
		v := o.eval(x.X, e)
		if x.Fn != nil {
			return must(x.Fn.Impl([]value.Value{plain(v)}))
		}
		switch n := v.(type) {
		case value.Bool:
			if x.Op == "not" {
				return !n
			}
		case value.Int:
			if x.Op == "-" {
				return value.Int{K: n.K, V: -n.V}
			}
		case value.Float:
			if x.Op == "-" {
				return value.Float{K: n.K, V: -n.V}
			}
		}
		return value.Null{}
	case *sema.Binary:
		return o.binary(x, e)
	case *sema.ADTCall:
		args := o.evalAll(x.Args, e)
		for i, a := range args {
			if isNull(a) {
				return value.Null{}
			}
			args[i] = plain(a)
		}
		return must(x.Fn.Impl(args))
	case *sema.FuncCall:
		return o.call(x.Fn, o.evalAll(x.Args, e))
	case *sema.Agg:
		if !x.SetArg {
			v, ok := e.aggs[x]
			if !ok {
				fail("query-level aggregate %s outside an aggregated retrieve", x.Op)
			}
			return v
		}
		arg := o.eval(x.Arg, e)
		elems, ok := elements(arg)
		if !ok && !isNull(arg) {
			fail("aggregate %s over non-collection %s", x.Op, arg)
		}
		return fold(x, elems)
	case *sema.SetCtor:
		return &value.Set{Elems: o.evalAll(x.Elems, e)}
	}
	fail("oracle: unhandled expression %T", x)
	return nil
}

// identity is what is/isnot compare: an object's oid or a live
// reference's. Anything else has none, and two values without identity
// are the same.
func (o *oracle) identity(v value.Value) (oid.OID, bool) {
	switch x := v.(type) {
	case value.Object:
		return x.OID, true
	case value.Ref:
		_, live := o.objs[x.OID]
		return x.OID, live
	}
	return 0, false
}

func (o *oracle) binary(b *sema.Binary, e *env) value.Value {
	l := o.eval(b.L, e)
	if b.Class == sema.OpLogic {
		// Three-valued: false decides and, true decides or, and an
		// operand that is not a boolean is unknown.
		decider := value.Bool(b.Op == "or")
		if l == decider {
			return l
		}
		r := o.eval(b.R, e)
		_, lok := l.(value.Bool)
		_, rok := r.(value.Bool)
		if r == decider || lok && rok {
			return r
		}
		return value.Null{}
	}
	r := o.eval(b.R, e)
	switch b.Class {
	case sema.OpIdent:
		lid, lok := o.identity(l)
		rid, rok := o.identity(r)
		same := lok && rok && lid == rid || !lok && !rok
		return value.Bool(same == (b.Op == "is"))
	case sema.OpMember:
		elem, coll := l, r
		if b.Op == "contains" {
			elem, coll = r, l
		}
		if isNull(elem) || isNull(coll) {
			return value.Null{}
		}
		elems, ok := elements(coll)
		if !ok {
			fail("%s requires a collection", b.Op)
		}
		eid, eok := value.OIDOf(elem)
		for _, c := range elems {
			if cid, cok := value.OIDOf(c); value.Equal(c, elem) || cok && eok && cid == eid {
				return value.Bool(true)
			}
		}
		return value.Bool(false)
	case sema.OpSet:
		return setOperator(b.Op, l, r)
	}
	if isNull(l) || isNull(r) {
		return value.Null{}
	}
	switch b.Class {
	case sema.OpCompare:
		if b.Op == "=" || b.Op == "!=" {
			return value.Bool(value.Equal(plain(l), plain(r)) == (b.Op == "="))
		}
		c := must(value.Compare(plain(l), plain(r)))
		return value.Bool(map[string]bool{"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[b.Op])
	case sema.OpArith:
		return arithmetic(b.Op, l, r)
	case sema.OpADT:
		return must(b.Fn.Impl([]value.Value{plain(l), plain(r)}))
	}
	fail("oracle: unhandled operator %s", b.Op)
	return nil
}

// setOperator: union keeps the left operand and adds the right's
// elements it lacks; intersect and diff keep the left's elements in
// (not in) the right, once each.
func setOperator(op string, l, r value.Value) value.Value {
	ls, lok := elements(l)
	rs, rok := elements(r)
	switch {
	case (!lok || !rok) && (isNull(l) || isNull(r)):
		return value.Null{}
	case !lok || !rok:
		fail("%s requires sets", op)
	}
	has := func(vs []value.Value, v value.Value) bool {
		for _, x := range vs {
			if value.Equal(x, v) {
				return true
			}
		}
		return false
	}
	out := &value.Set{}
	if op == "union" {
		out.Elems = append(out.Elems, ls...)
		for _, v := range rs {
			if !has(out.Elems, v) {
				out.Elems = append(out.Elems, v)
			}
		}
		return out
	}
	for _, v := range ls {
		if has(rs, v) == (op == "intersect") && !has(out.Elems, v) {
			out.Elems = append(out.Elems, v)
		}
	}
	return out
}

// arithmetic: integers stay integers, a float operand promotes, + also
// concatenates strings, and / or % by zero is an error.
func arithmetic(op string, l, r value.Value) value.Value {
	ls, lStr := l.(value.Str)
	rs, rStr := r.(value.Str)
	if lStr && rStr && op == "+" {
		return value.NewStr(ls.V + rs.V)
	}
	li, lInt := l.(value.Int)
	ri, rInt := r.(value.Int)
	lf, lok := value.AsFloat(l)
	rf, rok := value.AsFloat(r)
	switch {
	case lInt && rInt && (op == "/" || op == "%") && ri.V == 0:
		fail("division by zero")
	case lInt && rInt:
		switch op {
		case "+":
			return value.NewInt(li.V + ri.V)
		case "-":
			return value.NewInt(li.V - ri.V)
		case "*":
			return value.NewInt(li.V * ri.V)
		case "/":
			return value.NewInt(li.V / ri.V)
		}
		return value.NewInt(li.V % ri.V)
	case !lok || !rok:
		fail("operator %s undefined for %s and %s", op, l, r)
	case op == "%":
		fail("%% requires integers")
	case op == "/" && rf == 0:
		fail("division by zero")
	}
	return value.NewFloat(map[string]float64{"+": lf + rf, "-": lf - rf, "*": lf * rf, "/": lf / rf}[op])
}

// fold folds the non-null elements: count counts them, sum of integers
// is an integer, avg is a float, min/max keep the first of equals; over
// no elements count and sum are 0 and the others null.
func fold(a *sema.Agg, elems []value.Value) value.Value {
	var vals []value.Value
	for _, v := range elems {
		if !isNull(v) {
			if a.SetFn != nil {
				v = plain(v)
			}
			vals = append(vals, v)
		}
	}
	switch {
	case a.SetFn != nil:
		return must(a.SetFn.Impl(vals))
	case a.Op == "count":
		return value.NewInt(int64(len(vals)))
	case len(vals) == 0 && a.Op == "sum":
		return value.NewInt(0)
	case len(vals) == 0:
		return value.Null{}
	case a.Op == "min" || a.Op == "max":
		best := vals[0]
		for _, v := range vals[1:] {
			c := must(value.Compare(plain(v), plain(best)))
			if c < 0 && a.Op == "min" || c > 0 && a.Op == "max" {
				best = v
			}
		}
		return best
	}
	var si int64
	var sf float64
	ints := true
	for _, v := range vals {
		f, ok := value.AsFloat(v)
		if !ok {
			fail("%s over non-numeric value %s", a.Op, v)
		}
		i, isInt := v.(value.Int)
		si, sf, ints = si+i.V, sf+f, ints && isInt
	}
	switch {
	case a.Op == "avg":
		return value.NewFloat(sf / float64(len(vals)))
	case ints:
		return value.NewInt(si)
	}
	return value.NewFloat(sf)
}

// call invokes an EXCESS function: schema-typed parameters receive the
// objects their reference arguments name, a late function runs the
// definition for the first argument's runtime type, and the result is
// shaped by the declared return component.
func (o *oracle) call(fn *catalog.Function, args []value.Value) value.Value {
	if len(o.frames) >= 64 {
		fail("function %s: call depth exceeded", fn.Name)
	}
	for i, a := range args {
		if _, isTT := fn.Params[i].Type.(*types.TupleType); isTT {
			args[i] = o.deref(a)
		}
	}
	if len(args) > 0 && fn.Late {
		if obj, ok := args[0].(value.Object); ok && obj.Tuple != nil {
			if dyn, found := o.cat.FindFunction(fn.Name, obj.Tuple.Type); found {
				fn = dyn
			}
		}
	}
	if !fn.HasBody() {
		def, ok := o.cat.FindFunction(fn.Name, fn.Receiver())
		if !ok || !def.HasBody() {
			fail("function %s is declared but not defined", fn.Name)
		}
		fn = def
	}
	body, ok := o.bodies[fn]
	if !ok {
		ck := sema.NewFrameChecker(o.cat, sema.NewSession(), sema.Frame(fn.Params))
		if fn.Expr != nil {
			body = must(ck.BindExpr(fn.Expr))
		} else {
			body = must(ck.CheckRetrieve(fn.Query))
		}
		o.bodies[fn] = body
	}
	o.frames = append(o.frames, args)
	defer func() { o.frames = o.frames[:len(o.frames)-1] }()
	cq, isQuery := body.(*sema.CheckedRetrieve)
	if !isQuery {
		return shape(o.eval(body.(sema.Expr), newEnv()), fn.Returns)
	}
	rows := o.retrieve(cq)
	if _, isSet := fn.Returns.Type.(*types.Set); isSet {
		elem, _ := types.ElemOf(fn.Returns.Type)
		out := &value.Set{}
		for _, row := range rows {
			out.Elems = append(out.Elems, shape(row[0], elem))
		}
		return out
	}
	switch len(rows) {
	case 0:
		return value.Null{}
	case 1:
		return shape(rows[0][0], fn.Returns)
	}
	fail("function %s returned %d rows for a scalar result", fn.Name, len(rows))
	return nil
}

// shape stores a value in a component: an object becomes a reference in
// a ref slot and a copy of its value in an own slot, a set becomes an
// array in an array slot.
func shape(v value.Value, comp types.Component) value.Value {
	if isNull(v) {
		return value.Null{}
	}
	if at, ok := comp.Type.(*types.Array); ok {
		if s, ok := v.(*value.Set); ok {
			return &value.Array{Elems: s.Elems, Fixed: at.Fixed}
		}
	}
	obj, ok := v.(value.Object)
	if !ok {
		return v
	}
	if _, isRef := comp.Type.(*types.Ref); isRef || comp.Mode == types.RefTo || comp.Mode == types.OwnRef {
		return value.Ref{OID: obj.OID, Type: obj.Tuple.Type.Name}
	}
	return value.Copy(obj.Tuple)
}
