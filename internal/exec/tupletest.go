package exec

import (
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// This file compiles the leading run of a scan node's filter into tuple
// tests: conjuncts of the shape V.a op k, V.r.a op k or k op V.a, where V
// is the node's own variable, a an integer attribute, r a ref attribute
// and k a literal or a parameter, decided on the raw tuple the scan
// hands out before the row is bound. A row a test rejects is never
// bound; a row the tests pass skips their conjuncts in pass. The tests
// decide exactly what the compiled conjuncts would:
//
//   - prefix only: a test stands only in a leading run of the filter, so
//     the first false (and the first error) comes where pass finds it;
//   - a test that cannot decide a row (a tuple of another type than the
//     attribute's static one, a field that is not an integer, a hop over
//     a field that is not a ref, an unbound parameter) sends the row
//     through the whole filter, which decides it as it always did;
//   - a null field, a null parameter or a dangling hop rejects the row,
//     as three-valued logic has the conjunct yield null.

// cmpOp is a comparison operator, resolved when the program compiles.
type cmpOp uint8

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

// cmpOpOf resolves a comparison operator's text.
func cmpOpOf(op string) (cmpOp, bool) {
	switch op {
	case "=":
		return cmpEq, true
	case "!=":
		return cmpNe, true
	case "<":
		return cmpLt, true
	case "<=":
		return cmpLe, true
	case ">":
		return cmpGt, true
	case ">=":
		return cmpGe, true
	}
	return 0, false
}

// mirror is the operator with its operands swapped: k < V.a is V.a > k.
func (op cmpOp) mirror() cmpOp {
	switch op {
	case cmpLt:
		return cmpGt
	case cmpLe:
		return cmpGe
	case cmpGt:
		return cmpLt
	case cmpGe:
		return cmpLe
	}
	return op
}

// cmpInt compares two integers: the comparison of the unboxed integer
// lane and of the tuple tests.
func cmpInt(op cmpOp, l, r int64) bool {
	switch op {
	case cmpEq:
		return l == r
	case cmpNe:
		return l != r
	case cmpLt:
		return l < r
	case cmpLe:
		return l <= r
	case cmpGt:
		return l > r
	default: // cmpGe
		return l >= r
	}
}

// tupleTest is one filter conjunct compiled to run on a row's tuple:
// steps[0] reads the attribute of V, and for V.r.a, where steps has
// two, the ref it holds is dereferenced and steps[1] reads the target's
// attribute. The other operand is k, or the parameter param when it is
// not nil, resolved once per run (operandOf).
type tupleTest struct {
	steps []stepProg
	op    cmpOp
	k     int64
	param *sema.ParamRef
}

// operand is a tuple test's other operand as one run resolved it: k,
// unless the operand is a null parameter (null), which rejects every
// row, or a parameter that is unbound or not an integer (open), which
// leaves every row to the filter.
type operand struct {
	k          int64
	null, open bool
}

// operandOf resolves t's other operand for a run.
func (ex *State) operandOf(t *tupleTest) operand {
	if t.param == nil {
		return operand{k: t.k}
	}
	pv, err := ex.param(t.param)
	if err != nil {
		return operand{open: true}
	}
	if iv, ok := pv.(value.Int); ok {
		return operand{k: iv.V}
	}
	return operand{null: value.IsNull(pv), open: !value.IsNull(pv)}
}

// Tuple-test verdicts.
const (
	testTrue   = iota // the conjunct holds
	testFalse         // the conjunct is false or null: the row is rejected
	testUnsure        // the filter decides the row
)

// tupleTests compiles the leading run of a node's filter conjuncts that
// are tuple tests over its variable v.
func tupleTests(v *sema.Var, filter []sema.Expr) []tupleTest {
	var tests []tupleTest
	for _, f := range filter {
		t, ok := compileTupleTest(v, f)
		if !ok {
			break
		}
		tests = append(tests, t)
	}
	return tests
}

// compileTupleTest compiles one conjunct, when it has a tuple test's
// shape.
func compileTupleTest(v *sema.Var, e sema.Expr) (tupleTest, bool) {
	b, ok := e.(*sema.Binary)
	if !ok || b.Class != sema.OpCompare || !intTyped(b.L) || !intTyped(b.R) {
		return tupleTest{}, false
	}
	op, ok := cmpOpOf(b.Op)
	if !ok {
		return tupleTest{}, false
	}
	side, k := b.L, b.R
	if _, isPath := side.(*sema.PathExpr); !isPath {
		side, k, op = b.R, b.L, op.mirror()
	}
	p, ok := side.(*sema.PathExpr)
	if !ok || len(p.Steps) == 0 || len(p.Steps) > 2 {
		return tupleTest{}, false
	}
	if vr, ok := p.Base.(*sema.VarRef); !ok || vr.Var != v {
		return tupleTest{}, false
	}
	t := tupleTest{op: op}
	switch x := k.(type) {
	case *sema.Const:
		iv, ok := x.Val.(value.Int)
		if !ok {
			return tupleTest{}, false
		}
		t.k = iv.V
	case *sema.ParamRef:
		t.param = x
	default:
		return tupleTest{}, false
	}
	for _, st := range p.Steps {
		if st.Attr == "" || st.Index != nil {
			return tupleTest{}, false
		}
	}
	t.steps = resolveSteps(p.Base.Type(), p.Steps, nil)
	for _, sp := range t.steps {
		if sp.tt == nil {
			return tupleTest{}, false
		}
	}
	if len(t.steps) == 2 {
		if a, _ := t.steps[0].tt.Attr(t.steps[0].attr); a.Comp.Mode == types.Own {
			return tupleTest{}, false // a nested tuple, not a ref
		}
	}
	return t, true
}

// run decides the test on the tuple of a row against its resolved
// operand. Like the compiled conjunct, it reads the path whole before it
// looks at the operand, so a hop is fetched (and counted) whatever the
// parameter holds.
func (t *tupleTest) run(ex *State, tv *value.Tuple, k operand) int {
	st := &t.steps[0]
	if tv.Type != st.tt {
		return testUnsure
	}
	f := st.field(tv)
	if len(t.steps) == 2 {
		switch r := f.(type) {
		case value.Ref:
			target, live, err := ex.derefGet(r.OID)
			switch {
			case err != nil:
				return testUnsure
			case !live:
				f = value.Null{}
			case target.Type != t.steps[1].tt:
				return testUnsure
			default:
				f = t.steps[1].field(target)
			}
		default:
			if !value.IsNull(f) {
				return testUnsure
			}
		}
	}
	l, lok := f.(value.Int)
	switch {
	case !lok && !value.IsNull(f), k.open:
		return testUnsure
	case lok && !k.null && cmpInt(t.op, l.V, k.k):
		return testTrue
	}
	return testFalse
}

// runTests runs a node's tuple tests on a row's tuple in filter order,
// each against its operand in ops. It returns how many leading filter
// conjuncts they decided true, and false when one rejected the row,
// which it counts in *rejects. A test that cannot decide ends them: the
// row goes through the whole filter, and the fetches the tests made for
// it are uncounted, since the filter makes them again.
func (ex *State) runTests(tests []tupleTest, ops []operand, rejects *int64, tv *value.Tuple) (int, bool) {
	derefs := ex.derefs
	for i := range tests {
		switch tests[i].run(ex, tv, ops[i]) {
		case testFalse:
			*rejects++
			return 0, false
		case testUnsure:
			ex.derefs = derefs
			return 0, true
		}
	}
	return len(tests), true
}
