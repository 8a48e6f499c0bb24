// Package algebra lowers checked EXCESS queries to executable plans and
// optimizes them in the rule-driven style of the EXODUS optimizer
// generator [Grae87]: the optimizer is a small engine over declarative
// rules and an access-method applicability table, not a set of hard-coded
// plan shapes, so new access methods and operator properties slot in as
// table entries.
//
// A plan is a pipeline of variable-binding nodes (extent scans, optional
// index access, nested-path unnests) with predicates attached at the
// earliest node where their variables are bound, followed by a residual
// filter and, for universally quantified variables, a forall check.
package algebra

import (
	"bytes"
	"strings"

	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// AccessPath selects how an extent-scan node locates its objects: nil
// means a heap scan; otherwise a B+-tree range probe on Index. Bounds
// holds every conjunct of the node's filter on the index path, each with
// a closed key expression; the executor evaluates them once per run and
// tightens them into one range (Range). FromPred is the probe as the
// plan shows it: the operators of the conjuncts that bound it.
type AccessPath struct {
	Index    *catalog.Index
	Bounds   []KeyBound
	FromPred string
}

// KeyBound is one conjunct's contribution to an index probe: the
// operator as seen from the path side and the expression on the other
// side. The key is closed — a literal, an ADT call over literals, or a
// parameter ($n, or a function or procedure parameter) — so it has one
// value for the whole run.
type KeyBound struct {
	Op  string
	Key sema.Expr
}

// KeyRange is a probe's range for one run: encoded bounds (nil when
// unbounded on that side), or Empty when a key is null — a comparison
// with null is never true, so no object qualifies.
type KeyRange struct {
	Lo, Hi       []byte
	IncLo, IncHi bool
	Empty        bool
}

// Range tightens the probe's bounds over their keys' values (keys[i] is
// the value of Bounds[i].Key) with the rules the planner ranks by.
// Contradictory bounds give an empty B+-tree range. ok is false when a
// key has no index encoding: the node then runs as its scan, and the
// filter, which keeps every conjunct, decides.
func (a *AccessPath) Range(keys []value.Value) (r KeyRange, ok bool) {
	p, empty, ok := a.tightened(keys)
	switch {
	case !ok:
		return KeyRange{}, false
	case empty:
		return KeyRange{Empty: true}, true
	}
	return KeyRange{Lo: p.lo.key, Hi: p.hi.key, IncLo: p.lo.inc, IncHi: p.hi.inc}, true
}

// tightened merges the bounds over their keys' values into one probe;
// empty reports a null key, ok false a key without an index encoding.
func (a *AccessPath) tightened(keys []value.Value) (p probe, empty, ok bool) {
	p.ix = a.Index
	for i, k := range keys {
		if value.IsNull(k) {
			return p, true, true
		}
		enc, ok := codec.EncodeKey(k)
		if !ok {
			return p, false, false
		}
		p.tighten(a.Bounds[i].Op, i, enc, true)
	}
	return p, false, true
}

// ConstRange is Range folded at compile time, for a probe whose keys are
// all literals; ok is false when some key is not.
func (a *AccessPath) ConstRange() (r KeyRange, ok bool) {
	keys, ok := a.keyValues(nil)
	if !ok {
		return KeyRange{}, false
	}
	return a.Range(keys)
}

// keyValues evaluates the bounds' keys, parameters from args by slot;
// ok is false when some key is not known.
func (a *AccessPath) keyValues(args []value.Value) ([]value.Value, bool) {
	keys := make([]value.Value, len(a.Bounds))
	for i, b := range a.Bounds {
		v, ok := constValue(b.Key, args)
		if !ok {
			return nil, false
		}
		keys[i] = v
	}
	return keys, true
}

// fromPred is the bracket EXPLAIN shows for the probe. A plan whose
// literals were lifted into slots is explained with the call's values
// (args): tightened by value, its bracket is the one the literal form
// plans, so a cached shape explains like the statement that was typed.
func (a *AccessPath) fromPred(args []value.Value) string {
	if args == nil {
		return a.FromPred
	}
	keys, ok := a.keyValues(args)
	if !ok {
		return a.FromPred
	}
	p, empty, ok := a.tightened(keys)
	if empty || !ok {
		return a.FromPred
	}
	return strings.Join(p.sources(), " ")
}

// HashJoinPath selects the hash-join access method for an extent-scan
// node: the inner extent is materialized once into a hash table keyed on
// Build, and each outer binding probes it with Probe instead of
// rescanning the extent. Build mentions only the node's own variable;
// Probe mentions only variables bound by earlier nodes. The selecting
// conjunct stays in the node's filter, which EXPLAIN shows whole. The
// executor decides from the keys' static types whether table-key
// equality is exactly = (identities for is; int1, int2 or int4 on both
// sides; varchar on both; a char[n] side): there a row a probe finds
// skips the conjunct, and any other match is re-checked, since hash
// equality may be coarser than = (floats with NaN, bools on their
// display form). Every match skips the node's conjuncts over its own
// variable, which the build applied.
type HashJoinPath struct {
	Build    sema.Expr // key over this node's variable (hash-table side)
	Probe    sema.Expr // key over earlier-bound variables (probe side)
	Ident    bool      // identity join (is): keys are object identities
	FromPred string    // display: the conjunct that selected the method
}

// Node binds one range variable per input binding.
type Node struct {
	Var    *sema.Var
	Access *AccessPath
	Hash   *HashJoinPath
	Filter []sema.Expr // conjuncts evaluable once Var is bound
}

// Plan is an executable query plan.
type Plan struct {
	Nodes     []Node
	Universal []*sema.Var // universally quantified variables
	// Final holds residual existential conjuncts not pushed to any node.
	Final []sema.Expr
	// ForAll holds conjuncts that mention universal variables; a binding
	// survives only if they hold for every combination of universal
	// bindings.
	ForAll []sema.Expr
	// Runtime, when non-nil, makes the executor record per-operator
	// actuals into it (EXPLAIN ANALYZE). Set via EnableRuntime.
	Runtime *PlanRuntime
	// Cached marks a plan served from the engine plan cache; EXPLAIN
	// renders it with a "(cached)" marker.
	Cached bool
	// Args, set on a per-call clone of a plan whose literals the session
	// lifted into parameter slots, holds the call's literals by slot:
	// EXPLAIN renders each slot as its literal.
	Args []value.Value
}

// Clone returns a shallow copy of the plan with its own Nodes slice and
// no Runtime. Cached plans are shared between concurrent statements, so
// a statement that needs instrumentation (EnableRuntime mutates the
// plan) must clone first.
func (p *Plan) Clone() *Plan {
	n := *p
	n.Nodes = append([]Node(nil), p.Nodes...)
	n.Runtime = nil
	return &n
}

// Stats estimates extent cardinalities for join ordering. The object
// store implements it.
type Stats interface {
	EstimateLen(extent string) int
}

// DefaultCardinality is the cardinality assumed for an extent when no
// statistics are available (unknown extent, or no Stats provider). Plans
// costed from it are guesses; the executor counts such misses under the
// stats.misses metric so bad estimates are observable.
const DefaultCardinality = 1000

// hashProbeCost is the assumed per-outer-binding cost of probing a hash
// table, in the same unit reorder uses for extent cardinalities (rows
// touched). A probe-able extent is scanned once to build the table and
// then costs O(1) per outer row, so reorder charges the amortized build
// instead of the full rescan cardinality.
const hashProbeCost = 8

// Build lowers a checked query to a plan: it orders the variables,
// pushes each conjunct down to the earliest node that binds its
// variables, and selects index probes and hash joins.
func Build(cat *catalog.Catalog, stats Stats, q sema.Query) *Plan {
	p := &Plan{}
	var exist []*sema.Var
	for _, v := range q.Vars {
		if v.Universal {
			p.Universal = append(p.Universal, v)
		} else {
			exist = append(exist, v)
		}
	}
	conjs := splitConjuncts(q.Where)

	// Separate universal conjuncts.
	var existConjs []sema.Expr
	for _, cj := range conjs {
		if mentionsUniversal(cj) {
			p.ForAll = append(p.ForAll, cj)
		} else {
			existConjs = append(existConjs, cj)
		}
	}

	for _, v := range reorder(exist, existConjs, stats) {
		p.Nodes = append(p.Nodes, Node{Var: v})
	}

	// Rule: attach each conjunct at the earliest node where every
	// variable it mentions is bound; the node's filter is then complete,
	// so its access method is chosen from it.
	bound := map[*sema.Var]bool{}
	for i := range p.Nodes {
		bound[p.Nodes[i].Var] = true
		for _, cj := range existConjs {
			if cj == nil {
				continue
			}
			if at := earliestNode(cj, p.Nodes[:i+1], bound); at == i {
				p.Nodes[i].Filter = append(p.Nodes[i].Filter, cj)
			}
		}
		selectAccessPath(cat, &p.Nodes[i])
		selectHashJoin(&p.Nodes[i], bound)
	}
	for _, cj := range existConjs {
		if !mentionsAnyVar(cj) {
			p.Final = append(p.Final, cj) // constant predicates
		}
	}
	return p
}

// selectHashJoin upgrades a nested rescan to a hash-table probe when one
// of the node's own conjuncts is an equality (or identity) linking an
// expression over this node's variable to an expression over variables
// bound by earlier nodes — the access-method table entry for equi-joins.
// The conjunct remains in the filter: where hash lookup over-approximates
// (encoded-key equality may be coarser than =) the executor re-checks
// it, exactly as with index probes (HashJoinPath).
func selectHashJoin(n *Node, bound map[*sema.Var]bool) {
	if n.Var.Kind != sema.VarExtent {
		return // nested/path variables depend on the outer binding
	}
	for _, cj := range n.Filter {
		build, probe, ident, ok := equiJoinKeys(cj, n.Var, bound)
		if !ok {
			continue
		}
		n.Hash = &HashJoinPath{Build: build, Probe: probe, Ident: ident, FromPred: ExprString(cj)}
		return
	}
}

// equiJoinKeys decomposes a conjunct into hash-join keys: it must be
// "build = probe" or "build is probe" (either orientation) where build
// mentions only v and probe mentions only bound variables other than v.
// Identity keys may be null on either side (a path like E.dept can
// dangle, and "null is null" holds); the executor keeps null-identity
// build rows in a separate list paired only with null-identity probes,
// so the decomposition does not need to exclude them.
func equiJoinKeys(cj sema.Expr, v *sema.Var, bound map[*sema.Var]bool) (build, probe sema.Expr, ident, ok bool) {
	b, isBin := cj.(*sema.Binary)
	if !isBin {
		return nil, nil, false, false
	}
	switch {
	case b.Class == sema.OpCompare && b.Op == "=":
	case b.Class == sema.OpIdent && b.Op == "is":
		ident = true
	default:
		return nil, nil, false, false
	}
	side := func(e sema.Expr) (own, outer bool) {
		vs := varsOf(e)
		if len(vs) == 0 {
			return false, false // constant: index selection's territory
		}
		own, outer = true, true
		for x := range vs {
			if x != v {
				own = false
			}
			if x == v || !bound[x] {
				outer = false
			}
		}
		return own, outer
	}
	lOwn, lOuter := side(b.L)
	rOwn, rOuter := side(b.R)
	switch {
	case lOwn && rOuter:
		build, probe = b.L, b.R
	case rOwn && lOuter:
		build, probe = b.R, b.L
	default:
		return nil, nil, false, false
	}
	return build, probe, ident, true
}

// splitConjuncts flattens a predicate into AND-ed conjuncts.
func splitConjuncts(e sema.Expr) []sema.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sema.Binary); ok && b.Op == "and" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sema.Expr{e}
}

// varsOf collects the range variables an expression mentions.
func varsOf(e sema.Expr) map[*sema.Var]bool {
	out := map[*sema.Var]bool{}
	sema.WalkExpr(e, func(x sema.Expr) {
		if vr, ok := x.(*sema.VarRef); ok {
			out[vr.Var] = true
		}
	})
	return out
}

func mentionsUniversal(e sema.Expr) bool {
	for v := range varsOf(e) {
		if v.Universal {
			return true
		}
	}
	return false
}

func mentionsAnyVar(e sema.Expr) bool { return len(varsOf(e)) > 0 }

// earliestNode returns the index of the node at which all variables of
// the conjunct are bound, or -1 if some variable is not bound yet. nodes
// is the prefix ending at the candidate node.
func earliestNode(e sema.Expr, nodes []Node, bound map[*sema.Var]bool) int {
	need := varsOf(e)
	if len(need) == 0 {
		return -1 // constant predicate: goes to Final
	}
	last := -1
	for v := range need {
		if !bound[v] {
			return -1
		}
		for i := range nodes {
			if nodes[i].Var == v && i > last {
				last = i
			}
		}
	}
	if last == len(nodes)-1 {
		return last
	}
	return -1 // bound strictly earlier; an earlier call attached it
}

// reorder places extent variables cheapest-first while keeping nested
// variables after their parents (a greedy cost-ordered topological sort —
// the join-ordering rule). An extent that an equality conjunct links to
// an already-placed variable is charged the amortized hash cost (one
// build scan spread over the outer loop, plus a constant probe) instead
// of its full rescan cardinality, which pulls equi-joined extents in
// right after their join partners. Of two extents an equality conjunct
// links, the larger by estimate is placed first: the later node, which
// binds the smaller one, is the hash join, so the table holds the
// smaller input and the larger one probes it. Equal estimates keep the
// cheapest-first choice. Each extent is estimated once.
func reorder(vars []*sema.Var, conjs []sema.Expr, stats Stats) []*sema.Var {
	est := map[*sema.Var]int{} // extent variables only
	for _, v := range vars {
		if v.Kind == sema.VarExtent {
			est[v] = DefaultCardinality
			if stats != nil {
				est[v] = stats.EstimateLen(v.Extent)
			}
		}
	}
	placed := map[*sema.Var]bool{}
	var out []*sema.Var
	linked := func(v *sema.Var) bool {
		for _, cj := range conjs {
			if _, _, _, ok := equiJoinKeys(cj, v, placed); ok {
				return true
			}
		}
		return false
	}
	cost := func(v *sema.Var) int {
		n, ok := est[v]
		if !ok {
			return 1 // nested/db-path variables are cheap once parents bound
		}
		// Build once (amortized across outer bindings), probe per row.
		if c := hashProbeCost + n/16; c < n && linked(v) {
			n = c
		}
		return n
	}
	// larger returns the largest unplaced extent that an equality
	// conjunct links to extent v, when it is larger than v and v has no
	// placed partner to probe: placing it first leaves v the build side.
	larger := func(v *sema.Var) (best *sema.Var) {
		if _, ok := est[v]; !ok || linked(v) {
			return nil
		}
		for _, u := range vars {
			if n, ok := est[u]; ok && !placed[u] && n > est[v] && (best == nil || n > est[best]) {
				placed[u] = true
				if linked(v) {
					best = u
				}
				delete(placed, u)
			}
		}
		return best
	}
	ready := func(v *sema.Var) bool {
		return v.Parent == nil || placed[v.Parent]
	}
	for len(out) < len(vars) {
		var best *sema.Var
		bestCost := 0
		for _, v := range vars {
			if placed[v] || !ready(v) {
				continue
			}
			c := cost(v)
			if best == nil || c < bestCost {
				best, bestCost = v, c
			}
		}
		if best == nil {
			// Cycle cannot happen (parents precede children in bind
			// order); fall back defensively.
			for _, v := range vars {
				if !placed[v] {
					best = v
					break
				}
			}
		}
		for u := larger(best); u != nil; u = larger(best) {
			best = u
		}
		placed[best] = true
		out = append(out, best)
	}
	return out
}

// methodTable maps comparison operators to index applicability — the
// paper's table-driven linkage of operators to access methods. "!=" is
// deliberately absent: it cannot bound a B+-tree probe. An equality
// bounds both sides. rank is how much of the key range a conjunct rules
// out, summed over the conjuncts that supply a probe's bounds: an
// equality (3) outranks a range bounded on both sides (1 + 1), which
// outranks a range bounded on one.
var methodTable = map[string]struct {
	lo, hi       bool // does the constant bound the range from below/above
	incLo, incHi bool
	rank         int
}{
	"=":  {lo: true, hi: true, incLo: true, incHi: true, rank: 3},
	"<":  {hi: true, rank: 1},
	"<=": {hi: true, incHi: true, rank: 1},
	">":  {lo: true, rank: 1},
	">=": {lo: true, incLo: true, rank: 1},
}

// probeBound is one side of a probe under construction: the tightest
// bound seen so far and the conjunct (by filter position) that gave it.
// known is false for a key whose value only the run will have.
type probeBound struct {
	set   bool // false: unbounded on this side
	known bool
	key   []byte
	inc   bool
	op    string
	at    int
}

// probe merges every conjunct on one index's path into one key range.
type probe struct {
	ix     *catalog.Index
	lo, hi probeBound
	bounds []KeyBound
}

// tighten narrows the probe by one conjunct whose key is encoded as key
// when known. A lower bound is tighter when its key is larger, an upper
// one when smaller; at equal keys the exclusive bound is the tighter.
// Contradictory bounds (lo above hi, or equal and not both inclusive)
// stay as they are: the B+-tree range they describe is empty.
func (p *probe) tighten(op string, at int, key []byte, known bool) {
	m := methodTable[op]
	b := probeBound{set: true, known: known, key: key, op: op, at: at}
	if m.lo && p.lo.replacedBy(b, m.incLo, 1) {
		p.lo = b
		p.lo.inc = m.incLo
	}
	if m.hi && p.hi.replacedBy(b, m.incHi, -1) {
		p.hi = b
		p.hi.inc = m.incHi
	}
}

// replacedBy reports whether a new bound n (inclusive when inc) is
// tighter than the current bound on a side where a larger key is tighter
// (dir 1) or a smaller one (dir -1). A key not known at plan time cannot
// be compared: it replaces only an absent bound, or a range bound when
// it is an equality — the tighter bound whenever the equality lies in
// the range, which is the only case where the probe returns anything.
func (b probeBound) replacedBy(n probeBound, inc bool, dir int) bool {
	if !b.set {
		return true
	}
	if !b.known || !n.known {
		return n.op == "=" && b.op != "="
	}
	c := bytes.Compare(n.key, b.key) * dir
	return c > 0 || c == 0 && b.inc && !inc
}

// sources returns the operators of the conjuncts supplying the lower
// then the upper bound, once when one conjunct supplies both.
func (p *probe) sources() []string {
	var ops []string
	if p.lo.set {
		ops = append(ops, p.lo.op)
	}
	if p.hi.set && (!p.lo.set || p.hi.at != p.lo.at) {
		ops = append(ops, p.hi.op)
	}
	return ops
}

// rank sums the method-table rank of the conjuncts supplying the bounds.
func (p *probe) rank() int {
	r := 0
	for _, op := range p.sources() {
		r += methodTable[op].rank
	}
	return r
}

// access renders the probe as an access path; FromPred is "=", ">=",
// ">= <" and so on.
func (p *probe) access() *AccessPath {
	return &AccessPath{Index: p.ix, Bounds: p.bounds, FromPred: strings.Join(p.sources(), " ")}
}

// selectAccessPath upgrades a heap scan to an index probe. For every
// index on the node's extent, the node's own conjuncts on the index path
// are merged into one probe with the tightest lower and upper bound;
// the highest-ranked probe wins, the earliest in filter order on a tie.
// Every conjunct remains in the filter: re-checking fetched objects
// keeps the probe an over-approximation, which is always safe.
func selectAccessPath(cat *catalog.Catalog, n *Node) {
	if n.Var.Kind != sema.VarExtent {
		return
	}
	indexes := cat.IndexesOn(n.Var.Extent)
	if len(indexes) == 0 {
		return
	}
	var probes []*probe // in order of first bound
	for at, cj := range n.Filter {
		attrs, op, key, ok := indexBound(cj, n.Var)
		if !ok {
			continue
		}
		enc, known := constKey(key)
		for _, ix := range indexes {
			if !samePath(ix.Path, attrs) {
				continue
			}
			var p *probe
			for _, q := range probes {
				if q.ix == ix {
					p = q
				}
			}
			if p == nil {
				p = &probe{ix: ix}
				probes = append(probes, p)
			}
			p.tighten(op, at, enc, known)
			p.bounds = append(p.bounds, KeyBound{Op: op, Key: key})
		}
	}
	var best *probe
	for _, p := range probes {
		if best == nil || p.rank() > best.rank() {
			best = p
		}
	}
	if best != nil {
		n.Access = best.access()
	}
}

// indexBound decomposes a conjunct "path op key" (or the mirrored
// "key op path") whose operator is in the method table into the
// attribute path it constrains, the operator as seen from the path side
// and the key expression.
func indexBound(cj sema.Expr, v *sema.Var) (attrs []string, op string, key sema.Expr, ok bool) {
	b, isBin := cj.(*sema.Binary)
	if !isBin || b.Class != sema.OpCompare {
		return nil, "", nil, false
	}
	pathSide, op, key := b.L, b.Op, b.R
	if !keyOperand(key) {
		if !keyOperand(b.L) {
			return nil, "", nil, false
		}
		pathSide, op, key = b.R, mirror(op), b.L
	}
	if _, inTable := methodTable[op]; !inTable {
		return nil, "", nil, false
	}
	if attrs, ok = indexablePath(pathSide, v); !ok {
		return nil, "", nil, false
	}
	return attrs, op, key, true
}

// keyOperand reports whether a comparison operand can key an index
// probe: a parameter, whose value the run supplies, or a constant with
// an index encoding.
func keyOperand(e sema.Expr) bool {
	if _, isParam := e.(*sema.ParamRef); isParam {
		return true
	}
	_, ok := constKey(e)
	return ok
}

func mirror(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// constKey encodes a constant comparison operand as an index key. ADT
// member functions are side-effect free by the paper's convention, so a
// call whose arguments are all literals ("date(\"04/01/1987\")") folds
// to a constant at plan time.
func constKey(e sema.Expr) ([]byte, bool) {
	v, ok := constValue(e, nil)
	if !ok || value.IsNull(v) {
		return nil, false
	}
	return codec.EncodeKey(v)
}

// constValue evaluates a closed expression: a literal, an ADT call over
// closed arguments, or a parameter whose value args holds by slot (nil
// args: parameters are not known).
func constValue(e sema.Expr, args []value.Value) (value.Value, bool) {
	switch x := e.(type) {
	case *sema.Const:
		return x.Val, true
	case *sema.ParamRef:
		if x.Slot < len(args) {
			return args[x.Slot], true
		}
	case *sema.ADTCall:
		vals := make([]value.Value, len(x.Args))
		for i, a := range x.Args {
			v, ok := constValue(a, args)
			if !ok {
				return nil, false
			}
			vals[i] = v
		}
		v, err := x.Fn.Impl(vals)
		if err != nil {
			return nil, false
		}
		return v, true
	}
	return nil, false
}

// indexablePath matches a pure own-attribute path rooted at the node's
// variable.
func indexablePath(e sema.Expr, v *sema.Var) ([]string, bool) {
	p, ok := e.(*sema.PathExpr)
	if !ok {
		return nil, false
	}
	vr, ok := p.Base.(*sema.VarRef)
	if !ok || vr.Var != v {
		return nil, false
	}
	var attrs []string
	tt := v.TupleElem()
	for _, s := range p.Steps {
		if s.Attr == "" || tt == nil {
			return nil, false
		}
		a, ok := tt.Attr(s.Attr)
		if !ok || a.Comp.Mode != types.Own {
			return nil, false
		}
		attrs = append(attrs, s.Attr)
		tt, _ = a.Comp.Type.(*types.TupleType)
	}
	return attrs, len(attrs) > 0
}

func samePath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
