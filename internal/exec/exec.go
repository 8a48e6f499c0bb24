// Package exec evaluates optimized EXCESS plans against the object
// store: a nested-iteration pipeline over the plan's variable-binding
// nodes (heap scans, B+-tree probes, nested-set unnests with implicit
// dereferencing), expression evaluation with null propagation, EXCESS
// function invocation with early/late binding, grouped aggregation with
// by/over partitioning, universal quantification, and the QUEL update
// statements with own / ref / own ref semantics.
package exec

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/excess/sema"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/trace"
	"repro/internal/value"
)

// Executor is the immutable engine core shared by every session: the
// object store, the working catalog and the memoized bound-function
// cache (under its own lock). One Executor serves a database and is
// safe for concurrent statements — all per-statement mutable state
// (parameter frames, call depth, the pinned snapshot and its catalog,
// runtime counts) lives in a State, one per executing statement
// (NewState). Any number of read statements may run simultaneously,
// each through its own State, against snapshots writers never touch.
type Executor struct {
	store *object.Store
	cat   *catalog.Catalog // the working catalog: write statements only

	// fnCache memoizes bound function bodies: bodies are stored as AST
	// (stored-command style) and bind, plan and compile on first call
	// rather than on every call (see bindBody). Guarded by fnMu — the
	// only engine-core lock; bound bodies themselves are immutable after
	// insertion and are shared freely between statements.
	fnMu    sync.Mutex // extra:lock fnMu
	fnCache map[*catalog.Function]*boundBody

	// statePool recycles per-statement States (NewState / State.Release)
	// so a statement does not allocate one.
	statePool sync.Pool

	// Optional metrics handles (nil when no registry is attached).
	cStatsMiss                  *metrics.Counter
	cHashBuilds, cHashBuildRows *metrics.Counter
	cHashProbes, cHashHits      *metrics.Counter
	cHashMemoHits               *metrics.Counter // probes the reference memo answered
	cExprCompile                *metrics.Counter
}

// State is the mutable per-statement execution state: the view it reads,
// parameter frames, call depth and the count of object fetches. A State
// is not safe for concurrent use, but any number of States may run
// concurrently over one Executor — the engine core is reached through
// the embedded pointer.
type State struct {
	*Executor

	// snap is the immutable store snapshot the statement reads: the
	// published one (BindSnapshot), or the view a write statement froze
	// (BindLive). write marks the latter; viewErr is its freeze's error,
	// which Run reports.
	snap    *object.Snapshot
	write   bool
	viewErr error
	// cat is the catalog the statement checks, plans and calls functions
	// against: the snapshot's frozen one, or the working one on the
	// write path. It shadows Executor.cat in State methods.
	cat *catalog.Catalog

	params [][]value.Value // parameter frames by slot, innermost last
	depth  int

	// derefs counts objects fetched by OID (derefGet): index probes,
	// reference steps and ref-set members. EXPLAIN ANALYZE reports it.
	derefs int64

	memo    *refMemo // the reference memo, kept with the pooled state
	memoGen uint64   // the last memo generation drawn

	// blocks holds the cell blocks of the results being built on this
	// state, the innermost retrieve's last, and out writes the innermost
	// one's rows (rowWriter).
	blocks [][]value.Value
	out    rowWriter

	// tr is the sampled statement's span builder, nil for the unsampled
	// (vast) majority — all span calls through it are nil-receiver
	// no-ops. See SetTrace.
	tr *trace.Active
}

// New returns an executor over the store and catalog.
func New(store *object.Store, cat *catalog.Catalog) *Executor {
	return &Executor{
		store:   store,
		cat:     cat,
		fnCache: make(map[*catalog.Function]*boundBody),
	}
}

// NewState returns a per-statement execution state over the engine
// core, reusing a pooled one when available. It reads nothing until
// BindSnapshot or BindLive binds it to a snapshot.
func (ex *Executor) NewState() *State {
	if v := ex.statePool.Get(); v != nil {
		s := v.(*State)
		s.cat = ex.cat
		return s
	}
	return &State{Executor: ex, cat: ex.cat}
}

// Release resets the statement-scoped fields and returns the state to
// the engine pool. The caller must not use the state after releasing it.
func (ex *State) Release() {
	ex.params = ex.params[:0]
	ex.depth = 0
	ex.tr = nil
	ex.snap, ex.write, ex.viewErr = nil, false, nil
	ex.cat = nil
	if ex.memo != nil && ex.memoGen != 0 { // drop the tables and groups the entries hold
		clear(ex.memo[:])
	}
	ex.derefs, ex.memoGen = 0, 0
	clear(ex.blocks)
	ex.blocks = ex.blocks[:0]
	ex.out = rowWriter{}
	ex.Executor.statePool.Put(ex)
}

// SetMetrics attaches the engine metrics registry; the executor then
// counts hash-join traffic (join.hash.*) and cardinality-estimate misses
// (stats.misses). Handles are resolved once here; a run adds its hash
// tables' counts once, when it ends.
func (ex *Executor) SetMetrics(reg *metrics.Registry) {
	ex.cStatsMiss = reg.Counter("stats.misses")
	ex.cHashBuilds = reg.Counter("join.hash.builds")
	ex.cHashBuildRows = reg.Counter("join.hash.buildrows")
	ex.cHashProbes = reg.Counter("join.hash.probes")
	ex.cHashHits = reg.Counter("join.hash.hits")
	ex.cHashMemoHits = reg.Counter("join.hash.memo_hits")
	ex.cExprCompile = reg.Counter("expr.compile.count")
}

// prov is the location of a nested collection element, for update
// statements: the object or database variable that owns the collection,
// the path from the owner to it, and the element's position there.
type prov struct {
	parentOID oid.OID
	parentVar string
	steps     []sema.Step
	elemIdx   int
}

// slot is what a binding holds for one variable beside its value: an
// object binding's identity and tuple (its value stays nil, so the
// value.Object is boxed only where the variable is read whole), an
// element-extent binding's position, and, in a write statement only, a
// nested element's location.
type slot struct {
	oid oid.OID
	tup *value.Tuple
	pos int
	loc *prov
}

// binding holds the current value and slot of each range variable,
// indexed by the variable's checker-assigned slot (sema.Var.Slot). A
// variable read is one bounds check and an index, a clone is three
// memcpys, and compiled expressions (compile.go) bake the slot index
// into their closures.
type binding struct {
	vals  []value.Value
	slots []slot
	used  []bool
}

// bindingPool recycles bindings and their slot slices. The executor
// allocates a binding per retained row in grouped retrieves and set
// statements and one per hash-join build, so reuse keeps those paths
// off the allocator.
var bindingPool = sync.Pool{New: func() any { return new(binding) }}

func newBinding() *binding {
	return bindingPool.Get().(*binding)
}

// release drops the binding's element references (so a pooled binding
// never pins store objects) and returns it to the pool, keeping the
// slice capacity. The caller must not touch the binding afterwards;
// clones are unaffected (they own their slices, and location step
// slices are never mutated in place).
func (b *binding) release() {
	clear(b.vals)
	clear(b.slots)
	clear(b.used)
	b.vals = b.vals[:0]
	b.slots = b.slots[:0]
	b.used = b.used[:0]
	bindingPool.Put(b)
}

// grow extends the slot slices to cover slot i.
func (b *binding) grow(i int) {
	for len(b.vals) <= i {
		b.vals = append(b.vals, nil)
		b.slots = append(b.slots, slot{})
		b.used = append(b.used, false)
	}
}

// bind sets a variable's value and slot.
func (b *binding) bind(v *sema.Var, val value.Value, s slot) {
	b.grow(v.Slot)
	b.vals[v.Slot] = val
	b.slots[v.Slot] = s
	b.used[v.Slot] = true
}

// unbind marks a variable's slot unbound. Every read checks the mark,
// and the next bind overwrites what the slot still holds; release
// clears it.
func (b *binding) unbind(v *sema.Var) {
	if v.Slot < len(b.used) {
		b.used[v.Slot] = false
	}
}

// val returns the value bound in slot i, boxing an object binding.
func (b *binding) val(i int) value.Value {
	if s := &b.slots[i]; s.tup != nil {
		return value.Object{OID: s.oid, Tuple: s.tup}
	}
	return b.vals[i]
}

// getSlot returns a bound variable's slot (the zero slot when unbound).
func (b *binding) getSlot(v *sema.Var) slot {
	if v.Slot < len(b.used) && b.used[v.Slot] {
		return b.slots[v.Slot]
	}
	return slot{}
}

// location returns a bound variable's nested location; the zero location
// when it has none (an extent member, or a read statement's binding).
func (s slot) location() prov {
	if s.loc != nil {
		return *s.loc
	}
	return prov{}
}

func (b *binding) clone() *binding {
	n := bindingPool.Get().(*binding)
	n.vals = append(n.vals[:0], b.vals...)
	n.slots = append(n.slots[:0], b.slots...)
	n.used = append(n.used[:0], b.used...)
	return n
}

// evalCtx carries the evaluation environment: the current binding and,
// inside grouped-aggregate output, the computed aggregate values. A run
// shares one evalCtx among all its closures.
type evalCtx struct {
	b       *binding
	aggVals map[*sema.Agg]value.Value
}

// pass reports whether every conjunct holds; null predicates reject,
// QUEL-style.
func (ex *State) pass(ctx *evalCtx, conjs []compiledExpr) (bool, error) {
	for _, cj := range conjs {
		v, err := cj(ex, ctx)
		if err != nil {
			return false, err
		}
		if t, ok := value.AsBool(v); !ok || !t {
			return false, nil
		}
	}
	return true, nil
}

// sink receives the bindings enumerate produces for one variable. The
// store-callback adapters around emit are built on first use and kept,
// so a variable enumerated once per outer binding (an inner extent
// rescan) builds them once per run, not once per row.
//
// A plan node's sink carries its program's tuple tests and their
// operands as the run resolved them: the object-extent scan callback
// and the nested walk run them on each row's tuple before emitting it,
// count the rows they reject in *rejects (the node's count), and pass
// emit how many leading filter conjuncts they decided (tested), which
// the node's filter then skips. Every other source, and every other
// sink, emits with tested 0. The callbacks capture the fields, not the
// sink, so a sink on the stack stays there.
type sink struct {
	emit    func(val value.Value, s slot, tested int) error
	obj     func(oid.OID, *value.Tuple) error
	elem    func(int, value.Value) error
	tests   []tupleTest
	ops     []operand
	rejects *int64
}

// runner is one execution of a program over its plan: the evaluation
// context all the run's closures share, and per node its sink, its hash
// table and the instrumentation state of its current loop. Nodes run
// strictly nested — node i+1 runs inside an emit of node i and never
// re-enters node i — so per-node state needs no stack.
type runner struct {
	ex    *State
	plan  *algebra.Plan
	prog  *Program
	ctx   evalCtx
	nodes []nodeRun
	univ  []sink // universal variables, when the plan has forall conjuncts
	holds bool   // the universal check of the binding under test
	yield func(*evalCtx) error
}

type nodeRun struct {
	sink
	// keys is the node's index-probe range for this run, evaluated when
	// the run starts; nil when the node scans.
	keys  *algebra.KeyRange
	rng   algebra.KeyRange
	table *joinTable // hash-join build side, built on the first probe
	gen   uint64     // the node's memo generation, when its probe key has a memo form
	// rejected counts the rows the node's tuple tests rejected.
	rejected int64
	// opBuf holds the operands of the node's first tuple tests, resolved
	// when the run starts (sink.ops), so a node with no more than four
	// allocates none for them.
	opBuf [4]operand
	// Instrumented runs: time spent in later nodes during the current
	// loop.
	child time.Duration
}

// Run enumerates the bindings of a plan through its program, applying
// node filters, the residual filter and universal quantification, and
// yields the context of each surviving binding. When the plan carries a
// Runtime accumulator (EXPLAIN ANALYZE), per-operator actuals are
// recorded as a side effect.
func (ex *State) Run(p *algebra.Plan, prog *Program, yield func(*evalCtx) error) error {
	if ex.viewErr != nil {
		return ex.viewErr
	}
	b := newBinding()
	defer b.release()
	r := &runner{ex: ex, plan: p, prog: prog, ctx: evalCtx{b: b}, yield: yield,
		nodes: make([]nodeRun, len(p.Nodes))}
	for i := range r.nodes {
		r.nodes[i].emit = r.nodeEmit(i)
		r.nodes[i].tests, r.nodes[i].rejects = prog.nodes[i].tests, &r.nodes[i].rejected
		r.resolveOperands(i)
		if prog.nodes[i].hop != nil {
			ex.memoGen++
			r.nodes[i].gen = ex.memoGen
		}
		if err := r.probeRange(i); err != nil {
			return err
		}
	}
	if len(p.Universal) > 0 && len(prog.forAll) > 0 {
		r.univ = make([]sink, len(p.Universal))
		for j := range r.univ {
			r.univ[j].emit = r.universalEmit(j)
		}
	}
	rt := p.Runtime
	derefs := ex.derefs
	err := r.runNode(0)
	if rt != nil {
		rt.DerefMisses += ex.derefs - derefs
	}
	// Hash tables count their own traffic, and sinks the rows their tuple
	// tests rejected; the run folds them into the registry and the plan's
	// actuals once.
	for i := range r.nodes {
		if rt != nil {
			rt.Nodes[i].RowsIn += r.nodes[i].rejected
		}
		t := r.nodes[i].table
		if t != nil && ex.cHashBuilds != nil {
			ex.cHashBuilds.Inc()
			ex.cHashBuildRows.Add(uint64(t.buildRows))
			ex.cHashProbes.Add(uint64(t.probes))
			ex.cHashHits.Add(uint64(t.hits))
			ex.cHashMemoHits.Add(uint64(t.memoHits))
		}
		if t != nil && rt != nil {
			nr := &rt.Nodes[i]
			nr.HashBuildRows += t.buildRows
			nr.HashProbes += t.probes
			nr.HashHits += t.hits
			nr.HashMemoHits += t.memoHits
		}
	}
	return err
}

// resolveOperands resolves node i's tuple-test operands for the run:
// like its probe keys, a $n operand is read once here, not per row.
func (r *runner) resolveOperands(i int) {
	nr := &r.nodes[i]
	if len(nr.tests) == 0 {
		return
	}
	nr.ops = nr.opBuf[:0]
	for k := range nr.tests {
		nr.ops = append(nr.ops, r.ex.operandOf(&nr.tests[k]))
	}
}

// probeRange sets node i's index-probe range for the run. Its keys are
// closed expressions — literals, folded when the plan was compiled, or
// parameters — so each is evaluated once, here, not per outer binding.
// A key without an index encoding leaves the node scanning.
func (r *runner) probeRange(i int) error {
	a, np, nr := r.plan.Nodes[i].Access, &r.prog.nodes[i], &r.nodes[i]
	switch {
	case a == nil:
		return nil
	case np.fixed != nil:
		nr.keys = np.fixed
		return nil
	}
	keys := make([]value.Value, len(np.keys))
	for k, key := range np.keys {
		v, err := key(r.ex, &r.ctx)
		if err != nil {
			return err
		}
		keys[k] = v
	}
	if rng, ok := a.Range(keys); ok {
		nr.rng = rng
		nr.keys = &nr.rng
	}
	return nil
}

// runNode binds plan node i for every element of its source, recursing
// to the next node; past the last node the binding is complete. An
// instrumented run also counts loops and self time (child time
// subtracted).
func (r *runner) runNode(i int) error {
	if i == len(r.nodes) {
		return r.output()
	}
	if r.plan.Runtime == nil {
		return r.enumerate(i)
	}
	rt, nr := &r.plan.Runtime.Nodes[i], &r.nodes[i]
	rt.Loops++
	nr.child = 0
	start := time.Now()
	err := r.enumerate(i)
	rt.Time += time.Since(start) - nr.child
	return err
}

func (r *runner) enumerate(i int) error {
	n := &r.plan.Nodes[i]
	if n.Hash != nil {
		return r.hashProbe(i)
	}
	return r.ex.enumerate(&r.ctx, n.Var, n.Access, r.nodes[i].keys, &r.prog.nodes[i].varProgram, &r.nodes[i].sink)
}

// nodeEmit builds node i's emit: bind the variable, apply the node's
// filter past the conjuncts its tuple tests decided, run the next node,
// unbind.
func (r *runner) nodeEmit(i int) func(value.Value, slot, int) error {
	ex, ctx, v := r.ex, &r.ctx, r.plan.Nodes[i].Var
	filter := r.prog.nodes[i].filter
	if r.plan.Runtime == nil {
		return func(val value.Value, s slot, tested int) error {
			ctx.b.bind(v, val, s)
			ok, err := ex.pass(ctx, filter[tested:])
			if err == nil && ok {
				err = r.runNode(i + 1)
			}
			ctx.b.unbind(v)
			return err
		}
	}
	rt, nr := &r.plan.Runtime.Nodes[i], &r.nodes[i]
	return func(val value.Value, s slot, tested int) error {
		rt.RowsIn++
		ctx.b.bind(v, val, s)
		ok, err := ex.pass(ctx, filter[tested:])
		if err == nil && ok {
			rt.RowsOut++
			t0 := time.Now()
			err = r.runNode(i + 1)
			nr.child += time.Since(t0)
		}
		ctx.b.unbind(v)
		return err
	}
}

// output applies the residual filter and universal quantification to a
// complete binding and yields it if it survives.
func (r *runner) output() error {
	rt := r.plan.Runtime
	if rt != nil {
		rt.FinalIn++
	}
	ok, err := r.ex.pass(&r.ctx, r.prog.final)
	if err != nil || !ok {
		return err
	}
	if rt != nil {
		rt.FinalOut++
		rt.ForAllChecked++
	}
	if r.univ != nil {
		r.holds = true
		if err := r.forAll(0); err != nil || !r.holds {
			return err
		}
	}
	if rt != nil {
		rt.ForAllPassed++
		rt.Output++
	}
	return r.yield(&r.ctx)
}

// forAll checks the universally quantified part of the predicate from
// universal variable j on: for every combination of bindings of the
// universal variables, all forall conjuncts must hold. The first
// combination they reject clears holds and ends the check.
func (r *runner) forAll(j int) error {
	if !r.holds {
		return nil
	}
	if j == len(r.univ) {
		ok, err := r.ex.pass(&r.ctx, r.prog.forAll)
		r.holds = ok
		return err
	}
	return r.ex.enumerate(&r.ctx, r.plan.Universal[j], nil, nil, &r.prog.universal[j], &r.univ[j])
}

func (r *runner) universalEmit(j int) func(value.Value, slot, int) error {
	b, v := r.ctx.b, r.plan.Universal[j]
	return func(val value.Value, s slot, _ int) error {
		b.bind(v, val, s)
		err := r.forAll(j + 1)
		b.unbind(v)
		return err
	}
}

// enumerate produces the bindings of one variable into s: an index
// probe, a heap scan or an element-extent scan for an extent variable,
// a walk to the collection for a path-ranging one. ix and keys are the
// variable's index probe and its range for the run; keys is nil for a
// scan.
func (ex *State) enumerate(ctx *evalCtx, v *sema.Var, ix *algebra.AccessPath, keys *algebra.KeyRange, vp *varProgram, s *sink) error {
	switch v.Kind {
	case sema.VarExtent:
		r := ex.reader()
		if r.IsObjectExtent(v.Extent) {
			if keys != nil {
				if keys.Empty {
					return nil
				}
				ids := r.IndexLookup(ix.Index, keys.Lo, keys.Hi, keys.IncLo, keys.IncHi)
				for _, id := range ids {
					tv, ok, err := ex.derefGet(id)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
					if err := s.emit(nil, slot{oid: id, tup: tv}, 0); err != nil {
						return err
					}
				}
				return nil
			}
			if s.obj == nil {
				emit := s.emit
				if len(s.tests) == 0 {
					s.obj = func(id oid.OID, tv *value.Tuple) error {
						return emit(nil, slot{oid: id, tup: tv}, 0)
					}
				} else {
					tests, ops, rejects := s.tests, s.ops, s.rejects
					s.obj = func(id oid.OID, tv *value.Tuple) error {
						tested, ok := ex.runTests(tests, ops, rejects, tv)
						if !ok {
							return nil
						}
						return emit(nil, slot{oid: id, tup: tv}, tested)
					}
				}
			}
			return r.ScanExtent(v.Extent, s.obj)
		}
		if r.IsElemExtent(v.Extent) {
			if s.elem == nil {
				emit := s.emit
				s.elem = func(pos int, ev value.Value) error {
					if r, isRef := ev.(value.Ref); isRef {
						tv, ok, err := ex.derefGet(r.OID)
						if err != nil {
							return err
						}
						if !ok {
							return nil // dangling membership reads as absent
						}
						return emit(nil, slot{oid: r.OID, tup: tv, pos: pos}, 0)
					}
					return emit(ev, slot{pos: pos}, 0)
				}
			}
			return r.ScanElems(v.Extent, s.elem)
		}
		return fmt.Errorf("no extent %s", v.Extent)
	case sema.VarNested, sema.VarDBPath, sema.VarExprPath:
		start, owner, err := ex.nestStart(ctx, v, vp)
		if err != nil {
			return err
		}
		return ex.walkCollection(ctx, start, owner, vp.steps, s)
	}
	return fmt.Errorf("unhandled variable kind for %s", v.Name)
}

// collOwner tracks the owner of the collection a nested variable ranges
// over: the nearest enclosing object (or database variable) along the
// path, plus the steps from that owner to the collection.
type collOwner struct {
	oid   oid.OID
	dbvar string
	steps []sema.Step
}

// nestStart resolves the starting value and initial owner for a nested
// variable.
func (ex *State) nestStart(ctx *evalCtx, v *sema.Var, vp *varProgram) (value.Value, collOwner, error) {
	switch v.Kind {
	case sema.VarNested:
		// An object parent starts the walk at its tuple, unboxed; a parent
		// without a location (a read statement's) has no owner.
		b, i := ctx.b, v.Parent.Slot
		if i >= len(b.used) || !b.used[i] {
			return nil, collOwner{}, fmt.Errorf("parent of %s not bound", v.Name)
		}
		ps := &b.slots[i]
		if ps.tup != nil {
			return ps.tup, collOwner{oid: ps.oid}, nil
		}
		pv := b.vals[i]
		if o, isObj := pv.(value.Object); isObj {
			return pv, collOwner{oid: o.OID}, nil
		}
		if ps.loc == nil {
			return pv, collOwner{}, nil
		}
		return pv, collOwner{oid: ps.loc.parentOID, dbvar: ps.loc.parentVar}, nil
	case sema.VarExprPath:
		val, err := vp.base(ex, ctx)
		if err != nil {
			return nil, collOwner{}, err
		}
		own := collOwner{}
		if id, ok := value.OIDOf(val); ok {
			own.oid = id
		}
		return val, own, nil
	default: // VarDBPath
		val, err := ex.reader().GetVar(v.Extent)
		if err != nil {
			return nil, collOwner{}, err
		}
		return val, collOwner{dbvar: v.Extent}, nil
	}
}

// walkCollection walks the steps from cur to the target collection,
// dereferencing references (updating the owner as it crosses object
// boundaries), then emits each element into s, after s's tuple tests
// pass the element's tuple. A collection in the middle of
// the path fans out over its elements when the next step is an
// attribute step; an index step applies to the collection itself. Only
// a write statement records the owner's steps and gives each element its
// location: update statements are all they are for.
func (ex *State) walkCollection(ctx *evalCtx, cur value.Value, owner collOwner, steps []stepProg, s *sink) error {
	track := ex.write
	for si := range steps {
		var err error
		cur, owner, err = ex.stepOnce(ctx, cur, owner, &steps[si], track)
		if err != nil {
			return err
		}
		if value.IsNull(cur) {
			return nil
		}
		if si == len(steps)-1 || steps[si+1].attr == "" {
			continue
		}
		coll, ok := elemsOf(cur)
		if !ok {
			continue
		}
		for _, e := range coll {
			eo, ev := owner, e
			if r, isRef := e.(value.Ref); isRef {
				tv, live, err := ex.derefGet(r.OID)
				if err != nil {
					return err
				}
				if !live {
					continue
				}
				ev, eo = tv, collOwner{oid: r.OID}
			}
			if err := ex.walkCollection(ctx, ev, eo, steps[si+1:], s); err != nil {
				return err
			}
		}
		return nil
	}
	coll, ok := elemsOf(cur)
	if !ok {
		return fmt.Errorf("path does not end in a collection (got %T)", cur)
	}
	for idx, e := range coll {
		var es slot
		ev := e
		if r, isRef := e.(value.Ref); isRef {
			tv, live, err := ex.derefGet(r.OID)
			if err != nil {
				return err
			}
			if !live {
				continue
			}
			es.oid, es.tup, ev = r.OID, tv, nil
		}
		tested := 0
		if len(s.tests) > 0 {
			tv := es.tup
			if tv == nil {
				tv, _ = ev.(*value.Tuple)
			}
			if tv != nil {
				var ok bool
				if tested, ok = ex.runTests(s.tests, s.ops, s.rejects, tv); !ok {
					continue
				}
			}
		}
		if track {
			es.loc = &prov{parentOID: owner.oid, parentVar: owner.dbvar, steps: owner.steps, elemIdx: idx}
		}
		if err := s.emit(ev, es, tested); err != nil {
			return err
		}
	}
	return nil
}

// stepOnce applies one path step to a value, dereferencing a reference
// first if needed and tracking the collection owner; ctx binds the
// variables an index expression reads. A dereference hands the step the
// fetched tuple itself, so no value.Object is boxed for it. track guards
// the owner-steps location bookkeeping: only update paths consume it,
// and the per-step slice copy is the dominant allocation of a path walk
// when left on.
func (ex *State) stepOnce(ctx *evalCtx, cur value.Value, owner collOwner, st *stepProg, track bool) (value.Value, collOwner, error) {
	if value.IsNull(cur) {
		return value.Null{}, owner, nil
	}
	if r, isRef := cur.(value.Ref); isRef {
		tv, live, err := ex.derefGet(r.OID)
		if err != nil {
			return nil, owner, err
		}
		if !live {
			return value.Null{}, owner, nil
		}
		cur = tv
		owner = collOwner{oid: r.OID}
	}
	if st.attr != "" {
		tv, ok := value.AsTuple(cur)
		if !ok {
			return nil, owner, fmt.Errorf("attribute %s of non-tuple value %s", st.attr, cur)
		}
		if track {
			owner.steps = append(append([]sema.Step(nil), owner.steps...), sema.Step{Attr: st.attr})
		}
		cur = st.field(tv)
	}
	if st.index != nil {
		iv, err := st.index(ex, ctx)
		if err != nil {
			return nil, owner, err
		}
		i, ok := value.AsInt(iv)
		if !ok {
			return nil, owner, fmt.Errorf("array index must be an integer")
		}
		arr, isArr := cur.(*value.Array)
		if !isArr {
			return nil, owner, fmt.Errorf("indexing a non-array value")
		}
		if i < 1 || int(i) > len(arr.Elems) {
			return value.Null{}, owner, nil
		}
		if track {
			owner.steps = append(append([]sema.Step(nil), owner.steps...), sema.Step{Index: &sema.Const{Val: value.NewInt(i), T: nil}})
		}
		cur = arr.Elems[i-1]
	}
	return cur, owner, nil
}

// elemsOf extracts the elements of a collection value.
func elemsOf(v value.Value) ([]value.Value, bool) {
	switch x := v.(type) {
	case *value.Set:
		return x.Elems, true
	case *value.Array:
		return x.Elems, true
	}
	return nil, false
}
