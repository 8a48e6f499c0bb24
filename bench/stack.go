package main

import (
	"fmt"
	"runtime"
	"strconv"

	extra "repro"
	"repro/internal/adt"
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/codec"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/exec"
	"repro/internal/object"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Stage span names, in the order a statement passes through them.
const (
	spParse       = "parse"
	spPrint       = "parse.print"
	spCheck       = "sema.check"
	spPlan        = "algebra.plan"
	spCompile     = "exec.compile"
	spRun         = "exec.run"
	spUpdate      = "exec.update"
	spCommit      = "object.commit"
	spRecordBuild = "wal.record_build"
	spAppend      = "wal.append"
	spWaitDurable = "wal.wait_durable"
	spSession     = "session.exec"
)

// stages lists the layer stages (everything but the session span).
var stages = []string{spParse, spPrint, spCheck, spPlan, spCompile, spRun, spUpdate, spCommit, spRecordBuild, spAppend, spWaitDurable}

// planned is a checked retrieve with its plan.
type planned struct {
	cq   *sema.CheckedRetrieve
	plan *algebra.Plan
}

// preparedKind is a statement kind prepared with $n slots: parsed once,
// parameter types inferred once, and (for retrieves) planned once — the
// work the engine's Stmt does outside the per-execution path.
type preparedKind struct {
	node   ast.Statement
	ptypes map[string]types.Type
	pinned *planned
}

// stack is the engine's layers assembled by the harness from their
// public constructors, so that each stage of a statement can be timed
// from outside, around the same calls the session layer makes.
type stack struct {
	schema *extra.DB // owns the catalog and the ADT registry
	cat    *catalog.Catalog
	reg    *adt.Registry
	store  *object.Store
	ex     *exec.Executor
	log    *wal.Log // nil for workloads without a WAL
	sess   *sema.Session
	tr     *tracer

	// plans mirrors the engine's plan cache: printed text → plan, 256
	// entries, oldest inserted evicted first.
	plans   map[string]*planned
	fifo    []string
	kinds   [numOpKinds]*preparedKind
	prepSet []*planned
}

const planCacheCap = 256 // the engine's defaultPlanCacheCap

// newStore assembles catalog, buffer pool and object store, restores the
// generated objects into the store, builds the two indexes and publishes
// the first snapshot.
func newStore(objs []exportObject, poolPages int) (*extra.DB, *object.Store, error) {
	schema, err := extra.Open()
	if err != nil {
		return nil, nil, err
	}
	if _, err := schema.Exec(workload.Schema); err != nil {
		schema.Close()
		return nil, nil, err
	}
	cat := schema.Catalog()
	if poolPages == 0 {
		poolPages = 256
	}
	store := object.New(storage.NewBufferPool(storage.NewMemStore(), poolPages), cat)
	fail := func(err error) (*extra.DB, *object.Store, error) {
		schema.Close()
		return nil, nil, err
	}
	for _, name := range cat.VarNames() {
		v, _ := cat.Var(name)
		if err := store.InitVar(v); err != nil {
			return fail(err)
		}
	}
	for _, o := range objs {
		if err := store.RestoreObject(o); err != nil {
			return fail(err)
		}
	}
	if _, err := store.BuildIndex("EmpSal", "Employees", []string{"salary"}, false); err != nil {
		return fail(err)
	}
	if _, err := store.BuildIndex("EmpName", "Employees", []string{"name"}, false); err != nil {
		return fail(err)
	}
	if _, err := store.Commit(); err != nil {
		return fail(err)
	}
	return schema, store, nil
}

func newStack(objs []exportObject, spec *workloadSpec, walDir string, g *generator, tr *tracer) (*stack, error) {
	schema, store, err := newStore(objs, spec.pool)
	if err != nil {
		return nil, err
	}
	k := &stack{
		schema: schema, cat: schema.Catalog(), reg: schema.Registry(),
		store: store, sess: sema.NewSession(), tr: tr,
		plans: map[string]*planned{},
	}
	k.ex = exec.New(store, k.cat)
	if spec.wal {
		k.log, _, err = wal.Open(walDir, wal.Options{Sync: wal.SyncGroup})
		if err != nil {
			k.close()
			return nil, err
		}
	}
	for kind := opKind(0); kind < numOpKinds; kind++ {
		if !kind.params() {
			continue
		}
		if k.kinds[kind], err = k.prepare(opSrc[kind]); err != nil {
			k.close()
			return nil, fmt.Errorf("stack: prepare %s: %w", opNames[kind], err)
		}
	}
	for i := range g.prepSet {
		pk, err := k.prepare(g.prepSet[i].text)
		if err != nil {
			k.close()
			return nil, fmt.Errorf("stack: prepare %s: %w", g.prepSet[i].text, err)
		}
		k.prepSet = append(k.prepSet, pk.pinned)
	}
	return k, nil
}

func (k *stack) close() {
	if k.log != nil {
		k.log.Close()
	}
	k.schema.Close()
}

// prepare does what Session.Prepare plus a Stmt's first execution do.
func (k *stack) prepare(src string) (*preparedKind, error) {
	node, err := parse.One(src, k.reg)
	if err != nil {
		return nil, err
	}
	pk := &preparedKind{node: node}
	probe := sema.NewChecker(k.cat, k.sess, nil)
	switch n := node.(type) {
	case *ast.Retrieve:
		_, err = probe.CheckRetrieve(n)
	case *ast.Append:
		_, err = probe.CheckAppend(n)
	default:
		err = fmt.Errorf("unexpected %T", node)
	}
	if err != nil {
		return nil, err
	}
	if pt := probe.Placeholders(); len(pt) > 0 {
		pk.ptypes = map[string]types.Type{}
		for i, t := range pt {
			if t == nil {
				t = types.Varchar
			}
			pk.ptypes["$"+strconv.Itoa(i+1)] = t
		}
	}
	if r, ok := node.(*ast.Retrieve); ok {
		cq, err := sema.NewChecker(k.cat, k.sess, pk.ptypes).CheckRetrieve(r)
		if err != nil {
			return nil, err
		}
		es := k.ex.NewState()
		es.BindSnapshot(k.store.Snapshot())
		pk.pinned = &planned{cq, es.Plan(cq.Query)}
		es.Release()
	}
	return pk, nil
}

// bind builds the $n parameter frame from a statement's arguments.
func bind(args []any) map[string]value.Value {
	if len(args) == 0 {
		return nil
	}
	frame := make(map[string]value.Value, len(args))
	for i, a := range args {
		var v value.Value
		switch x := a.(type) {
		case int:
			v = value.NewInt(int64(x))
		case string:
			v = value.NewStr(x)
		}
		frame["$"+strconv.Itoa(i+1)] = v
	}
	return frame
}

// cachePut enters a plan into the harness's copy of the plan cache,
// evicting the oldest entries at capacity as the engine's does.
func (k *stack) cachePut(key string, pl *planned) {
	for len(k.plans) >= planCacheCap && len(k.fifo) > 0 {
		delete(k.plans, k.fifo[0])
		k.fifo = k.fifo[1:]
	}
	k.plans[key] = pl
	k.fifo = append(k.fifo, key)
}

// pinned returns the plan and parameter frame of a read of a prepared
// kind; nil for an ad-hoc read, which has to be parsed first.
func (k *stack) pinned(st *stmt) (*planned, map[string]value.Value) {
	switch {
	case st.kind.preparedSet():
		return k.prepSet[st.slot], nil
	case st.kind.params():
		return k.kinds[st.kind].pinned, bind(st.args)
	}
	return nil, nil
}

// read runs one read statement stage by stage, a span around each.
func (k *stack) read(id int, st *stmt) (*exec.Result, error) {
	tr := k.tr
	es := k.ex.NewState()
	defer es.Release()
	es.BindSnapshot(k.store.Snapshot())
	pl, frame := k.pinned(st)
	if pl == nil {
		tr.begin(spParse, id)
		node, err := parse.One(st.text, k.reg)
		tr.end()
		if err != nil {
			return nil, err
		}
		r, ok := node.(*ast.Retrieve)
		if !ok {
			return nil, fmt.Errorf("not a retrieve: %s", st.text)
		}
		tr.begin(spPrint, id)
		key := ast.Print(r)
		tr.end()
		if pl = k.plans[key]; pl == nil {
			tr.begin(spCheck, id)
			cq, err := sema.NewChecker(k.cat, k.sess, nil).CheckRetrieve(r)
			tr.end()
			if err != nil {
				return nil, err
			}
			tr.begin(spPlan, id)
			plan := es.Plan(cq.Query)
			tr.end()
			pl = &planned{cq, plan}
			k.cachePut(key, pl)
		}
	}
	tr.begin(spCompile, id)
	es.CompilePlan(pl.cq, pl.plan)
	tr.end()
	if frame != nil {
		es.PushParams(frame)
		defer es.PopParams()
	}
	tr.begin(spRun, id)
	res, err := es.RetrievePlan(pl.cq, pl.plan)
	tr.end()
	return res, err
}

// write runs one write statement stage by stage, in the engine's order:
// the WAL record is built and sized before anything mutates, the store
// commits (publishes a snapshot) before the record is appended, and
// durability is awaited last.
func (k *stack) write(id int, st *stmt) error {
	tr := k.tr
	var node ast.Statement
	var ptypes map[string]types.Type
	var frame map[string]value.Value
	if st.kind.params() {
		pk := k.kinds[st.kind]
		node, ptypes, frame = pk.node, pk.ptypes, bind(st.args)
	} else {
		tr.begin(spParse, id)
		var err error
		node, err = parse.One(st.text, k.reg)
		tr.end()
		if err != nil {
			return err
		}
	}
	var rec *wal.Record
	if k.log != nil {
		tr.begin(spRecordBuild, id)
		rec = &wal.Record{Kind: wal.RecordStmt, Session: 1, User: "dba", Src: ast.Print(node)}
		for i := range st.args {
			if frame == nil {
				break
			}
			enc, err := codec.Encode(nil, frame["$"+strconv.Itoa(i+1)])
			if err != nil {
				tr.end()
				return err
			}
			rec.Data = append(rec.Data, enc)
		}
		tooLarge := rec.PayloadSize() > wal.MaxRecord
		tr.end()
		if tooLarge {
			return wal.ErrTooLarge
		}
	}
	es := k.ex.NewState()
	es.BindLive()
	if frame != nil {
		es.PushParams(frame)
	}
	ck := sema.NewChecker(k.cat, k.sess, ptypes)
	var err error
	var update func() (int, error)
	tr.begin(spCheck, id)
	switch n := node.(type) {
	case *ast.Append:
		var ca *sema.CheckedAppend
		ca, err = ck.CheckAppend(n)
		update = func() (int, error) { return es.Append(ca) }
	case *ast.Replace:
		var cr *sema.CheckedReplace
		cr, err = ck.CheckReplace(n)
		update = func() (int, error) { return es.Replace(cr) }
	case *ast.Delete:
		var cd *sema.CheckedDelete
		cd, err = ck.CheckDelete(n)
		update = func() (int, error) { return es.Delete(cd) }
	default:
		err = fmt.Errorf("not a write: %T", node)
	}
	tr.end()
	if err == nil {
		tr.begin(spUpdate, id)
		_, err = update()
		tr.end()
	}
	if frame != nil {
		es.PopParams()
	}
	es.Release()
	if err != nil {
		return err
	}
	tr.begin(spCommit, id)
	_, err = k.store.Commit()
	tr.end()
	if err != nil || rec == nil {
		return err
	}
	tr.begin(spAppend, id)
	lsn, err := k.log.Append(rec)
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(spWaitDurable, id)
	err = k.log.WaitDurable(lsn)
	tr.end()
	return err
}

// readCounts are the exact counts of the counting pass over the traced
// read statements: allocations per stage and rows scanned per row
// returned. Nothing in that pass is timed.
type readCounts struct {
	stageAllocs  map[string]uint64
	stageRuns    map[string]int
	rowsScanned  int64
	rowsReturned int64
	derefHits    int64
	derefMisses  int64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// count runs one read statement with allocation counts taken between
// stages and an instrumented plan, always through every stage the
// statement's kind can reach (an ad-hoc statement is checked and planned
// here even when the plan cache would have served it), so each figure is
// "per statement that runs the stage".
func (k *stack) count(st *stmt, rc *readCounts) error {
	stage := func(name string, fn func() error) error {
		before := mallocs()
		err := fn()
		rc.stageAllocs[name] += mallocs() - before
		rc.stageRuns[name]++
		return err
	}
	es := k.ex.NewState()
	defer es.Release()
	es.BindSnapshot(k.store.Snapshot())
	pl, frame := k.pinned(st)
	if pl == nil {
		var r *ast.Retrieve
		if err := stage(spParse, func() error {
			node, err := parse.One(st.text, k.reg)
			if err == nil {
				r = node.(*ast.Retrieve)
			}
			return err
		}); err != nil {
			return err
		}
		_ = stage(spPrint, func() error { _ = ast.Print(r); return nil })
		pl = &planned{}
		if err := stage(spCheck, func() (err error) {
			pl.cq, err = sema.NewChecker(k.cat, k.sess, nil).CheckRetrieve(r)
			return err
		}); err != nil {
			return err
		}
		_ = stage(spPlan, func() error { pl.plan = es.Plan(pl.cq.Query); return nil })
	}
	_ = stage(spCompile, func() error { es.CompilePlan(pl.cq, pl.plan); return nil })
	if frame != nil {
		es.PushParams(frame)
		defer es.PopParams()
	}
	plan := pl.plan.Clone()
	rt := plan.EnableRuntime()
	var res *exec.Result
	if err := stage(spRun, func() (err error) {
		res, err = es.RetrievePlan(pl.cq, plan)
		return err
	}); err != nil {
		return err
	}
	for _, n := range rt.Nodes {
		rc.rowsScanned += n.RowsIn + n.HashBuildRows
	}
	rc.rowsReturned += int64(len(res.Rows))
	rc.derefHits += rt.DerefHits
	rc.derefMisses += rt.DerefMisses
	return nil
}
