package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	extra "repro"
)

// exactCounts are the per-layer metrics that are counts, not times: two
// runs of the same code on the same seed must agree on them exactly.
var exactCounts = []string{
	"wal.b_per_record", "codec.b_per_obj", "exec.rows_scanned_per_row_returned",
	"storage.pool_evictions", "storage.pool_writebacks",
}

// phaseCheck is one row of the harness-versus-engine comparison: the
// time the harness measured around a stage on its own stack, and the sum
// of the engine's phase histogram over the same statements run through
// a Session.
type phaseCheck struct {
	Phase     string  `json:"phase"`
	HarnessMs float64 `json:"harness_ms"`
	EngineMs  float64 `json:"engine_ms"`
}

// tracedOutcome is what one traced workload run yields.
type tracedOutcome struct {
	tally
	metrics   metricSet
	phases    []phaseCheck
	planCache [2]uint64 // engine plan.cache hits, misses over the traced statements
	spanFile  string
}

// runTraced produces the per-layer metrics of one workload: a short
// two-session window for the figures that need concurrency, the
// statement path traced stage by stage on a harness-assembled stack and
// then through a Session, and the layer loops.
func runTraced(cfg *config, spec *workloadSpec) (*tracedOutcome, error) {
	out := &tracedOutcome{metrics: metricSet{}}
	m := out.metrics
	for _, d := range cfg.decl.PerLayer {
		m.set(d.Name, 0, 0)
	}
	loops := fullLoop
	if cfg.blockDiv > 1 {
		loops = smokeLoop
	}

	short := *cfg
	short.seconds = cfg.seconds * 0.3
	inst, _, err := setup(&short, spec, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	m.set("session.load_objs_per_s", float64(inst.c.objects)/inst.loadS, inst.c.objects)
	m.set("session.index_build_s", inst.indexS, len(indexDDL))
	w := inst.runWindow()
	inst.verifyBands(inst.db)
	windowMetrics(w, m)
	if spec.name == "durable_write" {
		t, err := inst.runTail()
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		m.set("wal.checkpoint_s", t.checkpointS, 1)
		m.set("wal.recovery_s", t.recoveryS, 1)
	}
	err = sessionLoops(inst.db, inst.c.objects, loops, m)
	out.add(inst.oracle)
	inst.close()
	if err != nil {
		return nil, err
	}

	if err := out.tracePath(cfg, spec); err != nil {
		return nil, fmt.Errorf("%s: statement path: %w", spec.name, err)
	}
	c, err := generate(cfg.sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	_, objs, err := c.dump()
	if err != nil {
		return nil, err
	}
	if err := bareStoreHeap(objs, m); err != nil {
		return nil, err
	}
	if err := layerLoops(c, objs, loops, cfg.workDir, m); err != nil {
		return nil, fmt.Errorf("layer loops: %w", err)
	}
	return out, nil
}

// windowMetrics fills in what only a concurrent window shows.
func windowMetrics(w *window, m metricSet) {
	_, reads, writes := w.all()
	if ms := reads.msSorted(); len(ms) > 0 {
		m.set("session.read_p50_ms", percentile(ms, 50), len(ms))
		m.set("session.read_p95_ms", percentile(ms, 95), len(ms))
	}
	if ms := writes.msSorted(); len(ms) > 0 {
		m.set("session.write_p50_ms", percentile(ms, 50), len(ms))
		m.set("session.write_p95_ms", percentile(ms, 95), len(ms))
	}
	m.set("session.gc_pause_ms_total", float64(w.engine.gcPause)/float64(time.Millisecond), int(w.engine.numGC))
	if w.fsyncs > 0 {
		m.set("wal.commits_per_fsync", float64(w.commits)/float64(w.fsyncs), w.commits)
	}
	if w.userBytes > 0 {
		m.set("wal.b_per_user_b", float64(w.walBytes)/float64(w.userBytes), w.commits)
	}
}

// traceChunk is how many statements run on one side before the other
// side runs the same ones.
const traceChunk = 50

// tracePath follows the first traceOps statements of stream 0, one
// goroutine throughout so that counts repeat exactly: stage by stage on
// the harness's stack and whole through a Session, chunk by chunk, then
// (reads only) once more on the stack for allocation and row counts.
func (out *tracedOutcome) tracePath(cfg *config, spec *workloadSpec) error {
	m := out.metrics
	c, err := generate(cfg.sc, cfg.seed)
	if err != nil {
		return err
	}
	dump, objs, err := c.dump()
	if err != nil {
		return err
	}
	gen := newGenerator(c, cfg.seed, 0, spec.mix)
	n := max(spec.traceOps/cfg.blockDiv, 20)
	stmts := gen.block(n)
	tr := newTracer(12 * n)
	check := &instance{c: c} // for its oracle: the same judgement as in the measured window
	orc := &check.oracle
	sweepSrc, sweepWant := gen.bandSweep()

	// Both sides: the harness's stack, and a loaded DB with a Session.
	var walDirs []string
	mkWal := func(name string) (string, error) {
		if !spec.wal {
			return "", nil
		}
		dir := filepath.Join(cfg.workDir, spec.name+"-"+name)
		walDirs = append(walDirs, dir)
		return dir, os.MkdirAll(dir, 0o755)
	}
	defer func() {
		for _, d := range walDirs {
			os.RemoveAll(d)
		}
	}()
	dir, err := mkWal("stack-wal")
	if err != nil {
		return err
	}
	k, err := newStack(objs, spec, dir, gen, tr)
	if err != nil {
		return err
	}
	defer k.close()
	dir, err = mkWal("session-wal")
	if err != nil {
		return err
	}
	db, err := extra.Open(openOptions(spec, dir)...)
	if err != nil {
		return err
	}
	defer db.Close()
	if err := db.Load(bytes.NewReader(dump)); err != nil {
		return err
	}
	for _, ddl := range indexDDL {
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
	}
	cl, err := newClient(db, gen)
	if err != nil {
		return err
	}

	// The statements run in chunks, each chunk stage by stage on the
	// stack and then whole through the Session, so that both sides meet
	// the same host and the same garbage collector from one moment to the
	// next; both databases see the same statements in the same order.
	runtime.GC() // the loads' garbage is not the traced statements' to collect
	pool0 := db.PoolStats()
	snap0 := db.MetricsSnapshot()
	var used counters
	kindOf := make(map[int]opKind, n)
	for lo := 0; lo < n; lo += traceChunk {
		hi := min(lo+traceChunk, n)
		for i := lo; i < hi; i++ {
			st := &stmts[i]
			kindOf[i] = st.kind
			if st.kind.isWrite() {
				check.judge(orc, st, nil, k.write(i, st), false)
				continue
			}
			res, err := k.read(i, st)
			check.judge(orc, st, res, err, false)
		}
		c0 := readCounters()
		for i := lo; i < hi; i++ {
			st := &stmts[i]
			tr.begin(spSession, i)
			res, err := cl.exec(st)
			tr.end()
			check.judge(orc, st, res, err, false)
		}
		used = used.add(readCounters().sub(c0))
	}
	snap1 := db.MetricsSnapshot()
	pool := db.PoolStats().Sub(pool0)
	traced := len(tr.spans)
	sweep := stmt{kind: opReadBack, text: sweepSrc}
	if res, err := k.read(n, &sweep); err != nil {
		orc.fail("stack band sweep: %v", err)
	} else if err := sameRows(res, sweepWant); err != nil {
		orc.fail("stack band sweep: %v", err)
	} else {
		orc.ok()
	}
	tr.spans = tr.spans[:traced] // the sweep is a check, not a traced statement
	if res, err := db.Exec(sweepSrc); err != nil {
		orc.fail("session band sweep: %v", err)
	} else if err := sameRows(res, sweepWant); err != nil {
		orc.fail("session band sweep: %v", err)
	} else {
		orc.ok()
	}

	// Counting pass: reads only, nothing timed.
	rc := &readCounts{stageAllocs: map[string]uint64{}, stageRuns: map[string]int{}}
	for i := range stmts {
		if !stmts[i].kind.isWrite() {
			if err := k.count(&stmts[i], rc); err != nil {
				orc.fail("count %s: %v", opNames[stmts[i].kind], err)
			}
		}
	}

	// Figures.
	total, count := stageTotals(tr.spans, func(stmt int) int { return int(kindOf[stmt]) })
	perRun := func(name string) (float64, int) {
		if count[name] == 0 {
			return 0, 0
		}
		return float64(total[name]) / float64(count[name]), count[name]
	}
	for metric, stage := range map[string]string{
		"parse.ns_per_stmt": spParse, "parse.print_ns_per_stmt": spPrint,
		"sema.check_ns_per_stmt": spCheck, "algebra.plan_ns_per_stmt": spPlan,
		"exec.compile_ns_per_stmt": spCompile, "exec.run_ns_per_stmt": spRun,
		"exec.update_ns_per_stmt": spUpdate,
	} {
		v, cnt := perRun(stage)
		m.set(metric, v, cnt)
	}
	for metric, stage := range map[string]string{
		"parse.allocs_per_stmt": spParse, "sema.allocs_per_stmt": spCheck, "algebra.allocs_per_stmt": spPlan,
	} {
		if runs := rc.stageRuns[stage]; runs > 0 {
			m.set(metric, float64(rc.stageAllocs[stage])/float64(runs), runs)
		}
	}
	if rc.rowsScanned > 0 {
		m.set("exec.ns_per_row_scanned", float64(total[spRun])/float64(rc.rowsScanned), int(rc.rowsScanned))
		m.set("exec.allocs_per_row_scanned", float64(rc.stageAllocs[spRun])/float64(rc.rowsScanned), int(rc.rowsScanned))
	}
	if rc.rowsReturned > 0 {
		m.set("exec.rows_scanned_per_row_returned", float64(rc.rowsScanned)/float64(rc.rowsReturned), int(rc.rowsReturned))
	}
	if d := rc.derefHits + rc.derefMisses; d > 0 {
		m.set("exec.deref_cache_hit_frac", float64(rc.derefHits)/float64(d), int(d))
	}
	var layers time.Duration
	for _, s := range stages {
		layers += total[s]
	}
	whole := total[spSession]
	share := func(names ...string) float64 {
		var t time.Duration
		for _, s := range names {
			t += total[s]
		}
		return float64(t) / float64(layers)
	}
	m.set("trace.coverage", float64(layers)/float64(whole), n)
	m.set("trace.overhead_frac", float64(spanCost())*float64(len(tr.spans))/float64(layers+whole), len(tr.spans))
	m.set("trace.front_end_share", share(spParse, spPrint, spCheck, spPlan, spCompile), n)
	m.set("trace.exec_run_share", share(spRun), n)
	m.set("trace.exec_update_share", share(spUpdate), n)
	m.set("trace.commit_wal_share", share(spCommit, spRecordBuild, spAppend, spWaitDurable), n)
	m.set("session.overhead_ns_per_stmt", float64(whole-layers)/float64(n), n)
	m.set("session.allocs_per_stmt", float64(used.mallocs)/float64(n), n)
	m.set("session.alloc_b_per_stmt", float64(used.allocBytes)/float64(n), n)

	byClass := map[string]latencies{}
	for _, s := range tr.spans {
		if s.Name != spSession {
			continue
		}
		switch kindOf[s.Stmt] {
		case opPrepSalary, opPrepName:
			byClass["session.prepared_p50_us"] = append(byClass["session.prepared_p50_us"], s.End-s.Start)
		case opAdhocHot:
			byClass["session.adhoc_hit_p50_us"] = append(byClass["session.adhoc_hit_p50_us"], s.End-s.Start)
		case opAdhocFresh:
			byClass["session.adhoc_miss_p50_us"] = append(byClass["session.adhoc_miss_p50_us"], s.End-s.Start)
		}
	}
	for name, l := range byClass {
		m.set(name, percentile(l.msSorted(), 50)*1000, len(l))
	}
	hits := snap1.Counters["plan.cache.hits"] - snap0.Counters["plan.cache.hits"]
	misses := snap1.Counters["plan.cache.misses"] - snap0.Counters["plan.cache.misses"]
	out.planCache = [2]uint64{hits, misses}
	if hits+misses > 0 {
		m.set("session.plan_cache_hit_frac", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if pins := pool.Hits + pool.Misses; pins > 0 {
		m.set("storage.pool_hit_frac", float64(pool.Hits)/float64(pins), int(pins))
	}
	m.set("storage.pool_evictions", float64(pool.Evictions), n)
	m.set("storage.pool_writebacks", float64(pool.WriteBacks), n)

	// Harness against engine, phase by phase, as plain sums on both
	// sides. The engine times a write statement's check and update
	// together as "execute".
	raw := map[string]time.Duration{}
	for i, d := range selfTimes(tr.spans) {
		raw[tr.spans[i].Name] += d
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	engine := func(name string) float64 {
		return float64(snap1.Histograms[name].SumNS-snap0.Histograms[name].SumNS) / 1e6
	}
	out.phases = []phaseCheck{
		{"parse", ms(raw[spParse]), engine("phase.parse")},
		{"check", ms(raw[spCheck]), engine("phase.check")},
		{"plan", ms(raw[spPlan]), engine("phase.plan")},
		{"compile", ms(raw[spCompile]), engine("phase.compile")},
		{"execute", ms(raw[spRun] + raw[spUpdate]), engine("phase.execute")},
		{"statement", ms(raw[spSession]), engine("stmt.latency")},
	}

	out.spanFile = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s.json", spec.name))
	if err := writeChrome(out.spanFile, tr.spans, map[string]any{
		"workload": spec.name, "seed": cfg.seed, "statements": n, "phases": out.phases,
	}); err != nil {
		return err
	}
	out.add(*orc)
	return nil
}
