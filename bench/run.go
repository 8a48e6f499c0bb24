package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	extra "repro"
)

// workloadSpec is one benchmark workload: a database configuration and a
// statement mix. Every workload is a closed loop — each session sends
// its next statement only when the previous one has been answered —
// because the users modelled are applications that embed the engine and
// wait for each reply.
type workloadSpec struct {
	name     string
	wal      bool
	pool     int // buffer pool pages; 0 keeps the engine default (256 pages ≈ 1 MiB, below the heap's size)
	mix      mix
	blockOps int // statements per session per measured block (≈0.5 s of work)
	traceOps int // statements of stream 0 the traced run follows
	warmup   int // statements of the warm-up pass that ends set-up
}

// workloads are the four of BENCHMARK.json, which says why each exists.
var workloads = []workloadSpec{
	{name: "point_read", pool: 8192, mix: mix{point: 1, prep: 6, hot: 5, fresh: 3}, blockOps: 21000, traceOps: 8400, warmup: 200},
	{name: "scan_join", pool: 8192, mix: mix{scan: 1}, blockOps: 25, traceOps: 250, warmup: 50},
	{name: "durable_write", wal: true, mix: mix{write: 1}, blockOps: 20, traceOps: 250, warmup: 50},
	{name: "mixed", wal: true, pool: 8192, mix: mix{point: 14, scan: 4, write: 2, prep: 8, hot: 4, fresh: 2}, blockOps: 100, traceOps: 500, warmup: 200},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// config is one invocation's settings.
type config struct {
	decl        *declaration
	sc          scale
	seed        int64
	seconds     float64 // measured window per workload
	sessions    int     // min(streams, nproc)
	setups      int     // set-up repetitions; the median is reported
	tailAppends int     // appends between checkpoint and restart (durable_write)
	blockDiv    int     // divides blockOps and traceOps (smoke)
	workDir     string  // WAL directories live here; removed when the run ends
	outDir      string  // span files and the report's summary are written here
}

// client is one session with its prepared statements and its stream.
type client struct {
	s       *extra.Session
	prep    [numOpKinds]*extra.Stmt // kinds prepared with $n slots
	prepSet []*extra.Stmt           // the prepared lookups, one per literal
	gen     *generator
	n       int // statements run in measured blocks, for sampling
}

// exec runs one statement through the public API: prepared kinds through
// their Stmt, the rest as source text.
func (cl *client) exec(st *stmt) (*extra.Result, error) {
	switch {
	case st.kind.preparedSet():
		return cl.prepSet[st.slot].Exec()
	case st.kind.params():
		return cl.prep[st.kind].Exec(st.args...)
	}
	return cl.s.Exec(st.text)
}

// instance is a set-up database ready to measure.
type instance struct {
	spec       *workloadSpec
	cfg        *config
	c          *company
	db         *extra.DB
	walDir     string
	clients    []*client
	heapPerObj float64
	loadS      float64 // DB.Load alone
	indexS     float64 // the index definitions alone
	oracle     tally   // written by one goroutine at a time; sessions keep their own during a block
}

// tally accumulates a correctness verdict: checks made, checks failed,
// and what the first few failures were.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func openOptions(spec *workloadSpec, walDir string) []extra.Option {
	var opts []extra.Option
	if spec.pool > 0 {
		opts = append(opts, extra.WithPoolSize(spec.pool))
	}
	if spec.wal {
		opts = append(opts, extra.WithWAL(walDir), extra.WithWALSync(extra.WALSyncGroup))
	}
	return opts
}

// setup builds one instance and reports how long that took: generate the
// data from the seed, Load it as a dump (O(n)), define the indexes,
// prepare the statements and run the warm-up pass. The two garbage
// collections that bracket the heap measurement are not on the clock.
func setup(cfg *config, spec *workloadSpec, n int) (*instance, float64, error) {
	start := time.Now()
	c, err := generate(cfg.sc, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	dump, _, err := c.dump()
	if err != nil {
		return nil, 0, err
	}
	inst := &instance{spec: spec, cfg: cfg, c: c}
	gens := make([]*generator, cfg.sessions)
	for s := range gens {
		gens[s] = newGenerator(c, cfg.seed, s, spec.mix)
	}
	if spec.wal {
		inst.walDir = filepath.Join(cfg.workDir, fmt.Sprintf("%s-wal-%d", spec.name, n))
		if err := os.MkdirAll(inst.walDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(start)
	heap0 := heapAlloc()
	start = time.Now()

	db, err := extra.Open(openOptions(spec, inst.walDir)...)
	if err != nil {
		return nil, 0, err
	}
	inst.db = db
	if err := db.Load(bytes.NewReader(dump)); err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("load: %w", err)
	}
	inst.loadS = time.Since(start).Seconds()
	for _, ddl := range indexDDL {
		if _, err := db.Exec(ddl); err != nil {
			inst.close()
			return nil, 0, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	inst.indexS = time.Since(start).Seconds() - inst.loadS
	for s := 0; s < cfg.sessions; s++ {
		cl, err := newClient(db, gens[s])
		if err != nil {
			inst.close()
			return nil, 0, err
		}
		inst.clients = append(inst.clients, cl)
	}
	warm := inst.clients[0].gen.block(max(spec.warmup/cfg.blockDiv, 4))
	for i := range warm {
		res, err := inst.clients[0].exec(&warm[i])
		inst.judge(&inst.oracle, &warm[i], res, err, true)
	}
	inst.verifyTouched()
	elapsed += time.Since(start)

	heap1 := heapAlloc()
	runtime.KeepAlive(dump)
	if heap1 > heap0 {
		inst.heapPerObj = float64(heap1-heap0) / float64(c.objects)
	}
	return inst, elapsed.Seconds(), nil
}

func newClient(db *extra.DB, g *generator) (*client, error) {
	cl := &client{s: db.NewSession(), gen: g}
	for k := opKind(0); k < numOpKinds; k++ {
		if !k.params() {
			continue
		}
		st, err := cl.s.Prepare(opSrc[k])
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", opNames[k], err)
		}
		cl.prep[k] = st
	}
	for i := range g.prepSet {
		st, err := cl.s.Prepare(g.prepSet[i].text)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", g.prepSet[i].text, err)
		}
		cl.prepSet = append(cl.prepSet, st)
	}
	return cl, nil
}

func (inst *instance) close() {
	if inst.db != nil {
		inst.db.Close()
		inst.db = nil
	}
	if inst.walDir != "" {
		os.RemoveAll(inst.walDir)
	}
}

// judge checks one statement's outcome and records the verdict in t: no
// error, the exact row count for reads, and — when full is set — the
// exact rows.
func (inst *instance) judge(t *tally, st *stmt, res *extra.Result, err error, full bool) {
	if err != nil {
		t.fail("%s %v: %v", opNames[st.kind], st.args, err)
		return
	}
	if st.wantRows >= 0 {
		got := 0
		if res != nil {
			got = len(res.Rows)
		}
		if got != st.wantRows {
			t.fail("%s %v: %d rows, want %d", opNames[st.kind], st.args, got, st.wantRows)
			return
		}
		if full {
			if err := sameRows(res, inst.c.wantFull(*st)); err != nil {
				t.fail("%s %v: %v", opNames[st.kind], st.args, err)
				return
			}
		}
	}
	t.ok()
}

// maxReadBacks bounds the read-your-writes checks per stream per block.
const maxReadBacks = 16

// verifyTouched reads back a sample of the hot rows each stream wrote
// since the last call and compares them with the stream's model.
func (inst *instance) verifyTouched() {
	for _, cl := range inst.clients {
		names := cl.gen.takeTouched()
		step := (len(names) + maxReadBacks - 1) / maxReadBacks
		for i := 0; i < len(names); i += max(step, 1) {
			st, want := cl.gen.readBack(names[i])
			res, err := cl.exec(&st)
			if err == nil {
				err = sameRows(res, want)
			}
			if err != nil {
				inst.oracle.fail("read_back %s: %v", names[i], err)
			} else {
				inst.oracle.ok()
			}
		}
	}
}

// verifyBands compares every row of each stream's salary band, kids
// included, with the stream's model: every acknowledged write is there
// and nothing else is.
func (inst *instance) verifyBands(db *extra.DB) {
	for _, cl := range inst.clients {
		src, want := cl.gen.bandSweep()
		res, err := db.Exec(src)
		if err == nil {
			err = sameRows(res, want)
		}
		if err != nil {
			inst.oracle.fail("band sweep stream %d: %v", cl.gen.hot.stream, err)
		} else {
			inst.oracle.ok()
		}
	}
}

// counters is a reading of every monotonic count the harness differences
// over a window.
type counters struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    uint64
	numGC      uint32
}

func readCounters() counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcPause:    ms.PauseTotalNs,
		numGC:      ms.NumGC,
	}
}

func (a counters) sub(b counters) counters {
	return counters{a.cpu - b.cpu, a.mallocs - b.mallocs, a.allocBytes - b.allocBytes, a.gcPause - b.gcPause, a.numGC - b.numGC}
}

func (a counters) add(b counters) counters {
	return counters{a.cpu + b.cpu, a.mallocs + b.mallocs, a.allocBytes + b.allocBytes, a.gcPause + b.gcPause, a.numGC + b.numGC}
}

// window is what one measured window yields.
type window struct {
	stmts      int
	byKind     [numOpKinds]latencies
	blockRate  []float64 // statements/s of each block: Σ over sessions of ops ÷ Σ latency
	blockCPUms []float64 // process CPU ms per statement of each block
	busy       time.Duration
	engine     counters // summed over blocks only: generation and checking are outside
	fsyncs     uint64
	commits    int
	walBytes   int64
	userBytes  int64
}

// sampleEvery: one read statement in this many has its full rows compared
// with the model (the row count is compared on all of them). Prime, so
// the sample does not lock onto the five-shape scan cycle.
const sampleEvery = 101

type sampled struct {
	st  *stmt
	res *extra.Result
}

// runWindow measures the workload for cfg.seconds: blocks of a fixed
// number of statements per session, all sessions started together, each
// a closed loop. Statements are generated before a block starts and
// sampled results are compared with the model after it ends, so neither
// is on any clock.
func (inst *instance) runWindow() *window {
	cfg, spec := inst.cfg, inst.spec
	w := &window{}
	blockOps := max(spec.blockOps/cfg.blockDiv, 4)
	fsync0 := inst.db.WALFsyncs()
	wal0 := dirBytes(inst.walDir)

	type sessOut struct {
		lat     []time.Duration
		samples []sampled
		verdict tally // of this session's statements in the current block
	}
	outs := make([]sessOut, len(inst.clients))
	for i := range outs {
		outs[i].lat = make([]time.Duration, blockOps)
	}
	for w.busy.Seconds() < cfg.seconds {
		blocks := make([][]stmt, len(inst.clients))
		for i, cl := range inst.clients {
			blocks[i] = cl.gen.block(blockOps)
		}
		c0 := readCounters()
		t0 := time.Now()
		var wg sync.WaitGroup
		for i, cl := range inst.clients {
			wg.Add(1)
			go func(cl *client, stmts []stmt, out *sessOut) {
				defer wg.Done()
				out.samples, out.verdict = out.samples[:0], tally{}
				for j := range stmts {
					st := &stmts[j]
					begin := time.Now()
					res, err := cl.exec(st)
					out.lat[j] = time.Since(begin)
					cl.n++
					if err != nil || cl.n%sampleEvery != 0 || st.wantRows < 0 {
						inst.judge(&out.verdict, st, res, err, false)
					} else {
						out.samples = append(out.samples, sampled{st, res})
					}
				}
			}(cl, blocks[i], &outs[i])
		}
		wg.Wait()
		w.busy += time.Since(t0)
		delta := readCounters().sub(c0)
		w.engine = w.engine.add(delta)

		rate := 0.0
		for i := range outs {
			var sum time.Duration
			for j, d := range outs[i].lat {
				sum += d
				k := blocks[i][j].kind
				w.byKind[k] = append(w.byKind[k], d)
				if k.isWrite() {
					w.commits++
					w.userBytes += int64(blocks[i][j].userBytes)
				}
			}
			rate += float64(blockOps) / sum.Seconds()
			inst.oracle.add(outs[i].verdict)
			for _, s := range outs[i].samples {
				inst.judge(&inst.oracle, s.st, s.res, nil, true)
			}
		}
		ops := blockOps * len(inst.clients)
		w.stmts += ops
		w.blockRate = append(w.blockRate, rate)
		w.blockCPUms = append(w.blockCPUms, float64(delta.cpu)/float64(time.Millisecond)/float64(ops))
		inst.verifyTouched()
	}
	w.fsyncs = inst.db.WALFsyncs() - fsync0
	w.walBytes = dirBytes(inst.walDir) - wal0
	return w
}

// dirBytes sums the sizes of the WAL segment files in dir.
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var n int64
	for _, p := range segs {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// tail is durable_write's restart sequence, each step timed on its own.
type tail struct {
	checkpointS, recoveryS float64
	appends                int
}

// runTail checkpoints, appends a WAL tail, closes and reopens the
// database, then checks that the reopened database is consistent and
// that every acknowledged write of every stream is reflected in it.
func (inst *instance) runTail() (*tail, error) {
	t := &tail{appends: inst.cfg.tailAppends}
	begin := time.Now()
	if err := inst.db.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	t.checkpointS = time.Since(begin).Seconds()

	cl := inst.clients[0]
	for i := 0; i < t.appends; i++ {
		st := cl.gen.appendOne()
		res, err := cl.exec(&st)
		inst.judge(&inst.oracle, &st, res, err, false)
	}
	if err := inst.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	inst.db = nil

	begin = time.Now()
	db, err := extra.Open(openOptions(inst.spec, inst.walDir)...)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	t.recoveryS = time.Since(begin).Seconds()
	inst.db = db
	if bad := db.CheckConsistency(); len(bad) > 0 {
		inst.oracle.fail("after recovery: %d consistency violations, first: %s", len(bad), bad[0])
	} else {
		inst.oracle.ok()
	}
	inst.verifyBands(db)
	return t, nil
}

// outcome is everything one workload run measured.
type outcome struct {
	tally
	setupS []float64
	heapB  float64
	win    *window
	tail   *tail
}

// runWorkload sets the workload up cfg.setups times (keeping the last
// instance), measures one window, runs durable_write's tail and sweeps
// the hot bands.
func runWorkload(cfg *config, spec *workloadSpec) (*outcome, error) {
	out := &outcome{}
	var inst *instance
	for n := 0; n < cfg.setups; n++ {
		if inst != nil {
			out.add(inst.oracle)
			inst.close()
		}
		var s float64
		var err error
		inst, s, err = setup(cfg, spec, n)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
		}
		out.setupS = append(out.setupS, s)
	}
	defer inst.close()
	out.heapB = inst.heapPerObj
	out.win = inst.runWindow()
	inst.verifyBands(inst.db)
	if spec.name == "durable_write" {
		t, err := inst.runTail()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.name, err)
		}
		out.tail = t
	}
	out.add(inst.oracle)
	return out, nil
}

// all returns every timed latency of the window, and the read and write
// subsets.
func (w *window) all() (all, reads, writes latencies) {
	for k := opKind(0); k < numOpKinds; k++ {
		all = append(all, w.byKind[k]...)
		if k.isWrite() {
			writes = append(writes, w.byKind[k]...)
		} else {
			reads = append(reads, w.byKind[k]...)
		}
	}
	return
}
