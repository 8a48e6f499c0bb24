package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	extra "repro"
	"repro/internal/codec"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// loopBudget bounds a layer loop: it stops at iters iterations or after
// dur, whichever comes first.
type loopBudget struct {
	iters int
	dur   time.Duration
}

var (
	fullLoop  = loopBudget{10000, 500 * time.Millisecond}
	smokeLoop = loopBudget{300, 20 * time.Millisecond}
)

type loopResult struct {
	ns, allocs float64 // per iteration
	n          int
}

// loop times fn in a tight loop: ns/op from the clock, allocs/op from the
// runtime's malloc count.
func loop(b loopBudget, fn func(i int)) loopResult {
	m0 := mallocs()
	start := time.Now()
	n := 0
	for n < b.iters && (n%16 != 0 || time.Since(start) < b.dur) {
		fn(n)
		n++
	}
	elapsed := time.Since(start)
	m1 := mallocs()
	return loopResult{float64(elapsed) / float64(n), float64(m1-m0) / float64(n), n}
}

func medianDur(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d)
	}
	return median(vals)
}

// layerLoops measures each layer below the session on its own, at the
// benchmark's database size, through the layer's public functions.
func layerLoops(c *company, objs []exportObject, b loopBudget, workDir string, m metricSet) error {
	rng := rand.New(rand.NewSource(42)) // access order only; the data comes from the seed
	var emps []exportObject
	total := 0
	for _, o := range objs {
		total += len(o.Data)
		if o.Extent == "Employees" {
			emps = append(emps, o)
		}
	}
	m.set("codec.b_per_obj", float64(total)/float64(len(objs)), len(objs))

	// codec
	schema, store, err := newStore(objs, 8192)
	if err != nil {
		return err
	}
	defer schema.Close()
	cat := schema.Catalog()
	tuples := make([]*value.Tuple, len(emps))
	for i, o := range emps {
		v, err := codec.DecodeOne(o.Data, cat)
		if err != nil {
			return err
		}
		tuples[i] = v.(*value.Tuple)
	}
	var buf []byte
	r := loop(b, func(i int) { buf, _ = codec.Encode(buf[:0], tuples[i%len(tuples)]) })
	m.set("codec.encode_ns_per_obj", r.ns, r.n)
	r = loop(b, func(i int) { _, _ = codec.DecodeOne(emps[i%len(emps)].Data, cat) })
	m.set("codec.decode_ns_per_obj", r.ns, r.n)
	m.set("codec.decode_allocs_per_obj", r.allocs, r.n)

	// storage: heap file
	pool := storage.NewBufferPool(storage.NewMemStore(), 8192)
	heap := storage.NewHeapFile(pool)
	rids := make([]storage.RID, 0, b.iters)
	r = loop(b, func(i int) {
		rid, err := heap.Insert(emps[i%len(emps)].Data)
		if err == nil {
			rids = append(rids, rid)
		}
	})
	m.set("storage.heap_insert_ns", r.ns, r.n)
	r = loop(b, func(i int) { _, _ = heap.Get(rids[rng.Intn(len(rids))]) })
	m.set("storage.heap_get_ns", r.ns, r.n)
	start := time.Now()
	recs := 0
	_ = heap.Scan(func(storage.RID, []byte) error { recs++; return nil })
	m.set("storage.heap_scan_ns_per_rec", float64(time.Since(start))/float64(max(recs, 1)), recs)

	// storage: B+-tree at the size of the salary index
	keys := make([][]byte, len(tuples))
	for i, tv := range tuples {
		keys[i], _ = codec.EncodeKey(tv.Get("salary"))
	}
	tree := storage.NewBTree()
	start = time.Now()
	for i, k := range keys {
		tree.Insert(k, uint64(i))
	}
	m.set("storage.btree_insert_ns", float64(time.Since(start))/float64(len(keys)), len(keys))
	r = loop(b, func(i int) { tree.Lookup(keys[rng.Intn(len(keys))], func(uint64) bool { return true }) })
	m.set("storage.btree_lookup_ns", r.ns, r.n)
	r = loop(b, func(int) { _ = tree.Clone() })
	m.set("storage.btree_clone_ns", r.ns, r.n)

	// storage: buffer pool pin, resident and not
	small := storage.NewBufferPool(storage.NewMemStore(), 64)
	var pages []storage.PageID
	for i := 0; i < 1024; i++ {
		id, _, err := small.PinNew()
		if err != nil {
			return err
		}
		small.Unpin(id)
		pages = append(pages, id)
	}
	if err := small.FlushAll(); err != nil {
		return err
	}
	r = loop(b, func(i int) { // cycling through 16× the capacity: every pin reads the page in
		id := pages[i%len(pages)]
		if _, err := small.Pin(id); err == nil {
			small.Unpin(id)
		}
	})
	m.set("storage.pool_pin_miss_ns", r.ns, r.n)
	r = loop(b, func(int) { // the page just pinned: always resident
		id := pages[0]
		if _, err := small.Pin(id); err == nil {
			small.Unpin(id)
		}
	})
	m.set("storage.pool_pin_hit_ns", r.ns, r.n)

	// object store at database size
	sn := store.Snapshot()
	ids := make([]oid.OID, 0, len(emps))
	for _, o := range emps {
		ids = append(ids, o.OID)
	}
	fresh := func(i int) *value.Tuple {
		tv := value.NewTuple(c.empT)
		tv.Set("name", value.NewStr(fmt.Sprintf("loop-%06d", i)))
		tv.Set("age", int4(hotAgeLo))
		tv.Set("kids", &value.Set{})
		tv.Set("salary", int4(bandLo(streams)+i))
		tv.Set("dept", value.Ref{OID: c.depts[len(c.depts)-1].oid, Type: c.deptT.Name})
		return tv
	}
	seq := 0
	var inserted []oid.OID
	r = loop(loopBudget{min(b.iters, 2000), b.dur}, func(int) {
		if id, err := store.Insert("Employees", fresh(seq)); err == nil {
			inserted = append(inserted, id)
		}
		seq++
	})
	m.set("object.insert_ns", r.ns, r.n)
	r = loop(loopBudget{len(inserted), b.dur}, func(i int) {
		tv := fresh(i)
		tv.Set("age", int4(hotAgeLo+1))
		_ = store.Update(inserted[i], tv)
	})
	m.set("object.update_ns", r.ns, r.n)
	if _, err := store.Commit(); err != nil {
		return err
	}
	// One-row commits. The store flattens its snapshot layer chain on
	// every 8th publication; which of 8 phases that is shows as the
	// slowest.
	commitOne := func() (time.Duration, error) {
		if _, err := store.Insert("Employees", fresh(seq)); err != nil {
			return 0, err
		}
		seq++
		begin := time.Now()
		_, err := store.Commit()
		return time.Since(begin), err
	}
	rounds := 5
	if b.iters < 1000 {
		rounds = 2
	}
	var phases [8][]time.Duration
	for i := 0; i < 8*rounds; i++ {
		d, err := commitOne()
		if err != nil {
			return err
		}
		phases[i%8] = append(phases[i%8], d)
	}
	flat := 0
	for p := range phases {
		if medianDur(phases[p]) > medianDur(phases[flat]) {
			flat = p
		}
	}
	var plain []time.Duration
	for p := range phases {
		if p != flat {
			plain = append(plain, phases[p]...)
		}
	}
	live, _ := store.Snapshot().ExtentLen("Employees")
	m.set("object.commit_ns_p50", medianDur(plain), len(plain))
	m.set("object.commit_flatten_ns_p50", medianDur(phases[flat]), len(phases[flat]))
	m.set("object.commit_ns_per_live_obj", medianDur(plain)/float64(max(live, 1)), len(plain))
	// The rounds ended on phase 7: commit through the flatten phase
	// (chain depth 1), measure, then six more commits (depth 7).
	for p := 0; p <= flat; p++ {
		if _, err := commitOne(); err != nil {
			return err
		}
	}
	getLoop := func() loopResult {
		cur := store.Snapshot()
		return loop(b, func(int) { _, _, _ = cur.Get(ids[rng.Intn(len(ids))]) })
	}
	r = getLoop()
	m.set("object.get_ns_depth1", r.ns, r.n)
	for i := 0; i < 6; i++ {
		if _, err := commitOne(); err != nil {
			return err
		}
	}
	r = getLoop()
	m.set("object.get_ns_depth7", r.ns, r.n)
	var scans []time.Duration
	n := 0
	for i := 0; i < 5; i++ {
		n = 0
		begin := time.Now()
		_ = sn.ScanExtent("Employees", func(oid.OID, *value.Tuple) error { n++; return nil })
		scans = append(scans, time.Since(begin))
	}
	m.set("object.scan_ns_per_obj", medianDur(scans)/float64(max(n, 1)), n)
	if ix, ok := cat.Index("EmpName"); ok {
		nameKeys := make([][]byte, len(tuples))
		for i, tv := range tuples {
			nameKeys[i], _ = codec.EncodeKey(tv.Get("name"))
		}
		r = loop(b, func(int) {
			k := nameKeys[rng.Intn(len(nameKeys))]
			_ = sn.IndexLookup(ix, k, k, true, true)
		})
		m.set("object.index_lookup_ns", r.ns, r.n)
	}
	return walLoops(b, schema, workDir, m)
}

// bareStoreHeap is the heap a bare object.Store and its published
// snapshot hold per object, with no session layer above them.
func bareStoreHeap(objs []exportObject, m metricSet) error {
	before := heapAlloc()
	schema, store, err := newStore(objs, 8192)
	if err != nil {
		return err
	}
	after := heapAlloc()
	runtime.KeepAlive(store)
	schema.Close()
	if after > before {
		m.set("object.heap_b_per_obj", float64(after-before)/float64(len(objs)), len(objs))
	}
	return nil
}

// walLoops measures the log on its own, in the same directory (and so on
// the same filesystem) the workloads log to.
func walLoops(b loopBudget, schema *extra.DB, workDir string, m metricSet) error {
	dir := filepath.Join(workDir, "wal-loops")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncGroup})
	if err != nil {
		return err
	}
	node, err := parse.One(fmt.Sprintf(opSrc[opReplaceKey], hotName(0, 1), bandLo(0)), schema.Registry())
	if err != nil {
		log.Close()
		return err
	}
	build := func() *wal.Record {
		rec := &wal.Record{Kind: wal.RecordStmt, Session: 1, User: "dba", Src: ast.Print(node)}
		_ = rec.PayloadSize()
		return rec
	}
	r := loop(b, func(int) { _ = build() })
	m.set("wal.record_build_ns", r.ns, r.n)
	recs := make([]*wal.Record, b.iters) // built beforehand, so that only Append is timed
	for i := range recs {
		recs[i] = build()
	}
	records := 0
	r = loop(b, func(i int) {
		if _, err := log.Append(recs[i]); err == nil {
			records++
		}
	})
	m.set("wal.append_ns", r.ns, r.n)
	if _, err := log.Flush(); err != nil {
		log.Close()
		return err
	}
	syncs := max(b.iters/50, 20)
	var fsync, wait []time.Duration
	for i := 0; i < syncs; i++ {
		if _, err := log.Append(build()); err != nil {
			break
		}
		records++
		begin := time.Now()
		_, _ = log.Flush()
		fsync = append(fsync, time.Since(begin))
	}
	for i := 0; i < syncs; i++ {
		begin := time.Now()
		lsn, err := log.Append(build())
		if err != nil {
			break
		}
		records++
		_ = log.WaitDurable(lsn)
		wait = append(wait, time.Since(begin))
	}
	m.set("wal.fsync_ns_p50", medianDur(fsync), len(fsync))
	m.set("wal.wait_durable_ns_p50", medianDur(wait), len(wait))
	if err := log.Close(); err != nil {
		return err
	}
	m.set("wal.b_per_record", float64(dirBytes(dir))/float64(max(records, 1)), records)
	replayed := 0
	begin := time.Now()
	log, _, err = wal.Open(dir, wal.Options{Sync: wal.SyncGroup, Replay: func(*wal.Record) error { replayed++; return nil }})
	if err != nil {
		return err
	}
	m.set("wal.replay_ns_per_record", float64(time.Since(begin))/float64(max(replayed, 1)), replayed)
	return log.Close()
}

// sessionLoops measures the root package's bulk paths and the one
// statement shape no workload can afford: a prepared lookup whose key
// is a $1 parameter, which the planner answers with a full scan.
func sessionLoops(db *extra.DB, objects int, b loopBudget, m metricSet) error {
	begin := time.Now()
	if err := db.Dump(io.Discard); err != nil {
		return err
	}
	m.set("session.dump_objs_per_s", float64(objects)/time.Since(begin).Seconds(), objects)
	st, err := db.Prepare(`retrieve (E.name, E.salary) from E in Employees where E.name = $1`)
	if err != nil {
		return err
	}
	defer st.Close()
	var lat latencies
	for i := 0; i < max(b.iters/300, 5); i++ {
		begin := time.Now()
		if _, err := st.Exec(fmt.Sprintf("emp-%06d", i)); err != nil {
			return err
		}
		lat = append(lat, time.Since(begin))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	m.set("session.param_lookup_p50_us", float64(lat[len(lat)/2])/float64(time.Microsecond), len(lat))
	return nil
}
