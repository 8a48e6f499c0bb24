// Package lockcheck is an extravet fixture reproducing the engine's
// lock-split shape: a DB with an RWMutex statement lock, annotated
// mutators and readers, scoped and held-on-return acquirers, and a
// classify-then-dispatch statement switch. Lines marked with a
// `// want` comment must produce exactly that diagnostic; unmarked
// lines must stay clean.
package lockcheck

import "sync"

type DB struct {
	wmu sync.Mutex   // extra:lock db.wmu
	mu  sync.RWMutex // extra:lock db.rw
}

// mutate writes DB state.
//
// extra:requires db.rw.W
func (d *DB) mutate() {}

// read observes DB state.
//
// extra:requires db.rw.R
func (d *DB) read() {}

// withLock takes and releases the lock itself.
//
// extra:acquires db.rw.W
func (d *DB) withLock() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mutate()
}

// lockShared returns with the shared lock still held, handing the
// unlock back to the caller (the lockStatements shape).
//
// extra:holds db.rw.R
func (d *DB) lockShared() func() {
	d.mu.RLock()
	return d.mu.RUnlock
}

func goodExclusive(d *DB) {
	d.mu.Lock()
	d.mutate()
	d.mu.Unlock()
}

func goodShared(d *DB) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.read()
}

func goodAcquirer(d *DB) {
	d.withLock()
}

func goodHolds(d *DB) {
	unlock := d.lockShared()
	defer unlock()
	d.read()
}

// goodTryLock is the group-commit leader shape: win the lock with
// TryLock, run the requires-annotated body, release.
func goodTryLock(d *DB) {
	if d.mu.TryLock() {
		d.mutate()
		d.mu.Unlock()
	}
}

func badAfterTryUnlock(d *DB) {
	if d.mu.TryLock() {
		d.mu.Unlock()
	}
	d.mutate() // want `requires db.rw.W, but badAfterTryUnlock holds no lock`
}

func badNoLock(d *DB) {
	d.mutate() // want `requires db.rw.W, but badNoLock holds no lock`
}

func badSharedForWrite(d *DB) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	d.mutate() // want `requires db.rw.W, but badSharedForWrite holds db.rw.R`
}

func badReentrant(d *DB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.withLock() // want `self-deadlock`
}

func badAfterUnlock(d *DB) {
	d.mu.Lock()
	d.mutate()
	d.mu.Unlock()
	d.mutate() // want `requires db.rw.W, but badAfterUnlock holds no lock`
}

func badHoldsThenWrite(d *DB) {
	unlock := d.lockShared()
	defer unlock()
	d.mutate() // want `requires db.rw.W, but badHoldsThenWrite holds db.rw.R`
}

// planCache mirrors the engine's second annotated lock (the plan
// cache's RWMutex): shared-locked probes, exclusive-locked inserts, and
// a distinct lock name so holding the statement lock must not satisfy a
// plan-cache requirement.
type planCache struct {
	mu sync.RWMutex // extra:lock plancache.mu
	m  map[string]int
}

// probe reads the cache map.
//
// extra:requires plancache.mu.R
func (pc *planCache) probe(k string) int { return pc.m[k] }

// insert writes the cache map.
//
// extra:requires plancache.mu.W
func (pc *planCache) insert(k string, v int) { pc.m[k] = v }

// get is the hit path: shared lock around the probe.
//
// extra:acquires plancache.mu.R
func (pc *planCache) get(k string) int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return pc.probe(k)
}

// put is the fill path: exclusive lock around the insert.
//
// extra:acquires plancache.mu.W
func (pc *planCache) put(k string, v int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.insert(k, v)
}

func goodCacheRoundTrip(pc *planCache) {
	pc.put("k", 1)
	_ = pc.get("k")
}

func badCacheNoLock(pc *planCache) {
	pc.insert("k", 1) // want `requires plancache.mu.W, but badCacheNoLock holds no lock`
}

func badCacheSharedForWrite(pc *planCache) {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	pc.insert("k", 1) // want `requires plancache.mu.W, but badCacheSharedForWrite holds plancache.mu.R`
}

func badCacheReentrantFill(pc *planCache) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.put("k", 1) // want `self-deadlock`
}

// Holding the statement lock says nothing about the plan-cache lock:
// the two annotated locks are tracked independently.
func badWrongLockHeld(d *DB, pc *planCache) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_ = pc.probe("k") // want `requires plancache.mu.R, but badWrongLockHeld holds no lock`
}

var _ = []func(*planCache){
	goodCacheRoundTrip, badCacheNoLock, badCacheSharedForWrite, badCacheReentrantFill,
}
var _ = badWrongLockHeld

// Statement kinds mirroring the dispatcher: the case-arm type names
// line up with lint.StmtClass, so the dispatch cross-check applies.
type (
	Retrieve        struct{ Into string }
	Append          struct{}
	Delete          struct{}
	Replace         struct{}
	SetStmt         struct{}
	Execute         struct{}
	DefineType      struct{}
	DefineEnum      struct{}
	DefineFunction  struct{}
	DefineProcedure struct{}
	DefineIndex     struct{}
	Create          struct{}
	Drop            struct{}
	RangeDecl       struct{}
	Grant           struct{}
	Revoke          struct{}
	Frobnicate      struct{} // deliberately absent from lint.StmtClass
)

// run dispatches one statement under the classify-then-lock scheme:
// write-classified arms execute with the exclusive lock, so mutations
// there are fine; the read-classified retrieve arm only has the shared
// lock.
//
// extra:requires db.rw.R
// extra:dispatch db.rw ReadOnly
func run(d *DB, st any) {
	switch st.(type) {
	case *Retrieve:
		d.read()
		d.mutate() // want `requires db.rw.W, but run holds db.rw.R`
	case *RangeDecl:
		d.read()
		d.mutate() // want `requires db.rw.W, but run holds db.rw.R`
	case *Append, *Delete, *Replace, *SetStmt, *Execute,
		*DefineType, *DefineEnum, *DefineFunction, *DefineProcedure,
		*DefineIndex, *Create, *Drop, *Grant, *Revoke:
		d.mutate()
	case *Frobnicate: // want `not classified in lint.StmtClass`
		d.read()
	}
}

// MVCC shape: wmu is the commit lock serializing write batches, and
// the read path takes no lock at all. Commits need only wmu.

// commit publishes a write batch's snapshot. Only the commit lock is
// needed; readers never block on it.
//
// extra:requires db.wmu.W
func (d *DB) commit() {}

// runWrite is the write-batch shape: the commit lock for the whole
// batch.
//
// extra:acquires db.wmu.W
func (d *DB) runWrite() {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.commit()
}

func badCommitNoLock(d *DB) {
	d.commit() // want `requires db.wmu.W, but badCommitNoLock holds no lock`
}

func badReentrantBatch(d *DB) {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.runWrite() // want `self-deadlock`
}

// keep the otherwise-unused fixture entry points alive for the compiler
var _ = []func(*DB){
	goodExclusive, goodShared, goodAcquirer, goodHolds,
	goodTryLock, badAfterTryUnlock,
	badNoLock, badSharedForWrite, badReentrant, badAfterUnlock, badHoldsThenWrite,
	(*DB).runWrite, badCommitNoLock, badReentrantBatch,
}
var _ = run
