// Package snapcheck is an extravet fixture reproducing the engine's
// pinned-read shape: a DB with one commit lock, a store that publishes
// snapshots carrying the catalog, and a
// BindSnapshot pin point. extra:snapshot roots must stay read-only,
// lock-free and snapshot-bound; the bad fixtures each break one of
// those in a different way.
package snapcheck

import "sync"

// Snap is an immutable snapshot; reads through it are always legal.
type Snap struct {
	vars map[string]int
	cat  *Cat
}

func (sn *Snap) Get(name string) int { return sn.vars[name] }

// Catalog returns the snapshot's frozen catalog.
func (sn *Snap) Catalog() *Cat { return sn.cat }

// Cat is a catalog: the working one belongs to the store, frozen ones
// to snapshots.
type Cat struct{ types map[string]int }

func (c *Cat) Type(name string) int { return c.types[name] }

// Store publishes snapshots (Commit), so it is a store, and live reads
// outside Snapshot/Version are flagged in snapshot context.
type Store struct {
	version uint64
	vars    map[string]int
	cat     *Cat
}

// Commit publishes the working state as the next version.
func (s *Store) Commit() { s.version++ }

// Snapshot pins the current state.
func (s *Store) Snapshot() *Snap { return &Snap{vars: s.vars} }

// Version reads the counter (allowlisted: versioned caches key on it).
func (s *Store) Version() uint64 { return s.version }

// Get reads live state; illegal from snapshot context.
func (s *Store) Get(name string) int { return s.vars[name] }

// Catalog returns the working catalog; illegal from snapshot context.
func (s *Store) Catalog() *Cat { return s.cat }

// Set mutates live state.
func (s *Store) Set(name string, v int) {
	s.vars[name] = v
}

type DB struct {
	wmu   sync.Mutex // extra:lock db.wmu
	store *Store
}

// BindSnapshot pins a snapshot; its callers are the roots the analyzer
// floods from.
func (d *DB) BindSnapshot() *Snap { return d.store.Snapshot() }

// goodRead is the runReadStmt shape: bind, then read the bound
// snapshot and its catalog. Clean.
//
// extra:snapshot
func (d *DB) goodRead() int {
	sn := d.BindSnapshot()
	return sn.Get("k") + sn.Catalog().Type("T")
}

// goodDump pins via Store.Snapshot directly (the Dump shape). Clean.
//
// extra:snapshot
func (d *DB) goodDump() int {
	sn := d.store.Snapshot()
	return sn.Get("k")
}

// writeLocked is write context by annotation; reached from a root it is
// a boundary and the edge is the violation.
//
// extra:requires db.wmu.W
func (d *DB) writeLocked() { d.store.Set("k", 1) }

// badLocksCommit serializes the pinned read behind writers.
//
// extra:snapshot
func (d *DB) badLocksCommit() {
	sn := d.BindSnapshot()
	_ = sn
	d.wmu.Lock() // want `acquires db.wmu.W in snapshot context`
	d.wmu.Unlock()
}

// badWorkingCatalog plans against the catalog a writer is editing
// instead of the snapshot's own.
//
// extra:snapshot
func (d *DB) badWorkingCatalog() int {
	sn := d.BindSnapshot()
	_ = sn
	return d.store.Catalog().Type("T") // want `on the live store from snapshot context`
}

// badCallsWriter reaches write context through an annotated callee.
//
// extra:snapshot
func (d *DB) badCallsWriter() {
	sn := d.BindSnapshot()
	_ = sn
	d.writeLocked() // want `which needs db.wmu.W`
}

// scribble writes store state directly; reached only from a snapshot
// root, so the write is reported here, in snapshot context.
func scribble(s *Store) {
	s.vars["k"] = 3 // want `mutates store state in snapshot context`
}

// badMutates writes the store from a pinned read via a helper.
//
// extra:snapshot
func (d *DB) badMutates() {
	sn := d.BindSnapshot()
	_ = sn
	scribble(d.store)
}

// badLiveRead reads the live store instead of the bound snapshot — the
// stale-read bug MVCC exists to prevent.
//
// extra:snapshot
func (d *DB) badLiveRead() int {
	sn := d.BindSnapshot()
	_ = sn
	return d.store.Get("k") // want `on the live store from snapshot context`
}

// helperRead is only reachable from snapshot roots; the flood descends
// into unannotated helpers and reports the violation where it happens.
func (d *DB) helperRead() {
	d.wmu.Lock() // want `acquires db.wmu.W in snapshot context`
	d.wmu.Unlock()
}

// badViaHelper reaches the commit lock two calls deep.
//
// extra:snapshot
func (d *DB) badViaHelper() {
	sn := d.BindSnapshot()
	_ = sn
	d.helperRead()
}

// badUnannotatedBind pins without the annotation, dodging the check.
func (d *DB) badUnannotatedBind() int {
	sn := d.BindSnapshot() // want `binds a snapshot but is not annotated extra:snapshot`
	return sn.Get("k")
}

// staleSnapshot claims to be a pinned-read root but never pins.
//
// extra:snapshot
func (d *DB) staleSnapshot() {} // want `never binds or takes a store snapshot`
