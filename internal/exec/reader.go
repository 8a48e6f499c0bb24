package exec

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/excess/sema"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/storage"
	"repro/internal/value"
)

// storeReader is the read surface a statement executes against. Both the
// live *object.Store (write statements, which must see their own earlier
// mutations) and the immutable *object.Snapshot (read statements pinned
// by the session layer) implement it; State.reader picks per statement.
type storeReader interface {
	Get(id oid.OID) (*value.Tuple, bool, error)
	Exists(id oid.OID) bool
	GetVar(name string) (value.Value, error)
	ScanExtent(extent string, fn func(id oid.OID, tv *value.Tuple) error) error
	ScanElems(extent string, fn func(rid storage.RID, v value.Value) error) error
	ExtentLen(extent string) (int, error)
	ElemLen(extent string) (int, error)
	IsObjectExtent(name string) bool
	IsElemExtent(name string) bool
	IndexLookup(ix *catalog.Index, lo, hi []byte, incLo, incHi bool) []oid.OID
}

var (
	_ storeReader = (*object.Store)(nil)
	_ storeReader = (*object.Snapshot)(nil)
)

// reader returns the view this statement reads from: the pinned snapshot
// when one is bound, the live store otherwise.
func (ex *State) reader() storeReader {
	if ex.snap != nil {
		return ex.snap
	}
	return ex.store
}

// derefGet fetches an object by OID from the statement's view, counting
// the fetch. A snapshot hands out its immutable decoded tuple; the live
// store decodes a fresh one.
func (ex *State) derefGet(id oid.OID) (*value.Tuple, bool, error) {
	ex.derefs++
	return ex.reader().Get(id)
}

// BindSnapshot pins the state to an immutable store snapshot: every read
// the statement performs (scans, derefs, variable reads, index probes,
// cardinality estimates) and every catalog lookup (checking, planning,
// function calls) resolves against it, so the statement observes one
// version of data and schema no matter what writers commit meanwhile.
// Also re-copies the optimizer options.
func (ex *State) BindSnapshot(sn *object.Snapshot) {
	ex.snap = sn
	ex.cat = sn.Catalog()
	ex.opts = ex.Executor.Options()
}

// BindLive points the state at the live store and the working catalog
// (write statements: a writer must see its own uncommitted mutations).
// The caller must hold the exclusive write lock.
//
// extra:requires db.wmu.W
func (ex *State) BindLive() {
	ex.snap = nil
	ex.cat = ex.Executor.cat
	ex.opts = ex.Executor.Options()
}

// Catalog returns the catalog the statement is bound to.
func (ex *State) Catalog() *catalog.Catalog { return ex.cat }

// Options returns the statement's copy of the optimizer options.
func (ex *State) Options() algebra.Options { return ex.opts }

// SnapshotVersion returns the version of the pinned snapshot, or 0 when
// the state reads the live store (write path).
func (ex *State) SnapshotVersion() uint64 {
	if ex.snap == nil {
		return 0
	}
	return ex.snap.Version()
}

// PoolStats returns the buffer pool's counters when the state reads the
// live store, and zero when it is pinned to a snapshot, which pins no
// page: an instrumented read then never charges a concurrent writer's
// page traffic to its own operators.
func (ex *State) PoolStats() storage.PoolStats {
	if ex.snap != nil {
		return storage.PoolStats{}
	}
	return ex.store.Pool().Stats()
}

// Plan builds an optimized plan for a checked query. Cardinality
// estimation flows through the State's bound view: a pinned statement
// plans against its snapshot, not against extents a concurrent writer
// is growing.
func (ex *State) Plan(q sema.Query) *algebra.Plan {
	return algebra.Build(ex.cat, ex, q, ex.opts)
}

// EstimateLen implements algebra.Stats against the bound view. Extents
// without statistics fall back to algebra.DefaultCardinality; such
// misses are counted (the stats.misses metric) so bad cardinality
// guesses are observable.
func (ex *State) EstimateLen(extent string) int {
	r := ex.reader()
	if n, err := r.ExtentLen(extent); err == nil {
		return n
	}
	if n, err := r.ElemLen(extent); err == nil {
		return n
	}
	if ex.cStatsMiss != nil {
		ex.cStatsMiss.Inc()
	}
	return algebra.DefaultCardinality
}
