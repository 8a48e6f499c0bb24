package exec

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/excess/sema"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/value"
)

// reader returns the snapshot this statement reads: the published one a
// read statement pinned (BindSnapshot), or the view of the working state
// a write statement froze when it started (BindLive). Every read goes
// through it — scans, index probes, derefs, variable reads and
// cardinality estimates; only a write statement's apply phase reaches
// the working store, through ex.store.
func (ex *State) reader() *object.Snapshot { return ex.snap }

// derefGet fetches an object by OID from the statement's snapshot,
// counting the fetch. The tuple is the snapshot's own, immutable one.
func (ex *State) derefGet(id oid.OID) (*value.Tuple, bool, error) {
	ex.derefs++
	return ex.snap.Get(id)
}

// BindSnapshot pins the state to an immutable store snapshot: every read
// the statement performs (scans, derefs, variable reads, index probes,
// cardinality estimates) and every catalog lookup (checking, planning,
// function calls) resolves against it, so the statement observes one
// version of data and schema no matter what writers commit meanwhile.
func (ex *State) BindSnapshot(sn *object.Snapshot) {
	ex.snap, ex.write, ex.viewErr = sn, false, nil
	ex.cat = sn.Catalog()
}

// BindLive binds a write statement: its reads go to the store's current
// frozen view (object.Store.View), which holds every earlier statement's
// and, in a procedure body, every earlier body statement's writes; its
// writes go to the working store, and it checks and plans against the
// working catalog. Call it before each statement: a view is frozen
// once, and what the statement writes reaches the next one's view. A
// freeze that fails binds the published snapshot for planning and fails
// the statement's read phase (Run) with its error. The caller must hold
// the exclusive write lock.
//
// extra:requires db.wmu.W
func (ex *State) BindLive() {
	sn, err := ex.store.View()
	if err != nil {
		sn = ex.store.Snapshot() // for planning only: Run fails with err
	}
	ex.snap, ex.write, ex.viewErr = sn, true, err
	ex.cat = ex.Executor.cat
}

// Catalog returns the catalog the statement is bound to.
func (ex *State) Catalog() *catalog.Catalog { return ex.cat }

// SnapshotVersion returns the version of the snapshot the state reads.
func (ex *State) SnapshotVersion() uint64 { return ex.snap.Version() }

// Plan builds an optimized plan for a checked query. Cardinality
// estimation flows through the State's snapshot: a pinned statement
// plans against it, not against extents a concurrent writer is growing.
func (ex *State) Plan(q sema.Query) *algebra.Plan {
	return algebra.Build(ex.cat, ex, q)
}

// EstimateLen implements algebra.Stats against the State's snapshot.
// Extents without statistics fall back to algebra.DefaultCardinality; such
// misses are counted (the stats.misses metric) so bad cardinality
// guesses are observable.
func (ex *State) EstimateLen(extent string) int {
	if n, err := ex.snap.ExtentLen(extent); err == nil {
		return n
	}
	if n, err := ex.snap.ElemLen(extent); err == nil {
		return n
	}
	if ex.cStatsMiss != nil {
		ex.cStatsMiss.Inc()
	}
	return algebra.DefaultCardinality
}
