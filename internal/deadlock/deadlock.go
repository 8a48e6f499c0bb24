// Package deadlock is the engine's runtime lock-order sentinel: a
// mutex wrapper that, under the deadlockcheck build tag, records
// per-goroutine acquisition stacks and panic the moment any goroutine
// acquires tracked locks out of rank order — the dynamic counterpart of
// what extravet's lockcheck can only verify statically. Without the
// tag the wrapper compiles down to a plain sync.Mutex with no extra
// state and a no-op SetName, so the production build pays nothing.
//
// Ranks encode the engine's global order (DESIGN.md §7 and the wal
// package doc): the commit lock before the WAL's file, state and
// durability locks. A goroutine may acquire
// tracked locks only at strictly increasing rank; acquiring at a rank
// at or below one it already holds panics with both acquisition
// stacks. Unnamed wrappers (SetName never called) are untracked and
// behave exactly like sync.Mutex.
//
// The wrapper implements sync.Locker, so sync.Cond works on them
// unchanged — and under the tag the Cond's internal Unlock/Lock pairs
// are tracked like any other, which is precisely what exercises the
// WAL's group-commit wait loop.
package deadlock

// Rank order for the engine's tracked locks. Registered here rather
// than per-package so the cross-package chains (Checkpoint holds
// db.wmu while taking wal.fmu; a write statement holds it while
// appending under wal.mu) are ranked against each other, not just
// within one package.
var engineRanks = map[string]int{
	"db.wmu":  10, // commit lock: one writer at a time, taken first
	"wal.fmu": 30, // WAL file lock: serializes flush/rotate/truncate
	"wal.mu":  40, // WAL state lock: buffer and LSN assignment
	"wal.dmu": 50, // WAL durability lock: group-commit wait state
}
