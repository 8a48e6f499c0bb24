package extra

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/excess/ast"
	"repro/internal/excess/sema"
	"repro/internal/exec"
	"repro/internal/metrics"
)

// planCache is the engine-wide compiled-statement cache: a text-keyed map
// from normalized retrieve source to its checked form and optimized plan,
// so a statement executed repeatedly (the OLTP shape the paper's
// application interfaces generate) pays parse/check/plan once and a map
// hit thereafter.
//
// The key embeds everything planning reads besides the statement text:
//
//   - the catalog version, bumped by every DDL statement — a schema change
//     invalidates the whole cache at once without enumerating entries;
//   - the optimizer-option fingerprint, so toggling a knob (benchmarks do
//     this mid-run) never serves a plan built under different rules;
//   - the session's range-declaration fingerprint, because "retrieve
//     (E.name)" means different things after "range of E is ..." changes.
//
// It is the engine's only plan memo: ad-hoc statements, prepared
// statements ($n placeholders included) and EXPLAIN ANALYZE all reach it
// through Session.planRetrieve, which also says what is not cacheable.
//
// Entries store the Checked form, a Cached=true Clone of the plan and
// the plan's compiled program (exec.Program), so a hit neither plans nor
// compiles. Clone and program are shared by every hit and never mutated
// — a sampled statement that needs instrumentation clones the plan
// again before EnableRuntime and runs the clone with the same program.
// An entry carries its own key, so a holder that outlives the entry's
// place in the map (a Stmt keeps the one it was last served) revalidates
// it with the comparison the map itself uses.
type planCache struct {
	mu  sync.RWMutex // extra:lock plancache.mu
	cap int
	m   map[planKey]*planEntry
	// fifo holds keys in insertion order for eviction. Plans are tiny
	// (shared pointers into the checked tree), so recency tracking is not
	// worth a lock upgrade on the hit path.
	fifo []planKey

	hits, misses, evictions *metrics.Counter
	size                    *metrics.Gauge
}

type planKey struct {
	text   string
	catVer uint64
	optsFP uint64
	ranges string
}

type planEntry struct {
	key  planKey
	cq   *sema.CheckedRetrieve
	plan *algebra.Plan
	prog *exec.Program
}

const defaultPlanCacheCap = 256

func newPlanCache(capacity int, reg *metrics.Registry) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:       capacity,
		m:         make(map[planKey]*planEntry, capacity),
		hits:      reg.Counter("plan.cache.hits"),
		misses:    reg.Counter("plan.cache.misses"),
		evictions: reg.Counter("plan.cache.evictions"),
		size:      reg.Gauge("plan.cache.size"),
	}
}

// planKeyFor builds the key a statement text has for a State — its
// catalog version and its copy of the options — and a session's range
// declarations (see planRetrieve).
func planKeyFor(es *exec.State, sem *sema.Session, text string) planKey {
	return planKey{
		text:   text,
		catVer: es.Catalog().Version(),
		optsFP: es.Options().Fingerprint(),
		ranges: rangesFingerprint(sem),
	}
}

// rangesFingerprint renders a session's range declarations into a stable
// string: sorted "name=decl" pairs. Sessions redeclaring a range variable
// get distinct keys; sessions with identical declarations share entries.
func rangesFingerprint(sess *sema.Session) string {
	if len(sess.Ranges) == 0 {
		return ""
	}
	names := make([]string, 0, len(sess.Ranges))
	for name := range sess.Ranges {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+"="+ast.Print(sess.Ranges[name]))
	}
	return strings.Join(parts, ";")
}

// get returns the entry for the key, or nil. last, when not nil, is an
// entry the caller was served earlier: if it still answers to the key
// it is the hit, found without the lock or the map.
//
// extra:acquires plancache.mu.R
func (pc *planCache) get(key planKey, last *planEntry) *planEntry {
	e := last
	if e == nil || e.key != key {
		pc.mu.RLock()
		e = pc.m[key]
		pc.mu.RUnlock()
	}
	if e == nil {
		pc.misses.Inc()
		return nil
	}
	pc.hits.Inc()
	return e
}

// put inserts a freshly planned and compiled statement, evicting the
// oldest entry at capacity, and returns the entry now cached under the
// key. The stored plan is a Cached=true clone: the inserting statement
// keeps executing its own unmarked plan, and all later hits share the
// immutable marked copy.
//
// extra:acquires plancache.mu.W
func (pc *planCache) put(key planKey, cq *sema.CheckedRetrieve, plan *algebra.Plan, prog *exec.Program) *planEntry {
	marked := plan.Clone()
	marked.Cached = true
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, dup := pc.m[key]; dup {
		return e // a concurrent reader planned the same statement; keep theirs
	}
	for len(pc.m) >= pc.cap && len(pc.fifo) > 0 {
		old := pc.fifo[0]
		pc.fifo = pc.fifo[1:]
		if _, ok := pc.m[old]; ok {
			delete(pc.m, old)
			pc.evictions.Inc()
		}
	}
	e := &planEntry{key: key, cq: cq, plan: marked, prog: prog}
	pc.m[key] = e
	pc.fifo = append(pc.fifo, key)
	pc.size.Set(int64(len(pc.m)))
	return e
}

// peek is get without counter traffic, for EXPLAIN: an explain is not an
// execution, so it must not skew the hit ratio.
//
// extra:acquires plancache.mu.R
func (pc *planCache) peek(key planKey) *planEntry {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return pc.m[key]
}

// len returns the live entry count (tests).
//
// extra:acquires plancache.mu.R
func (pc *planCache) len() int {
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	return len(pc.m)
}
