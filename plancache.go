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
	"repro/internal/types"
	"repro/internal/value"
)

// planCache is the engine-wide compiled-statement cache: a map from a
// retrieve's shape to its checked form and optimized plan, so a
// statement executed repeatedly (the OLTP shape the paper's application
// interfaces generate) pays parse/check/plan once and a map hit
// thereafter.
//
// A shape is the printed statement with its parameter slots and their
// types (planKeyText). An ad-hoc statement's comparison literals are
// lifted into slots first (liftLiterals), so "E.name = \"Smith\"" and
// "E.name = \"Jones\"" are one entry, shared with a prepared
// "E.name = $1" whose slot has the same type.
//
// The key embeds everything planning reads besides the statement text:
//
//   - the catalog version, bumped by every DDL statement — a schema change
//     invalidates the whole cache at once without enumerating entries;
//   - the session's range-declaration fingerprint, because "retrieve
//     (E.name)" means different things after "range of E is ..." changes.
//
// It is the engine's only plan memo: ad-hoc statements, prepared
// statements ($n placeholders included) and EXPLAIN ANALYZE all reach it
// through Session.planRetrieve, which also says what is not cacheable.
//
// In front of the parser the cache keeps a memo of the raw texts of
// read-only statements: a repeated text skips parsing, and then lifting
// and keying run on the memoized statement, which nothing mutates (the
// lifter copies on write). A parse depends on the ADT registry, so an
// entry answers only under the registry version it was parsed under.
// The memo is bounded and evicts FIFO like the plans.
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
	// texts is the raw-text memo, textFIFO its insertion order.
	texts    map[string]parsedText
	textFIFO []string

	hits, misses, evictions *metrics.Counter
	size                    *metrics.Gauge
}

type planKey struct {
	text   string
	catVer uint64
	ranges string
}

type planEntry struct {
	key  planKey
	cq   *sema.CheckedRetrieve
	plan *algebra.Plan
	prog *exec.Program
}

// parsedText is a memoized parse: the statements and the ADT registry
// version they were parsed under.
type parsedText struct {
	stmts  []ast.Statement
	regVer uint64
}

const defaultPlanCacheCap = 256

func newPlanCache(capacity int, reg *metrics.Registry) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:       capacity,
		m:         make(map[planKey]*planEntry, capacity),
		texts:     make(map[string]parsedText, capacity),
		hits:      reg.Counter("plan.cache.hits"),
		misses:    reg.Counter("plan.cache.misses"),
		evictions: reg.Counter("plan.cache.evictions"),
		size:      reg.Gauge("plan.cache.size"),
	}
}

// planKeyFor builds the key a statement text has for a State — its
// catalog version — and a session's range declarations (see
// planRetrieve).
func planKeyFor(es *exec.State, sem *sema.Session, text string) planKey {
	return planKey{
		text:   text,
		catVer: es.Catalog().Version(),
		ranges: rangesFingerprint(sem),
	}
}

// planKeyText is the text component of a retrieve's planKey: the
// printed statement, then the type of each parameter slot, which its
// checked tree depends on as much as on the text. Ad-hoc statements and
// Prepare build it here, so equal shapes with equal slot types share
// one entry.
func planKeyText(st *ast.Retrieve, slots []types.Type) string {
	text := ast.Print(st)
	if len(slots) == 0 {
		return text
	}
	var b strings.Builder
	b.WriteString(text)
	for _, t := range slots {
		b.WriteByte(0)
		if t != nil { // an untyped prepared slot
			b.WriteString(t.String())
		}
	}
	return b.String()
}

// liftLiterals turns an ad-hoc retrieve into its shape: in the where
// clause, every comparison (= != < <= > >=) with a path on one side and
// an int, float or string literal directly on the other gets the
// literal replaced by the next $n slot. A slot is typed by its literal's
// own type and carries its value (sema.Literal), so the shape checks,
// keys an index and evaluates exactly as the literal form. Null,
// boolean, negated and ADT-call literals stay in the text. It returns
// the shape, the literals' values and types by slot, and st itself,
// unmodified, when there is nothing to lift — or when the statement has
// $n placeholders of its own, which a frame of literals must not bind.
func liftLiterals(st *ast.Retrieve) (*ast.Retrieve, []value.Value, []types.Type) {
	var l lifter
	where := l.expr(st.Where)
	if len(l.vals) == 0 || hasPlaceholder(st) {
		return st, nil, nil
	}
	shape := *st
	shape.Where = where
	return &shape, l.vals, l.types
}

// lifter rewrites a where clause copy-on-write, collecting the lifted
// literals in slot order.
type lifter struct {
	vals  []value.Value
	types []types.Type
}

func (l *lifter) expr(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Binary:
		lhs, rhs := l.expr(x.L), l.expr(x.R)
		switch x.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			if _, isPath := lhs.(*ast.Path); isPath {
				rhs = l.slot(rhs)
			} else if _, isPath := rhs.(*ast.Path); isPath {
				lhs = l.slot(lhs)
			}
		}
		if lhs == x.L && rhs == x.R {
			return x
		}
		b := *x
		b.L, b.R = lhs, rhs
		return &b
	case *ast.Unary:
		if y := l.expr(x.X); y != x.X {
			u := *x
			u.X = y
			return &u
		}
	}
	return e
}

// hasPlaceholder reports whether a retrieve mentions a $n anywhere.
func hasPlaceholder(st *ast.Retrieve) bool {
	found := false
	see := func(e ast.Expr) {
		if _, ok := e.(*ast.Placeholder); ok {
			found = true
		}
	}
	for _, t := range st.Targets {
		ast.WalkExpr(t.Expr, see)
	}
	for _, b := range st.From {
		ast.WalkExpr(b.Src, see)
	}
	ast.WalkExpr(st.Where, see)
	return found
}

// slot replaces a literal operand by the next slot.
func (l *lifter) slot(e ast.Expr) ast.Expr {
	k, ok := sema.Literal(e)
	if !ok {
		return e
	}
	l.vals = append(l.vals, k.Val)
	l.types = append(l.types, k.T)
	line, col := e.Pos()
	return &ast.Placeholder{Position: ast.Position{Line: line, Col: col}, N: len(l.vals)}
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

// parsed returns the memoized parse of src under registry version
// regVer.
//
// extra:acquires plancache.mu.R
func (pc *planCache) parsed(src string, regVer uint64) ([]ast.Statement, bool) {
	pc.mu.RLock()
	p, ok := pc.texts[src]
	pc.mu.RUnlock()
	if !ok || p.regVer != regVer {
		return nil, false
	}
	return p.stmts, true
}

// putParsed memoizes the parse of a read-only statement's text,
// evicting the oldest text at capacity.
//
// extra:acquires plancache.mu.W
func (pc *planCache) putParsed(src string, regVer uint64, stmts []ast.Statement) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, dup := pc.texts[src]; !dup {
		for len(pc.texts) >= pc.cap && len(pc.textFIFO) > 0 {
			delete(pc.texts, pc.textFIFO[0])
			pc.textFIFO = pc.textFIFO[1:]
		}
		pc.textFIFO = append(pc.textFIFO, src)
	}
	pc.texts[src] = parsedText{stmts: stmts, regVer: regVer}
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
