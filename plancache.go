package extra

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/excess/ast"
	"repro/internal/excess/sema"
	"repro/internal/excess/token"
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
// In front of the parser the cache keeps one bounded memo of read-only
// retrieves under two kinds of key (memoEntry). An exact text maps to
// the statement's lifted shape, its literals and its key text, so a
// repeated text is neither scanned, lifted nor printed. A token shape —
// the text's tokens with its int, float and string literals abstracted
// (appendShapeKey) — maps to the statement parsed from the first text of that
// shape and a mask saying, per literal token, which slot it fills or
// which text it must have; a text with fresh literals is scanned once
// and its literals become the frame, with no parse, lift or print. A
// parse depends on the ADT registry, so an entry answers only under the
// registry version it was parsed under; anything else the memo cannot
// answer exactly (a fixed literal that differs, an int that overflows)
// takes the full path. The memo evicts in FIFO order, except that an
// entry used since it was last passed gets a second pass.
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
	// memo is the front-end memo, memoFIFO its insertion order.
	memo     map[string]*memoEntry
	memoFIFO []*memoEntry

	hits, misses, evictions *metrics.Counter
	size                    *metrics.Gauge
	// The memo's traffic: texts answered exactly, texts answered by
	// their token shape, and texts that went to the parser.
	textHits, shapeHits, memoMisses *metrics.Counter
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

// memoEntry is the memo's knowledge of one read-only retrieve, parsed
// under ADT registry version regVer. A text entry's key is the text and
// its adhoc carries the text's literals. A shape entry's key is a token
// shape; its statement and adhoc are the first such text's, and mask has
// one element per literal token of the shape, in text order. Entries
// are shared by every hit and never mutated, except for used.
type memoEntry struct {
	key    string
	regVer uint64
	stmts  []ast.Statement // the one *ast.Retrieve
	lifted []*adhoc        // its lifted form
	mask   []litMask       // shape entries only
	// used is set by a hit; eviction clears it and passes the entry over
	// once.
	used atomic.Bool
}

// litMask is what a shape entry knows of one literal token: the slot it
// fills (1-based), or, for a literal left in the statement (slot 0), the
// text it must have.
type litMask struct {
	slot int
	text string
}

// adhoc is a cacheable ad-hoc retrieve as the front end lifted it: the
// statement it was parsed as, its shape with the literals in slots, the
// slots' types, the shape's plan-key text (planKeyText) and the
// literals' values by slot. planRetrieve serves it without lifting or
// printing.
type adhoc struct {
	st      *ast.Retrieve
	shape   *ast.Retrieve
	slots   []types.Type
	keyText string
	frame   []value.Value
}

// shapePrefix begins every shape key. No statement text begins with it
// (it scans as an error), so one map holds both kinds of key.
const shapePrefix = 0

const defaultPlanCacheCap = 256

func newPlanCache(capacity int, reg *metrics.Registry) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{
		cap:        capacity,
		m:          make(map[planKey]*planEntry, capacity),
		memo:       make(map[string]*memoEntry, capacity),
		hits:       reg.Counter("plan.cache.hits"),
		misses:     reg.Counter("plan.cache.misses"),
		evictions:  reg.Counter("plan.cache.evictions"),
		size:       reg.Gauge("plan.cache.size"),
		textHits:   reg.Counter("parse.memo.text_hits"),
		shapeHits:  reg.Counter("parse.memo.shape_hits"),
		memoMisses: reg.Counter("parse.memo.misses"),
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
//
// toks is the text st was parsed from. A literal is lifted only when it
// stands at a literal token's position — a folded negative literal
// stands at its minus sign — and the mask records, per literal token,
// the slot it went to or the text it kept: what a text of the same
// token shape needs to be lifted without a parse (memoEntry).
func liftLiterals(st *ast.Retrieve, toks []token.Token) (*ast.Retrieve, []value.Value, []types.Type, []litMask) {
	l := lifter{toks: toks}
	for _, t := range toks {
		if isLiteral(t.Kind) {
			l.mask = append(l.mask, litMask{text: t.Text})
		}
	}
	if hasPlaceholder(st) {
		return st, nil, nil, l.mask
	}
	where := l.expr(st.Where)
	if len(l.vals) == 0 {
		return st, nil, nil, l.mask
	}
	shape := *st
	shape.Where = where
	return &shape, l.vals, l.types, l.mask
}

// lifter rewrites a where clause copy-on-write, collecting the lifted
// literals in slot order and marking their tokens in the mask.
type lifter struct {
	toks  []token.Token
	mask  []litMask
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
	line, col := e.Pos()
	i := l.literalToken(line, col)
	if i < 0 {
		return e
	}
	l.vals = append(l.vals, k.Val)
	l.types = append(l.types, k.T)
	l.mask[i] = litMask{slot: len(l.vals)}
	return &ast.Placeholder{Position: ast.Position{Line: line, Col: col}, N: len(l.vals)}
}

// literalToken returns the index in the mask of the literal token at a
// position, or -1 when no literal token starts there.
func (l *lifter) literalToken(line, col int) int {
	i := 0
	for _, t := range l.toks {
		if !isLiteral(t.Kind) {
			continue
		}
		if t.Line == line && t.Col == col {
			return i
		}
		i++
	}
	return -1
}

func isLiteral(k token.Kind) bool {
	return k == token.INT || k == token.FLOAT || k == token.STRING
}

// appendShapeKey appends the token shape of a scanned text to key: a
// keyword by its kind (keywords are case-insensitive), an identifier or
// operator by its text, a literal by its kind alone. Every token is its
// kind's byte, and an identifier's or operator's text ends with a 0 byte,
// which neither contains, so equal keys are equal token shapes.
func appendShapeKey(key []byte, toks []token.Token) []byte {
	key = append(key, shapePrefix)
	for _, t := range toks {
		key = append(key, byte(t.Kind))
		if t.Kind == token.IDENT || t.Kind == token.OP {
			key = append(key, t.Text...)
			key = append(key, 0)
		}
	}
	return key
}

// instantiate lifts a text of the shape entry's token shape without
// parsing it: each literal token the mask gives a slot becomes that
// slot's value, and every other literal token must be spelled as the
// first text's was. ok is false when the text needs the full path: a
// kept literal differs, or a literal does not convert as the parser
// would take it (an int that overflows).
func (e *memoEntry) instantiate(toks []token.Token) (ad *adhoc, ok bool) {
	first := e.lifted[0]
	var frame []value.Value
	if len(first.slots) > 0 {
		frame = make([]value.Value, len(first.slots))
	}
	i := 0
	for _, t := range toks {
		if !isLiteral(t.Kind) {
			continue
		}
		m := e.mask[i]
		i++
		if m.slot == 0 {
			if t.Text != m.text {
				return nil, false
			}
			continue
		}
		if frame[m.slot-1], ok = literalValue(t); !ok {
			return nil, false
		}
	}
	return &adhoc{st: first.st, shape: first.shape, slots: first.slots, keyText: first.keyText, frame: frame}, true
}

// literalValue converts a literal token as the parser and sema.Literal
// do: an int to int4, a float to float8, a string to varchar.
func literalValue(t token.Token) (value.Value, bool) {
	switch t.Kind {
	case token.INT:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		return value.NewInt(v), err == nil
	case token.FLOAT:
		v, err := strconv.ParseFloat(t.Text, 64)
		return value.NewFloat(v), err == nil
	}
	return value.NewStr(t.Text), true
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

// memoText returns the text entry for src under registry version
// regVer, or nil.
//
// extra:acquires plancache.mu.R
func (pc *planCache) memoText(src string, regVer uint64) *memoEntry {
	pc.mu.RLock()
	e := pc.memo[src]
	pc.mu.RUnlock()
	return e.answer(regVer, false)
}

// memoShape returns the shape entry for a shape key under registry
// version regVer, or nil. The key is the caller's buffer; the probe does
// not copy it.
//
// extra:acquires plancache.mu.R
func (pc *planCache) memoShape(key []byte, regVer uint64) *memoEntry {
	pc.mu.RLock()
	e := pc.memo[string(key)]
	pc.mu.RUnlock()
	return e.answer(regVer, true)
}

// answer returns e when it answers a lookup of its kind under regVer,
// marking it used.
func (e *memoEntry) answer(regVer uint64, shape bool) *memoEntry {
	if e == nil || e.regVer != regVer || (e.key[0] == shapePrefix) != shape {
		return nil
	}
	if !e.used.Load() {
		e.used.Store(true)
	}
	return e
}

// memoize inserts an entry, replacing one parsed under another registry
// version and evicting at capacity: the oldest entry goes, unless it was
// used since it was last passed, when it goes to the back instead.
//
// extra:acquires plancache.mu.W
func (pc *planCache) memoize(e *memoEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if old, dup := pc.memo[e.key]; dup && old.regVer == e.regVer {
		return // a concurrent statement memoized the same key; keep theirs
	}
	for len(pc.memo) >= pc.cap && len(pc.memoFIFO) > 0 {
		old := pc.memoFIFO[0]
		pc.memoFIFO = pc.memoFIFO[1:]
		if pc.memo[old.key] != old {
			continue // replaced under a newer registry version
		}
		if old.used.Swap(false) {
			pc.memoFIFO = append(pc.memoFIFO, old)
			continue
		}
		delete(pc.memo, old.key)
	}
	pc.memo[e.key] = e
	pc.memoFIFO = append(pc.memoFIFO, e)
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
