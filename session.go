package extra

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/authz"
	"repro/internal/catalog"
	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/scan"
	"repro/internal/excess/sema"
	"repro/internal/excess/token"
	"repro/internal/exec"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/value"
)

// Session is one client's connection-like handle on a DB: its own user
// identity, its own persistent range declarations, and its own slow-query
// attribution. Sessions are cheap; a server would create one per
// connection. Statements from different sessions run concurrently when
// they are read-only (retrieve without into) — the DB classifies each
// statement through the sema layer: reads pin an immutable store
// snapshot and execute against it without holding any lock, writes
// serialize on the DB's write lock.
//
// A single Session may also be used from multiple goroutines. Its user
// and its range declarations are values replaced whole (SetUser, a
// range declaration), so a statement reads each once and keeps what it
// read.
type Session struct {
	db   *DB
	id   int64
	user atomic.Pointer[string]
	sem  atomic.Pointer[sema.Session]
}

// NewSession returns a new session with its own range-declaration table
// and user identity (initially "dba"). The zero-cost way to run read
// statements in parallel: one session per goroutine.
func (db *DB) NewSession() *Session { return newSession(db, db.nextSession.Add(1)) }

func newSession(db *DB, id int64) *Session {
	s := &Session{db: db, id: id}
	s.setUser("dba")
	s.sem.Store(sema.NewSession())
	return s
}

func (s *Session) setUser(name string) { s.user.Store(&name) }

// ID returns the session's identifier (0 is the DB's default session);
// slow-query log entries carry it for per-session attribution.
func (s *Session) ID() int64 { return s.id }

// SetUser switches the session's current user; statements that start
// afterwards run with that user's privileges.
func (s *Session) SetUser(name string) error {
	if !s.db.Catalog().Auth().UserExists(name) {
		return fmt.Errorf("no user %s", name)
	}
	s.setUser(name)
	return nil
}

// CurrentUser returns the session's user.
func (s *Session) CurrentUser() string { return *s.user.Load() }

// allReadOnly reports whether every statement of a batch can run on the
// snapshot read path.
func allReadOnly(stmts []ast.Statement) bool {
	for _, st := range stmts {
		if !sema.ReadOnly(st) {
			return false
		}
	}
	return true
}

// stmtCall is one trip through the statement pipeline. Every entry
// point — Exec and Query after parsing, Stmt.Exec after binding its
// arguments, EXPLAIN ANALYZE, WAL replay after re-parsing — fills in
// the first group of fields and hands the call to Session.run; the
// second group is the pipeline's own state while the call runs.
type stmtCall struct {
	stmts    []ast.Statement
	src      string        // as the caller wrote it: traces and the slow log quote it
	start    time.Time     // when the source arrived: the root span and stmt.latency start here
	parseDur time.Duration // zero for a prepared statement
	params   *paramScope   // $n arguments (prepared, replayed) or a procedure frame
	prepared *Stmt         // set by Stmt.Exec: key text and the retained plan entry
	analysis *analysis     // set by EXPLAIN ANALYZE: run instrumented and keep the plan
	// lifted holds the ad-hoc retrieves the front end lifted for the plan
	// cache (Session.parse); memoized says stmts came from the memo, where
	// a statement may be another text's parse of the same token shape.
	lifted   []*adhoc
	memoized bool
	scanned  *tokenBuf // the text's tokens when the front end scanned it; pooled again when the call ends

	es   *exec.State
	tr   trace.StmtTrace
	user string // the user the call runs as: the session's when it opened, a procedure's owner in its body
	lsn  uint64 // highest WAL position the call appended at
}

// open gives the call the session's user and an execution State.
func (c *stmtCall) open(s *Session) {
	c.user = s.CurrentUser()
	c.es = s.db.exec.NewState()
	c.es.SetTrace(c.tr.Active())
}

// Exec parses and runs one or more EXCESS statements, returning the
// result of the last retrieve (nil if none). Parsing happens before any
// lock is taken (it only reads the ADT registry). An all-read-only batch takes the MVCC snapshot path and runs
// concurrently with writers; a batch with any write statement
// serializes on the write lock.
func (s *Session) Exec(src string) (*Result, error) {
	c := stmtCall{src: src, start: time.Now()}
	if err := s.parse(&c); err != nil {
		c.release()
		s.db.cErrors.Inc()
		return nil, err
	}
	c.parseDur = time.Since(c.start)
	return s.run(&c)
}

// run is the statement envelope, the one place a statement is traced,
// classified, locked, accounted and made durable, whichever entry point
// it came through.
//
// An all-read-only batch runs under MVCC: each statement pins the
// store's latest published snapshot — data, schema and grants in one
// atomic load — and plans and executes against it without a lock
// (runReadStmt), so a reader never waits behind a bulk update or a DDL
// statement and holds nothing a writer waits on. Any other batch holds
// the write lock throughout; each statement reads the store's frozen
// view, mutates the working store, publishes a fresh snapshot when it
// completes and is appended to the WAL (runWriteStmt), so
// concurrent snapshot readers observe the batch statement by statement
// and never a torn statement. The durability wait happens after the
// lock is released: that hand-off is what lets concurrent committers
// share one fsync (group commit).
//
// extra:acquires db.wmu.W
func (s *Session) run(c *stmtCall) (*Result, error) {
	defer c.release()
	db := s.db
	kind := "batch"
	if len(c.stmts) == 1 {
		kind = sema.KindOf(c.stmts[0])
	}
	c.tr.Begin(db.tracer, c.start)
	c.tr.RecordPhase(trace.PhaseParse, c.start, c.parseDur)
	readOnly := allReadOnly(c.stmts)
	var last *Result
	err := func() error {
		if !readOnly {
			db.wmu.Lock()
			defer db.wmu.Unlock()
			if db.closed.Load() {
				return errDBClosed
			}
			c.open(s)
		}
		return s.labeled(kind, func() error {
			for _, st := range c.stmts {
				var r *Result
				var err error
				if readOnly {
					r, err = s.runReadStmt(c, st)
				} else {
					r, err = s.runWriteStmt(c, st)
				}
				if err != nil {
					return err
				}
				if r != nil {
					last = r
				}
			}
			return nil
		})
	}()
	if c.es != nil {
		c.es.Release()
	}
	if derr := db.waitDurable(c.lsn); derr != nil && err == nil {
		err = derr
	}
	if err != nil {
		// Use-after-close is a caller bug, not a statement failure:
		// counting it would conflate it with real statement errors in the
		// metrics. Its trace is sealed like any other.
		if !errors.Is(err, errDBClosed) {
			db.cErrors.Inc()
		}
	} else if last != nil {
		c.tr.Rows = len(last.Rows)
	}
	db.finishTrace(s.id, c.user, c.src, kind, &c.tr, c.start, err)
	if err != nil {
		return nil, err
	}
	return last, nil
}

// runWriteStmt runs one statement of a write batch — its reads bound to
// the store's frozen view of every earlier statement's writes, its
// writes to the working store —, publishes the resulting store
// snapshot, and appends the statement to the WAL.
// Publication happens even when the statement errors: the engine has no
// rollback, so whatever the statement wrote before failing is live
// state and must become visible to snapshot readers exactly as it is to
// the next write statement (such statements are logged with the Erred
// flag — their partial effects are durable state too). A DDL statement
// edits the working catalog, which only writers see; the snapshot
// publishes it together with the data, so no reader ever pairs a
// catalog with data of another version. The call remembers the LSN it
// logged at; run awaits durability after releasing the write lock.
//
// extra:requires db.wmu.W
// extra:mutates
func (s *Session) runWriteStmt(c *stmtCall, st ast.Statement) (*Result, error) {
	db := s.db
	// Size the WAL record before running the statement: one the log
	// cannot hold refuses the statement here, with nothing mutated and
	// nothing published (the engine has no rollback to undo with).
	rec, rerr := db.stmtRecord(s.id, c.user, st, c.params)
	if rerr != nil {
		return nil, rerr
	}
	c.es.BindLive()
	r, err := s.runStmt(c, st)
	freeze := c.tr.Active().StartSpan(trace.KindStorage, "commit.freeze")
	published, cerr := db.store.Commit()
	c.tr.Active().EndSpan(freeze)
	if cerr != nil && err == nil {
		err = cerr
	}
	lsn, lerr := db.logStmt(rec, err, published)
	if lerr != nil && err == nil {
		err = lerr
	}
	if lsn > c.lsn {
		c.lsn = lsn
	}
	return r, err
}

// runReadStmt runs one read-only statement (a retrieve without an into
// clause — the only read-classified kind) against a pinned snapshot.
// Pinning is one atomic load, and the snapshot carries its catalog and
// grants: the plan-cache lookup, check, authorization, planning,
// closure compilation and execution all agree on one version of data
// and schema with no lock held. A call's first statement also opens
// it.
//
// extra:snapshot
func (s *Session) runReadStmt(c *stmtCall, st ast.Statement) (*Result, error) {
	db := s.db
	r, ok := st.(*ast.Retrieve)
	if !ok {
		return nil, fmt.Errorf("unhandled read statement %T", st)
	}
	if db.closed.Load() {
		return nil, errDBClosed
	}
	if c.es == nil {
		c.open(s)
	}
	db.cKind[sema.KindOf(st)].Inc()
	c.es.BindSnapshot(db.store.Snapshot())
	if c.tr.Sampled() {
		c.tr.Active().AttrInt(0, "snapshot.version", int64(c.es.SnapshotVersion()))
	}
	cr, err := s.planRetrieve(c, r)
	if err != nil {
		return nil, err
	}
	return s.execPlan(c, cr)
}

// analysis is what EXPLAIN ANALYZE keeps of a retrieve's instrumented
// run: the private plan clone carrying the runtime actuals.
type analysis struct {
	plan       *algebra.Plan
	aggregated bool
}

// compiledRetrieve is a retrieve ready to run: its checked form, plan
// and program, and the parameter frame the program reads — the call's
// arguments, or the literals planRetrieve lifted into slots (lifted).
type compiledRetrieve struct {
	cq     *sema.CheckedRetrieve
	plan   *algebra.Plan
	prog   *exec.Program
	frame  []value.Value
	lifted bool
}

// execPlan runs a compiled retrieve against whatever the call's State
// is bound to — on the read path no engine lock is held, so however
// long the scan runs, writers proceed.
// Sampled statements and EXPLAIN ANALYZE run instrumented: the plan's
// runtime actuals become operator spans after the run. EnableRuntime
// mutates the plan, and cached plans are shared by concurrent
// statements, so the instrumented run uses a private clone; the clone
// keeps the nodes' positions, so it runs the program compiled for the
// original. The clone of a lifted shape carries the call's literals, so
// it explains as the statement that was typed.
func (s *Session) execPlan(c *stmtCall, cr compiledRetrieve) (*Result, error) {
	plan := cr.plan
	var rt *algebra.PlanRuntime
	if c.tr.Sampled() || c.analysis != nil {
		plan = plan.Clone()
		if cr.lifted {
			plan.Args = cr.frame
		}
		rt = plan.EnableRuntime()
	}
	pt := c.tr.StartPhase(trace.PhaseExecute)
	if cr.frame != nil {
		c.es.PushFrame(cr.frame)
	}
	res, err := c.es.RetrieveProgram(cr.cq, plan, cr.prog)
	if cr.frame != nil {
		c.es.PopParams()
	}
	if rt != nil {
		if c.tr.Sampled() {
			addRetrieveSpans(&c.tr, pt, plan, rt)
		}
		if c.analysis != nil {
			*c.analysis = analysis{plan: plan, aggregated: cr.cq.Aggregated}
		}
	}
	c.tr.EndPhase(pt)
	return res, err
}

// planRetrieve is the retrieve-compile step: the only place a planKey
// is built for execution, the plan cache consulted and filled, and a
// retrieve checked, authorized, planned and compiled to its program.
// The key, the check, the plan and the authorization all read the
// catalog the call's State is bound to — a reader's snapshot catalog,
// or the working catalog under the commit lock — and the session's
// range declarations as read once here, so they agree on one catalog
// version. A hit skips check, plan and compile entirely; authorization
// still runs on every execution — privileges change without bumping the
// catalog.
//
// A retrieve without an into clause is served from the cache (into
// creates schema and is never repeated), ad hoc or prepared; inside a
// procedure frame it is not, because the checked tree captures the
// frame's parameter types. An ad-hoc statement is cached as the shape
// the front end lifted (adhoc): its comparison literals are typed slots
// and the program reads them from a frame of their values, so a fresh
// literal is a hit. A shape that does not check is checked again as
// typed, so its error quotes the statement the caller wrote — parsed
// from the caller's text when the memo served another text's parse. A
// prepared statement brings its pre-printed key text and the entry it
// was last served, which spares it the map probe and keeps its plan out
// of reach of FIFO eviction.
func (s *Session) planRetrieve(c *stmtCall, st *ast.Retrieve) (compiledRetrieve, error) {
	db := s.db
	sem := s.sem.Load()
	cr := compiledRetrieve{frame: c.params.valuesOrNil()}
	var key planKey
	var last, e *planEntry
	useCache := st.Into == ""
	shape, slots := st, []types.Type(nil)
	switch ad := c.liftedFor(st); {
	case !useCache:
	case c.prepared != nil:
		key, last = planKeyFor(c.es, sem, c.prepared.keyText), c.prepared.last.Load()
	case ad != nil:
		shape, slots = ad.shape, ad.slots
		cr.frame, cr.lifted = ad.frame, ad.frame != nil
		key = planKeyFor(c.es, sem, ad.keyText)
	default: // a procedure body's retrieve
		useCache = false
	}
	if useCache {
		e = db.plans.get(key, last)
	}
	if e != nil {
		if err := c.authQuery(e.cq.Query, nil, targetExprs(e.cq)...); err != nil {
			return compiledRetrieve{}, err
		}
		if c.prepared != nil && e != last {
			c.prepared.last.Store(e)
		}
		cr.cq, cr.plan, cr.prog = e.cq, e.plan, e.prog
		return cr, nil
	}
	frame := c.params.frameOrNil()
	if cr.lifted {
		frame = placeholderFrame(slots, len(slots))
	}
	pt := c.tr.StartPhase(trace.PhaseCheck)
	cq, err := sema.NewFrameChecker(c.es.Catalog(), sem, frame).CheckRetrieve(shape)
	if err != nil && (shape != st || c.memoized) {
		// The shape did not check: check and run the statement as typed,
		// uncached, so an error quotes what the caller wrote.
		cr.frame, cr.lifted, useCache = nil, false, false
		typed := st
		if c.memoized {
			typed, err = s.reparse(c)
		}
		if err == nil {
			cq, err = sema.NewFrameChecker(c.es.Catalog(), sem, nil).CheckRetrieve(typed)
		}
	}
	c.tr.EndPhase(pt)
	if err != nil {
		return compiledRetrieve{}, err
	}
	if err := c.authQuery(cq.Query, nil, targetExprs(cq)...); err != nil {
		return compiledRetrieve{}, err
	}
	pt = c.tr.StartPhase(trace.PhasePlan)
	plan := c.es.Plan(cq.Query)
	c.tr.EndPhase(pt)
	pt = c.tr.StartPhase(trace.PhaseCompile)
	prog := c.es.CompilePlan(cq, plan)
	c.tr.EndPhase(pt)
	if useCache {
		e = db.plans.put(key, cq, plan, prog)
		if c.prepared != nil {
			c.prepared.last.Store(e)
		}
	}
	cr.cq, cr.plan, cr.prog = cq, plan, prog
	return cr, nil
}

// liftedFor returns the front end's lifted form of one of the call's
// statements, or nil.
func (c *stmtCall) liftedFor(st *ast.Retrieve) *adhoc {
	for _, ad := range c.lifted {
		if ad.st == st {
			return ad
		}
	}
	return nil
}

// labeled runs fn, attaching runtime/pprof labels (session, stmt_kind)
// when the ops plane enabled statement labeling — CPU profiles then
// attribute samples to query shapes. Off (the default), it is a direct
// call.
func (s *Session) labeled(kind string, fn func() error) error {
	if !s.db.labelStmts.Load() {
		return fn()
	}
	var err error
	pprof.Do(context.Background(),
		pprof.Labels("session", strconv.FormatInt(s.id, 10), "stmt_kind", kind),
		func(context.Context) { err = fn() })
	return err
}

// Query is Exec for a single retrieve; it errors when the source is not
// exactly one retrieve statement. A retrieve without an into clause
// runs on the snapshot path, concurrently with writers and other
// readers; a retrieve into materializes a new variable and takes the
// write path.
func (s *Session) Query(src string) (*Result, error) {
	c, err := s.parseRetrieve(src, "query: %w (use Exec for updates and DDL)")
	if err != nil {
		return nil, err
	}
	return s.run(&c)
}

// parseRetrieve starts the call of an entry point that takes exactly
// one retrieve (Query, EXPLAIN ANALYZE); notRetrieve is how that entry
// point words ErrNotRetrieve.
func (s *Session) parseRetrieve(src, notRetrieve string) (stmtCall, error) {
	c := stmtCall{src: src, start: time.Now()}
	err := s.parse(&c)
	var st ast.Statement
	if err == nil {
		st, err = parse.Single(c.stmts)
	}
	c.parseDur = time.Since(c.start)
	if _, ok := st.(*ast.Retrieve); err == nil && !ok {
		err = fmt.Errorf(notRetrieve, ErrNotRetrieve)
	}
	if err != nil {
		c.release()
		s.db.cErrors.Inc()
		return stmtCall{}, err
	}
	return c, nil
}

// tokenBuf is the front end's scan buffer, pooled across statements:
// one text's tokens and its shape key.
type tokenBuf struct {
	toks []token.Token
	key  []byte
}

var tokenBufs = sync.Pool{New: func() any { return new(tokenBuf) }}

// release returns the call's scan buffer to the pool, unless a large
// batch grew it.
func (c *stmtCall) release() {
	if b := c.scanned; b != nil && cap(b.toks) <= 1024 {
		tokenBufs.Put(b)
	}
	c.scanned = nil
}

// parse is the front end: it reads the call's text into its statements
// and, for each cacheable ad-hoc retrieve among them, its lifted form
// (adhoc), consulting the plan cache's memo. A text seen before is
// answered by its text entry without a scan. Otherwise the text is
// scanned once: a text of a known token shape is answered by the shape
// entry, and any other goes to the parser with the tokens already
// scanned. A single read-only retrieve the parser read is memoized under
// both keys; a shape hit memoizes its text.
func (s *Session) parse(c *stmtCall) error {
	db := s.db
	pc := db.plans
	regVer := db.reg.Version()
	if e := pc.memoText(c.src, regVer); e != nil {
		pc.textHits.Inc()
		c.stmts, c.lifted, c.memoized = e.stmts, e.lifted, true
		return nil
	}
	buf := tokenBufs.Get().(*tokenBuf)
	c.scanned = buf
	toks, err := scan.Append(buf.toks[:0], c.src)
	buf.toks = toks
	if err != nil {
		pc.memoMisses.Inc()
		return err
	}
	var key []byte
	if toks[0].Kind == token.RETRIEVE {
		buf.key = appendShapeKey(buf.key[:0], toks)
		key = buf.key
		if e := pc.memoShape(key, regVer); e != nil {
			if ad, ok := e.instantiate(toks); ok {
				pc.shapeHits.Inc()
				t := &memoEntry{key: c.src, regVer: regVer, stmts: e.stmts, lifted: []*adhoc{ad}}
				pc.memoize(t)
				c.stmts, c.lifted, c.memoized = t.stmts, t.lifted, true
				return nil
			}
		}
	}
	pc.memoMisses.Inc()
	if c.stmts, err = db.parseTokens(toks); err != nil {
		return err
	}
	for _, st := range c.stmts {
		r, ok := st.(*ast.Retrieve)
		if !ok || r.Into != "" {
			continue
		}
		shape, frame, slots, mask := liftLiterals(r, toks)
		c.lifted = append(c.lifted, &adhoc{st: r, shape: shape, slots: slots, keyText: planKeyText(shape, slots), frame: frame})
		if len(c.stmts) == 1 {
			pc.memoize(&memoEntry{key: c.src, regVer: regVer, stmts: c.stmts, lifted: c.lifted})
			if key != nil {
				pc.memoize(&memoEntry{key: string(key), regVer: regVer, stmts: c.stmts, lifted: c.lifted, mask: mask})
			}
		}
	}
	return nil
}

// parseTokens parses a scanned text. Every statement text the engine
// parses goes through here, counted by parse.full.
func (db *DB) parseTokens(toks []token.Token) ([]ast.Statement, error) {
	db.cParses.Inc()
	return parse.FromTokens(toks, db.reg).All()
}

// parseOne scans and parses a text that holds exactly one statement.
func (db *DB) parseOne(src string) (ast.Statement, error) {
	toks, err := scan.All(src)
	if err != nil {
		return nil, err
	}
	return db.parseSingle(toks)
}

// parseSingle parses a scanned text that holds exactly one statement.
func (db *DB) parseSingle(toks []token.Token) (ast.Statement, error) {
	stmts, err := db.parseTokens(toks)
	if err != nil {
		return nil, err
	}
	return parse.Single(stmts)
}

// reparse parses the caller's own text for a call the memo answered
// with the statement of another text of its shape: from the tokens the
// front end scanned, when it scanned the text in this call.
func (s *Session) reparse(c *stmtCall) (*ast.Retrieve, error) {
	var st ast.Statement
	var err error
	if c.scanned != nil {
		st, err = s.db.parseSingle(c.scanned.toks)
	} else {
		st, err = s.db.parseOne(c.src)
	}
	if err != nil {
		return nil, err
	}
	r, ok := st.(*ast.Retrieve)
	if !ok {
		return nil, ErrNotRetrieve
	}
	return r, nil
}

// MustExec runs statements and panics on error; for examples and tests.
func (s *Session) MustExec(src string) *Result {
	r, err := s.Exec(src)
	if err != nil {
		panic(err)
	}
	return r
}

// MustQuery runs a retrieve and panics on error.
func (s *Session) MustQuery(src string) *Result {
	r, err := s.Query(src)
	if err != nil {
		panic(err)
	}
	return r
}

// runStmt dispatches one statement of a write batch (or a procedure
// body, whose call carries the procedure frame and an unsampled trace of
// its own) through the call's execution state, which the caller bound
// with BindLive: it reads the store's frozen view and mutates the
// working store. Callers hold the write lock for the whole call; the
// dispatch annotation keeps the lock checker cross-checking the arms
// against lint.StmtClass so a new statement kind cannot be dispatched
// without being classified. Read-only retrieves never arrive here from
// the entry points (they take runReadStmt's snapshot path); the
// Retrieve arm serves mixed batches, retrieve-into and procedure
// bodies, all of which see the earlier statements' writes through the
// view.
//
// extra:requires db.wmu.W
// extra:dispatch db.wmu sema.ReadOnly
func (s *Session) runStmt(c *stmtCall, st ast.Statement) (*Result, error) {
	db := s.db
	es, params := c.es, c.params
	cat := es.Catalog()
	db.cKind[sema.KindOf(st)].Inc()
	// Non-retrieve statements do not split phases; their whole cost
	// lands in the execute phase. Retrieves are timed per phase by
	// planRetrieve and execPlan.
	if _, isRet := st.(*ast.Retrieve); !isRet {
		pt := c.tr.StartPhase(trace.PhaseExecute)
		defer c.tr.EndPhase(pt)
	}
	switch st := st.(type) {
	case *ast.DefineType:
		_, err := cat.DefineTupleFromAST(st)
		if err == nil {
			cat.Auth().SetOwner(st.Name, c.user)
		}
		return nil, err
	case *ast.DefineEnum:
		return nil, cat.DefineEnum(&types.Enum{Name: st.Name, Labels: st.Labels})
	case *ast.Create:
		comp, err := cat.ResolveComponent(st.Comp)
		if err != nil {
			return nil, err
		}
		for _, key := range st.Keys {
			if _, err := object.KeyPaths(&catalog.Variable{Name: st.Name, Comp: comp}, key); err != nil {
				return nil, err
			}
		}
		v, err := cat.CreateVar(st.Name, comp)
		if err != nil {
			return nil, err
		}
		if err := db.store.InitVar(v); err != nil {
			return nil, err
		}
		for i, key := range st.Keys {
			if _, err := db.store.BuildKey(st.Name, key, i); err != nil {
				return nil, err
			}
		}
		cat.Auth().SetOwner(st.Name, c.user)
		return nil, nil
	case *ast.Drop:
		if err := cat.Auth().Check(c.user, st.Name, authz.Update); err != nil {
			return nil, err
		}
		v, ok := cat.Var(st.Name)
		if !ok {
			return nil, fmt.Errorf("no database variable %s", st.Name)
		}
		if err := db.store.DropVar(v); err != nil {
			return nil, err
		}
		return nil, cat.DropVar(st.Name)
	case *ast.DefineFunction:
		_, err := sema.BuildFunction(cat, s.sem.Load(), st)
		return nil, err
	case *ast.DefineProcedure:
		p, err := sema.BuildProcedure(cat, st)
		if err != nil {
			return nil, err
		}
		p.Owner = c.user
		return nil, cat.DefineProcedure(p)
	case *ast.DefineIndex:
		_, err := db.store.BuildIndex(st.Name, st.Extent, st.Path, st.Unique)
		return nil, err
	case *ast.RangeDecl:
		// Validate eagerly so "range of E is Nonexistent" fails here.
		probe := sema.NewFrameChecker(cat, sema.NewSession(), params.frameOrNil())
		if _, err := probe.ProbeRange(st); err != nil {
			return nil, err
		}
		s.sem.Store(s.sem.Load().With(st))
		return nil, nil
	case *ast.Grant:
		return nil, cat.Auth().Grant(c.user, st.Priv, st.On, st.To)
	case *ast.Revoke:
		return nil, cat.Auth().Revoke(c.user, st.Priv, st.On, st.From)
	case *ast.Retrieve:
		cr, err := s.planRetrieve(c, st)
		if err != nil {
			return nil, err
		}
		res, err := s.execPlan(c, cr)
		if err != nil {
			return nil, err
		}
		if cr.cq.Into != "" {
			cat.Auth().SetOwner(cr.cq.Into, c.user)
		}
		return res, nil
	case *ast.Append:
		ck := s.checker(cat, params)
		ca, err := ck.CheckAppend(st)
		if err != nil {
			return nil, err
		}
		wr := ca.Extent
		if wr == "" {
			wr = ca.OwnerVar
		}
		if err := c.authQuery(ca.Query, []string{wr}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return es.Append(ca) })
		return nil, err
	case *ast.Delete:
		ck := s.checker(cat, params)
		cd, err := ck.CheckDelete(st)
		if err != nil {
			return nil, err
		}
		if err := c.authQuery(cd.Query, []string{cd.Var.Extent}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return es.Delete(cd) })
		return nil, err
	case *ast.Replace:
		ck := s.checker(cat, params)
		cr, err := ck.CheckReplace(st)
		if err != nil {
			return nil, err
		}
		if err := c.authQuery(cr.Query, []string{cr.Var.Extent}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (int, error) { return es.Replace(cr) })
		return nil, err
	case *ast.SetStmt:
		ck := s.checker(cat, params)
		cs, err := ck.CheckSet(st)
		if err != nil {
			return nil, err
		}
		if err := c.authQuery(cs.Query, []string{cs.VarName}); err != nil {
			return nil, err
		}
		_, err = withParams(es, params, func() (*Result, error) { return nil, es.Set(cs) })
		return nil, err
	case *ast.Execute:
		return nil, s.runExecute(c, st)
	}
	return nil, fmt.Errorf("unhandled statement %T", st)
}

// checker returns a checker over the catalog and the session's range
// declarations as they stand.
func (s *Session) checker(cat *catalog.Catalog, params *paramScope) *sema.Checker {
	return sema.NewFrameChecker(cat, s.sem.Load(), params.frameOrNil())
}

// withParams runs fn with the call's parameter frame installed on the
// statement's execution state.
func withParams[T any](es *exec.State, params *paramScope, fn func() (T, error)) (T, error) {
	if params != nil {
		es.PushFrame(params.values)
		defer es.PopParams()
	}
	return fn()
}

// runExecute evaluates a procedure invocation: the body runs once per
// binding of the from/where clause with arguments as parameters. Each
// body statement binds a fresh view, so it reads what the earlier ones
// (and earlier runs of the body) wrote; the invocation still publishes
// once, when runWriteStmt commits it.
//
// extra:requires db.wmu.W
func (s *Session) runExecute(c *stmtCall, stmt *ast.Execute) error {
	es, params := c.es, c.params
	ck := s.checker(es.Catalog(), params)
	ce, err := ck.CheckExecute(stmt)
	if err != nil {
		return err
	}
	if err := c.authQuery(ce.Query, nil); err != nil {
		return err
	}
	pframe := sema.Frame(ce.Proc.Params)
	// Definer rights: the body runs with the owner's privileges, so a
	// procedure can encapsulate updates its caller could not perform
	// directly (the IDM stored-command pattern the paper builds data
	// abstraction from). The identity belongs to the body's call; the
	// session's user never changes.
	// Body statements run untraced (the body's call has a trace of its
	// own that nobody samples or reads): their cost is already inside the
	// invoking execute's span.
	body := stmtCall{es: es, user: c.user}
	if ce.Proc.Owner != "" {
		body.user = ce.Proc.Owner
	}
	_, err = withParams(es, params, func() (int, error) {
		return es.Execute(ce, func(frame []value.Value) error {
			body.params = &paramScope{frame: pframe, values: frame}
			for _, bodyStmt := range ce.Proc.Body {
				es.BindLive()
				if _, err := s.runStmt(&body, bodyStmt); err != nil {
					return fmt.Errorf("procedure %s: %w", ce.Proc.Name, err)
				}
			}
			return nil
		})
	})
	return err
}

// authQuery enforces select on every extent and database variable a
// query reads (range sources, whole-extent aggregates, variable reads in
// any expression) and update on the write targets, for the call's user
// against the grants of the call's catalog. Reads inside EXCESS
// function bodies are deliberately exempt — that exemption is the data
// abstraction mechanism of §4.2.3.
func (c *stmtCall) authQuery(q sema.Query, writes []string, exprs ...sema.Expr) error {
	auth := c.es.Catalog().Auth()
	reads := map[string]bool{}
	for _, v := range q.Vars {
		if v.Extent != "" {
			reads[v.Extent] = true
		}
	}
	collect := func(e sema.Expr) {
		sema.WalkExpr(e, func(x sema.Expr) {
			switch r := x.(type) {
			case *sema.DBVarRead:
				reads[r.Name] = true
			case *sema.ExtentSet:
				reads[r.Name] = true
			}
		})
	}
	collect(q.Where)
	for _, e := range exprs {
		collect(e)
	}
	for name := range reads {
		if err := auth.Check(c.user, name, authz.Select); err != nil {
			return err
		}
	}
	for _, w := range writes {
		if w == "" {
			continue
		}
		if err := auth.Check(c.user, w, authz.Update); err != nil {
			return err
		}
	}
	return nil
}
