// Package extra is a Go implementation of EXTRA and EXCESS — the data
// model and query language designed for the EXODUS extensible database
// system (Carey, DeWitt and Vandenberg, SIGMOD 1988).
//
// EXTRA provides tuple, set, fixed- and variable-length array and
// reference type constructors, three attribute-value semantics (own, ref
// and own ref), multiple inheritance over schema types, and an abstract
// data type facility. EXCESS is the QUEL-derived query language over
// it: range variables, implicit joins through reference paths, nested
// set queries, aggregates with by/over partitioning, universal
// quantification, updates, functions (derived data) and procedures
// (stored commands).
//
// Quick start:
//
//	db, _ := extra.Open()
//	defer db.Close()
//	db.MustExec(`
//	    define type Person: ( name: char[20], age: int4 )
//	    create People : { own Person }
//	    append to People (name = "Alice", age = 41)
//	`)
//	res, _ := db.Query(`retrieve (P.name) from P in People where P.age > 40`)
//	fmt.Print(res)
//
// # Concurrency
//
// Statements are classified by the sema layer: a retrieve without an
// into clause is read-only; everything else (updates, DDL, range
// declarations, grants, procedure executions) is a write. Reads use
// MVCC snapshots: each read statement pins the store's latest
// immutable snapshot — data, schema and grants together — with one
// atomic load and executes entirely against it, lock-free — readers
// never block behind a writer, no matter how long the write runs.
// Writes serialize on a dedicated write mutex, read a frozen view of
// the store's working state (a snapshot too, not yet published), mutate
// the live store and the working catalog, and publish a new snapshot
// (copy-on-write: only the extents, variables and index trees the
// statement dirtied are rebuilt, the catalog only when it changed) via
// an atomic pointer swap.
// DB.NewSession returns a per-client Session with its own user
// identity and range declarations; the DB-level Exec/Query methods are
// shorthands for a built-in default session. A DB and its Sessions are
// safe for concurrent use by multiple goroutines.
package extra

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/adt"
	"repro/internal/catalog"
	"repro/internal/deadlock"
	"repro/internal/excess/sema"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/object"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/wal"
)

// errDBClosed reports use of a closed database.
var errDBClosed = errors.New("database is closed")

// Result re-exports the executor's result set.
type Result = exec.Result

// Row re-exports the executor's result row.
type Row = exec.Row

// PoolStats re-exports the buffer pool counters DB.PoolStats reports,
// which stay zero: the engine keeps no page. It stays only for the
// repository benchmark's callers (ROADMAP item 1(f)/12).
type PoolStats = storage.PoolStats

// Metrics re-exports the engine metrics registry (counters, gauges,
// latency histograms). See DB.Metrics.
type Metrics = metrics.Registry

// MetricsSnapshot re-exports a point-in-time copy of the registry.
type MetricsSnapshot = metrics.Snapshot

// DB is an EXTRA/EXCESS database: object store (with its catalog),
// metrics and the shared executor engine core. Read
// statements (retrieve without into) pin an immutable store snapshot
// and run lock-free against it; write statements serialize on the
// write mutex and publish a new snapshot on commit — so a DB is safe for
// concurrent use by multiple goroutines, concurrent reads scale across
// cores, and a bulk update never stalls readers. Per-client state
// (user, range declarations) lives in Sessions (NewSession); the DB's
// own Exec/Query run on a built-in default session.
type DB struct {
	// wmu is the commit lock, the engine's one statement lock: every
	// write statement batch holds it for the batch's duration, mutating
	// the live store and the working catalog and publishing a snapshot
	// per statement. Readers take no lock. Lock order: wmu before the
	// WAL's locks, enforced at runtime under `-tags deadlockcheck` by
	// the internal/deadlock sentinel the wrapper type carries.
	wmu   deadlock.Mutex // extra:lock db.wmu
	reg   *adt.Registry
	store *object.Store // owns the working catalog; its snapshots carry frozen ones
	exec  *exec.Executor

	closed atomic.Bool // set once, by Close under wmu

	def         *Session     // default session backing DB.Exec/Query
	nextSession atomic.Int64 // session id allocator (default session is 0)

	metrics *metrics.Registry
	// Pre-resolved hot-path metric handles (one atomic add each, no
	// registry lookup on the statement path). Histograms and counters
	// are internally atomic: safe to observe from concurrent readers.
	hParse, hCheck, hPlan, hCompile, hExecute, hStmt *metrics.Histogram
	cRows, cErrors, cParses                          *metrics.Counter            // cParses: parse.full, every text the parser reads
	cWALRecords, cWALBytes                           *metrics.Counter            // wal.append.records/bytes: what logStmt appended
	hWALWait                                         *metrics.Histogram          // wal.wait_durable: a commit's wait for its fsync
	cKind                                            map[string]*metrics.Counter // stmt.<kind> by sema.KindOf name; read-only after Open

	// plans is the engine-wide compiled-statement cache (see
	// plancache.go), the one plan memo: repeated retrieves, ad hoc or
	// prepared, amortize check/plan/compile to a hit. Keyed on catalog version,
	// so DDL invalidates it wholesale.
	plans *planCache

	// tracer owns statement-trace sampling, the slow threshold and the
	// one ring of retained span trees, sampled or slow, of which the
	// slow-query log is a view (see tracing.go); labelStmts turns on
	// per-statement runtime/pprof labels, set when the ops-plane debug
	// server is up so CPU profiles attribute samples to sessions and
	// statement kinds.
	tracer     *trace.Tracer
	labelStmts atomic.Bool
	debug      *debugServer

	// wal, when non-nil, write-ahead-logs every committed write (see
	// wal.go). Assigned once during Open, after recovery replay — replay
	// applies the logged groups with wal still nil, which is what keeps
	// them from being re-logged. walDir holds the log directory for
	// Checkpoint. edit is the log group of the write window publish has
	// open, under db.wmu; it is on only while one is open under a WAL.
	wal    *wal.Log
	walDir string
	edit   walEdit
}

// Option configures Open.
type Option func(*config)

type config struct {
	slowThreshold time.Duration
	traceEvery    int
	traceCap      int
	debugAddr     string
	walDir        string
	walSync       wal.SyncMode
}

// WithPoolSize does nothing: the engine keeps no page. It stays only for
// the repository benchmark's callers (ROADMAP item 1(f)/12).
func WithPoolSize(int) Option { return func(*config) {} }

// WithSlowQueryLog sets the slow-query threshold: a statement that
// succeeds in at least threshold is retained in the trace ring (see
// WithTracing for its capacity), sampled or not, and listed by
// SlowQueries. A threshold of 0 disables logging. The default is
// 100ms.
func WithSlowQueryLog(threshold time.Duration) Option {
	return func(c *config) { c.slowThreshold = threshold }
}

// Open creates a database. The ADT registry comes preloaded with the
// built-in Date and Complex types of the paper's figures.
func Open(opts ...Option) (*DB, error) {
	cfg := config{slowThreshold: 100 * time.Millisecond, traceCap: 32}
	for _, o := range opts {
		o(&cfg)
	}
	reg := adt.NewRegistry()
	cat := catalog.New(reg)
	store := object.New(nil, cat)
	mreg := metrics.NewRegistry()
	cKind := make(map[string]*metrics.Counter, len(sema.Kinds))
	for _, kind := range sema.Kinds {
		cKind[kind] = mreg.Counter("stmt." + kind)
	}
	db := &DB{
		reg:   reg,
		store: store,
		exec:  exec.New(store, cat),

		metrics:  mreg,
		hParse:   mreg.Histogram("phase.parse"),
		hCheck:   mreg.Histogram("phase.check"),
		hPlan:    mreg.Histogram("phase.plan"),
		hCompile: mreg.Histogram("phase.compile"),
		hExecute: mreg.Histogram("phase.execute"),
		hStmt:    mreg.Histogram("stmt.latency"),
		cRows:    mreg.Counter("rows.returned"),
		cErrors:  mreg.Counter("stmt.errors"),
		cParses:  mreg.Counter("parse.full"),
		cKind:    cKind,

		cWALRecords: mreg.Counter("wal.append.records"),
		cWALBytes:   mreg.Counter("wal.append.bytes"),
		hWALWait:    mreg.Histogram("wal.wait_durable"),

		plans: newPlanCache(defaultPlanCacheCap, mreg),

		tracer: trace.NewTracer(cfg.traceEvery, cfg.traceCap),
	}
	db.tracer.SetSlowThreshold(cfg.slowThreshold)
	db.wmu.SetName("db.wmu")
	db.exec.SetMetrics(mreg)
	db.store.SetMetrics(mreg)
	db.def = newSession(db, 0)
	if cfg.walDir != "" {
		// Recovery before anything else can observe the DB: checkpoint
		// restore, then log replay, then the log is live for appends.
		if err := db.openWAL(cfg.walDir, cfg.walSync); err != nil {
			return nil, err
		}
	}
	if cfg.debugAddr != "" {
		if err := db.startDebugServer(cfg.debugAddr); err != nil {
			if db.wal != nil {
				db.wal.Close()
			}
			return nil, err
		}
	}
	return db, nil
}

// Close shuts the database: it stops the ops plane and, with a WAL,
// closes the log, which drains and fsyncs whatever its flusher still
// holds, so a clean Close leaves nothing for the next recovery to lose.
// It takes the commit lock, draining any in-flight write batch; every
// later write returns an error and publishes nothing. The store is in
// memory, so there is nothing else to flush. A read
// that started before Close finishes against its snapshot.
//
// extra:acquires db.wmu.W
func (db *DB) Close() error {
	db.stopDebugServer()
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed.Swap(true) || db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// Registry exposes the ADT registry for registering new abstract data
// types, operators and generic set functions from Go — the E-language
// extension path of the paper.
func (db *DB) Registry() *adt.Registry { return db.reg }

// Catalog returns the published catalog (introspection): the frozen
// schema and grants of the latest snapshot. It never changes; a later
// DDL statement publishes a new one.
func (db *DB) Catalog() *catalog.Catalog { return db.store.Snapshot().Catalog() }

// PoolStats returns zero counters: the engine keeps no page. It stays
// only for the repository benchmark's callers (ROADMAP item 1(f)/12).
func (db *DB) PoolStats() PoolStats { return PoolStats{} }

// Metrics exposes the engine metrics registry: statement counters by
// kind, parse/check/plan/execute phase latency histograms, rows
// returned and error counts, and the publication figures of the write
// path (mvcc.commit.freeze, mvcc.commit.dirty_objs,
// mvcc.commit.dirty_chunks, mvcc.commit.decoded, mvcc.version). The registry is safe for
// concurrent reads while statements execute.
func (db *DB) Metrics() *Metrics { return db.metrics }

// MetricsSnapshot copies the registry. Every counter in the snapshot is
// a single atomic read of a monotonic value — sampling mid-statement
// never observes a torn or decreasing counter, and two snapshots
// bracket the traffic between them.
//
// extra:output
func (db *DB) MetricsSnapshot() MetricsSnapshot { return db.metrics.Snapshot() }

// SlowQuery is one slow-query log entry: the statement source with its
// phase breakdown, result size and the session that ran it. TraceID is
// the id of the retained trace the entry is read from, which resolves
// through DB.TraceByID, the shell's \trace and the ops plane's
// /traces/{id} while the trace is retained: the full span tree when the
// statement was also sampled, its phases otherwise.
type SlowQuery struct {
	Src     string        `json:"src"`
	Session int64         `json:"session"`
	When    time.Time     `json:"when"`
	Total   time.Duration `json:"total_ns"`
	Parse   time.Duration `json:"parse_ns"`
	Check   time.Duration `json:"check_ns"`
	Plan    time.Duration `json:"plan_ns"`
	Execute time.Duration `json:"execute_ns"`
	Rows    int           `json:"rows"`
	TraceID uint64        `json:"trace_id,omitempty"`
}

// SlowQueries returns the retained slow statements, oldest first: a
// view over the trace ring's traces marked slow when they finished,
// each phase field the sum of the trace's spans for that phase.
func (db *DB) SlowQueries() []SlowQuery {
	trs := db.tracer.Traces()
	out := make([]SlowQuery, 0, len(trs))
	for _, tr := range trs {
		if !tr.Slow {
			continue
		}
		d := tr.PhaseDurs()
		out = append(out, SlowQuery{
			Src: tr.Src, Session: tr.Session, When: tr.Start.Add(tr.Dur), Total: tr.Dur,
			Parse:   d[trace.PhaseParse],
			Check:   d[trace.PhaseCheck],
			Plan:    d[trace.PhasePlan],
			Execute: d[trace.PhaseExecute],
			Rows:    tr.Rows, TraceID: tr.ID,
		})
	}
	return out
}

// SetSlowQueryThreshold adjusts the slow-query threshold at run time;
// 0 disables logging. Entries already logged stay.
func (db *DB) SetSlowQueryThreshold(d time.Duration) { db.tracer.SetSlowThreshold(d) }

// Exec parses and runs one or more EXCESS statements on the default
// session, returning the result of the last retrieve (nil if none).
func (db *DB) Exec(src string) (*Result, error) { return db.def.Exec(src) }

// Query is Exec for a single retrieve; it errors when the source is not
// exactly one retrieve statement. Retrieves without an into clause run
// against a pinned snapshot, concurrently with writers and other
// readers.
func (db *DB) Query(src string) (*Result, error) { return db.def.Query(src) }

// MustExec runs statements and panics on error; for examples and tests.
func (db *DB) MustExec(src string) *Result { return db.def.MustExec(src) }

// MustQuery runs a retrieve and panics on error.
func (db *DB) MustQuery(src string) *Result { return db.def.MustQuery(src) }

// targetExprs collects the bound target expressions of a retrieve (for
// authorization walks).
func targetExprs(cq *sema.CheckedRetrieve) []sema.Expr {
	texprs := make([]sema.Expr, len(cq.Targets))
	for i, tc := range cq.Targets {
		texprs[i] = tc.Expr
	}
	return texprs
}

// paramScope is the parameter frame of an executing statement — a
// prepared statement's $1..$n arguments, or a procedure body's
// parameters — by slot: the frame's names and types, which a prepared
// statement or a procedure shares between executions, and the values.
type paramScope struct {
	frame  []sema.Param
	values []value.Value
}

func (p *paramScope) frameOrNil() []sema.Param {
	if p == nil {
		return nil
	}
	return p.frame
}

func (p *paramScope) valuesOrNil() []value.Value {
	if p == nil {
		return nil
	}
	return p.values
}

// CheckConsistency runs the object store's structural fsck: ownership
// symmetry, extent maps, index completeness and uniqueness. It returns
// the violations found (nil means consistent). It inspects the live
// store's working state — including the working index trees — so it
// holds the write lock, excluding writers rather than readers.
//
// extra:acquires db.wmu.W
// extra:output
func (db *DB) CheckConsistency() []string {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	return db.store.CheckConsistency()
}
