package extra

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/excess/ast"
	"repro/internal/excess/sema"
	"repro/internal/oid"
	"repro/internal/trace"
	"repro/internal/value"
	"repro/internal/wal"
)

// Durability. Every write reaches readers and the log through one
// envelope, publish: under the commit lock it refuses a closed
// database, sizes the write's record against wal.MaxRecord while
// nothing has mutated, runs the mutation, publishes the store snapshot
// (Store.Commit) and, with WithWAL, appends the record. Open replays
// the log, so acknowledged commits survive a crash. The store is in
// memory and nothing of it is read back: recovery loads the
// checkpoint (an atomic Dump carrying the covered LSN) and re-executes
// the logged sequence after it, which reproduces the store
// deterministically (sequential OID allocation, printed-statement
// round-trips and deterministic iteration are all pinned by this
// repo's tests and vet checks).
//
// Group commit (the default sync mode) appends under the commit lock —
// no I/O — and waits for durability only after the lock is released, so
// the fsyncs of concurrent committers coalesce into one.

// WALSyncMode re-exports the log's durability modes.
type WALSyncMode = wal.SyncMode

// Re-exported sync modes for WithWALSync.
const (
	WALSyncGroup = wal.SyncGroup // one fsync amortized over concurrent commits (default)
	WALSyncEach  = wal.SyncEach  // fsync inline per commit (the baseline B16 compares against)
	WALSyncNone  = wal.SyncNone  // no fsync; durable against process crash only
)

// ParseWALSyncMode parses "group", "each" or "none" (the -walsync flag).
func ParseWALSyncMode(s string) (WALSyncMode, error) { return wal.ParseSyncMode(s) }

// WithWAL enables write-ahead logging in dir: every committed write is
// logged before it is acknowledged, and Open replays the log (from the
// latest checkpoint, if any) before returning.
func WithWAL(dir string) Option {
	return func(c *config) { c.walDir = dir }
}

// WithWALSync selects the WAL durability mode (default WALSyncGroup).
func WithWALSync(m WALSyncMode) Option {
	return func(c *config) { c.walSync = m }
}

// checkpointFile is the checkpoint dump inside the WAL directory: a
// regular Dump stream whose first line is "#wal-lsn N" (a comment to
// Load), written atomically so the dump and the LSN it covers can never
// disagree.
const checkpointFile = "checkpoint.xd"

// openWAL restores the checkpoint (if any), replays the log and leaves
// db.wal ready for appends. Runs inside Open, before the DB is shared:
// no locks are needed around the field writes, and db.wal is still nil
// during replay, which is exactly what suppresses re-logging the
// replayed statements.
func (db *DB) openWAL(dir string, mode WALSyncMode) error {
	ckptLSN, err := db.restoreCheckpoint(filepath.Join(dir, checkpointFile))
	if err != nil {
		return err
	}
	sessions := map[int64]*Session{}
	l, _, err := wal.Open(dir, wal.Options{
		Sync:          mode,
		CheckpointLSN: ckptLSN,
		Replay: func(r *wal.Record) error {
			if r.LSN <= ckptLSN {
				return nil // already inside the checkpoint dump
			}
			return db.replayRecord(r, sessions)
		},
	})
	if err != nil {
		return err
	}
	l.SetMetrics(db.metrics)
	db.wal = l
	db.walDir = dir
	return nil
}

// restoreCheckpoint loads the checkpoint dump and returns the LSN it
// covers (0 when no checkpoint exists).
func (db *DB) restoreCheckpoint(path string) (uint64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint %s: %w", path, err)
	}
	lsnStr, ok := strings.CutPrefix(strings.TrimSpace(line), "#wal-lsn ")
	if !ok {
		return 0, fmt.Errorf("wal: checkpoint %s: missing #wal-lsn header", path)
	}
	lsn, err := strconv.ParseUint(lsnStr, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wal: checkpoint %s: bad #wal-lsn: %w", path, err)
	}
	// The header line is consumed; the rest of the stream is a plain
	// dump. The checkpoint was written atomically by Checkpoint, so it is
	// trusted and loaded directly, without Load's staging pass.
	if err := db.loadStream(br); err != nil {
		return 0, fmt.Errorf("wal: checkpoint restore: %w", err)
	}
	return lsn, nil
}

// replayRecord re-executes one logged mutation during recovery. Records
// carry their originating session id so per-session state (range
// declarations) accumulates exactly as it did originally, and the user
// the statement committed under so procedure definitions keep their
// definer. Authorization state is not durable (grants are session
// configuration, same as Dump), so nothing is access-checked during
// replay: the authorizer is still in its pass-everything initial state.
func (db *DB) replayRecord(r *wal.Record, sessions map[int64]*Session) error {
	s := sessions[r.Session]
	if s == nil {
		s = newSession(db, r.Session)
		sessions[r.Session] = s
	}
	s.setUser(r.User)
	var err error
	switch r.Kind {
	case wal.RecordStmt:
		err = s.replayStmt(r)
	case wal.RecordLoad:
		err = db.replayLoad(r)
	case wal.RecordInsert:
		err = db.replayInsert(r)
	case wal.RecordSetRef:
		err = db.replaySetRef(r)
	default:
		return fmt.Errorf("unknown record kind %d", r.Kind)
	}
	if err != nil && !r.Erred {
		return err
	}
	// The engine has no rollback: a statement that erred after mutating
	// still published its partial effects, and the log says so (Erred).
	// Deterministic re-execution fails the same way at the same point —
	// the partial effects are the durable state, the error is expected.
	return nil
}

// replayStmt re-executes one logged EXCESS statement through the
// statement pipeline, decoding prepared-statement arguments back into a
// parameter frame when the record carries them.
func (s *Session) replayStmt(r *wal.Record) error {
	db := s.db
	start := time.Now()
	st, err := db.parseOne(r.Src)
	if err != nil {
		return fmt.Errorf("reparse %q: %w", r.Src, err)
	}
	c := stmtCall{stmts: []ast.Statement{st}, src: r.Src, start: start, parseDur: time.Since(start)}
	if len(r.Data) > 0 {
		if c.params, err = decodeParams(db, s, st, r.Data); err != nil {
			return err
		}
	}
	_, err = s.run(&c)
	return err
}

// replayLoad re-applies one Load data section; restoreData stops at the
// first bad line exactly like the original run did.
func (db *DB) replayLoad(r *wal.Record) error {
	var lines []dataLine
	for i, text := range strings.Split(r.Src, "\n") {
		lines = append(lines, dataLine{no: i + 1, text: text})
	}
	_, err := db.restoreData(lines)
	return err
}

// replayInsert re-runs one DB.Insert: the tuple bytes decode back to
// the pre-insert value and insertion re-allocates the same OID the
// sequential generator handed out originally.
func (db *DB) replayInsert(r *wal.Record) error {
	if len(r.Data) != 1 {
		return fmt.Errorf("insert record wants 1 data field, has %d", len(r.Data))
	}
	v, err := codec.DecodeOne(r.Data[0], db.store.Catalog())
	if err != nil {
		return err
	}
	tv, ok := v.(*value.Tuple)
	if !ok {
		return fmt.Errorf("insert record holds %T, want tuple", v)
	}
	_, err = db.insertTuple(r.Src, tv)
	return err
}

// replaySetRef re-runs one DB.SetRef from its logged operands.
func (db *DB) replaySetRef(r *wal.Record) error {
	if len(r.Data) != 4 {
		return fmt.Errorf("setref record wants 4 data fields, has %d", len(r.Data))
	}
	obj := Obj{id: oidFromBytes(r.Data[0]), typ: string(r.Data[1])}
	var target Obj
	if len(r.Data[2]) > 0 {
		target = Obj{id: oidFromBytes(r.Data[2]), typ: string(r.Data[3])}
	}
	return db.SetRef(obj, r.Src, target)
}

func oidBytes(id oid.OID) []byte {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(uint64(id) >> (56 - 8*i))
	}
	return b[:]
}

func oidFromBytes(b []byte) oid.OID {
	var n uint64
	for _, c := range b {
		n = n<<8 | uint64(c)
	}
	return oid.OID(n)
}

// stmtRecord builds the WAL record a write statement will be logged
// as, or nil for statement classes that are never logged. It runs
// before the statement executes, so publish can refuse a record the log
// cannot hold while nothing has mutated.
//
// Policy: read-only statements in a mixed batch touch nothing and are
// skipped; grant/revoke mutate only the in-memory authorizer, which is
// session configuration and not durable (consistent with Dump);
// everything else is logged — including statements that err after
// partial effects (Erred), and statements whose effects live outside
// the store (range declarations shape later statements' meaning, so
// replay needs them).
func (db *DB) stmtRecord(session int64, user string, st ast.Statement, params *paramScope) (*wal.Record, error) {
	if db.wal == nil || sema.ReadOnly(st) {
		return nil, nil
	}
	switch st.(type) {
	case *ast.Grant, *ast.Revoke:
		return nil, nil
	}
	rec := &wal.Record{
		Kind:    wal.RecordStmt,
		Session: session,
		User:    user,
		Src:     ast.Print(st),
	}
	if params != nil {
		data, err := encodeParams(params)
		if err != nil {
			return nil, err
		}
		rec.Data = data
	}
	return rec, nil
}

// publish is the one publication point: a write statement, a Load data
// chunk, a Go-API insert, reference write or grant edit reaches
// readers and the log only through it. Under the commit lock it refuses
// a closed database, then sizes rec while nothing has mutated: the
// engine has no rollback, and a published write the log cannot hold
// would be invisible to recovery. It then runs mutate, publishes the
// store's snapshot and appends rec (logStmt). A nil rec is a write that
// is never logged. Publication happens even when mutate errs: its
// partial effects are live state, to snapshot readers as to the next
// writer, and the record carries the Erred flag. act, when non-nil,
// receives the commit.freeze span. The caller awaits the returned LSN
// with waitDurable after releasing the lock.
//
// extra:requires db.wmu.W
// extra:mutates
func (db *DB) publish(rec *wal.Record, act *trace.Active, mutate func() error) (uint64, error) {
	if db.closed.Load() {
		return 0, errDBClosed
	}
	if rec != nil {
		if sz := rec.PayloadSize(); sz > wal.MaxRecord {
			return 0, fmt.Errorf("%s refused: %w (payload %d bytes, limit %d)", refusedWhat[rec.Kind], wal.ErrTooLarge, sz, wal.MaxRecord)
		}
	}
	err := mutate()
	freeze := act.StartSpan(trace.KindStorage, "commit.freeze")
	published, cerr := db.store.Commit()
	act.EndSpan(freeze)
	if cerr != nil && err == nil {
		err = cerr
	}
	lsn, lerr := db.logStmt(rec, err, published)
	if lerr != nil && err == nil {
		err = lerr
	}
	return lsn, err
}

// refusedWhat names each record kind in publish's oversize refusal.
var refusedWhat = map[wal.Kind]string{
	wal.RecordStmt:   "statement",
	wal.RecordLoad:   "load",
	wal.RecordInsert: "insert",
	wal.RecordSetRef: "setref",
}

// apiWrite is the Go API's write path (Insert, SetRef and the grant
// edits): it takes the commit lock and returns, with the lock held, the
// function that runs one write through publish, releases the lock and
// only then awaits the write's durability, so API writers share fsyncs
// the way statements do. Call the returned function at once.
//
// extra:holds db.wmu.W
func (db *DB) apiWrite() func(rec *wal.Record, mutate func() error) error {
	db.wmu.Lock()
	return func(rec *wal.Record, mutate func() error) error {
		lsn, err := func() (uint64, error) {
			defer db.wmu.Unlock()
			return db.publish(rec, nil, mutate)
		}()
		if derr := db.waitDurable(lsn); derr != nil && err == nil {
			err = derr
		}
		return err
	}
}

// logStmt appends a published write's record: the record was built and
// sized before the mutation ran, and is appended now that it has.
// Returns the assigned LSN (0 when nothing was logged). Nothing is
// logged without a WAL, for a nil record, or for a write that failed
// without publishing a snapshot (which a catalog edit also does): it
// left no durable trace.
//
// extra:requires db.wmu.W
// extra:logs
func (db *DB) logStmt(rec *wal.Record, runErr error, effects bool) (uint64, error) {
	if rec == nil || db.wal == nil {
		return 0, nil
	}
	if runErr != nil && !effects {
		return 0, nil
	}
	rec.Erred = runErr != nil
	lsn, err := db.wal.Append(rec)
	if err == nil {
		db.cWALRecords.Inc()
		db.cWALBytes.Add(uint64(rec.PayloadSize()))
	}
	return lsn, err
}

// waitDurable blocks until the record at lsn is fsynced (a no-op
// without a WAL or when nothing was logged). Call with no engine lock
// held: that is what lets concurrent commits share one fsync.
func (db *DB) waitDurable(lsn uint64) error {
	if db.wal == nil || lsn == 0 {
		return nil
	}
	start := time.Now()
	err := db.wal.WaitDurable(lsn)
	db.hWALWait.Observe(time.Since(start))
	return err
}

// encodeParams serializes a prepared statement's $1..$n arguments.
func encodeParams(p *paramScope) ([][]byte, error) {
	out := make([][]byte, len(p.values))
	for i, v := range p.values {
		enc, err := codec.Encode(nil, v)
		if err != nil {
			return nil, fmt.Errorf("wal: encode parameter $%d: %w", i+1, err)
		}
		out[i] = enc
	}
	return out, nil
}

// decodeParams rebuilds the parameter frame for a logged prepared
// statement: values decode from their codec bytes, slot types come from
// re-probing the statement the same way Prepare did.
func decodeParams(db *DB, s *Session, st ast.Statement, data [][]byte) (*paramScope, error) {
	cat := db.store.Catalog()
	ck := s.checker(cat, nil)
	if err := probeCheck(ck, st); err != nil {
		return nil, err
	}
	frame := placeholderFrame(ck.Placeholders(), len(data))
	vals := make([]value.Value, len(data))
	for i, enc := range data {
		v, err := codec.DecodeOne(enc, cat)
		if err != nil {
			return nil, fmt.Errorf("wal: decode parameter %s: %w", frame[i].Name, err)
		}
		vals[i] = v
	}
	return &paramScope{frame: frame, values: vals}, nil
}

// Checkpoint makes the WAL short: it forces the log durable, writes an
// atomic dump annotated with the covered LSN, and garbage-collects the
// log segments the dump now covers. The dump and the log are the whole
// durable state. The commit lock is held across
// flush + dump so no commit can slip between the pinned LSN and the
// pinned snapshot; writers stall for the duration.
// Crash-safe at every point: until the dump's rename lands, recovery
// uses the previous checkpoint and the unremoved log.
//
// extra:acquires db.wmu.W
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return fmt.Errorf("checkpoint: database has no WAL (open with WithWAL)")
	}
	db.wmu.Lock()
	if db.closed.Load() {
		db.wmu.Unlock()
		return errDBClosed
	}
	lsn, err := db.wal.Flush()
	if err == nil {
		path := filepath.Join(db.walDir, checkpointFile)
		err = writeFileAtomic(path, func(f *os.File) error {
			if _, werr := fmt.Fprintf(f, "#wal-lsn %d\n", lsn); werr != nil {
				return werr
			}
			return db.Dump(f)
		})
	}
	db.wmu.Unlock()
	if err != nil {
		return err
	}
	return db.wal.TruncateThrough(lsn)
}

// WALFsyncs returns how many fsyncs the log has issued (0 without a
// WAL); acknowledged commits divided by fsyncs is the group-commit
// amortization factor.
func (db *DB) WALFsyncs() uint64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.Syncs()
}

// WALStats reports the log position: the last assigned and last durable
// LSNs (both 0 without a WAL).
func (db *DB) WALStats() (next, durable uint64) {
	if db.wal == nil {
		return 0, 0
	}
	return db.wal.NextLSN(), db.wal.Durable()
}
