package extra

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/excess/ast"
	"repro/internal/object"
	"repro/internal/trace"
	"repro/internal/types"
	"repro/internal/wal"
)

// Durability. Every write reaches readers and the log through one
// envelope, publish: under the commit lock it refuses a closed
// database, runs the mutation, freezes the store, derives the write's
// log group, sizes it against wal.MaxRecord, publishes the store
// snapshot (Store.Commit) and, with WithWAL, appends the group. A write
// that fails anywhere before the publication is aborted (Store.Abort):
// it publishes and logs nothing. Open replays the log, so acknowledged
// commits survive a crash.
//
// The log records what a commit published, not the statement that
// asked for it (walEdit): the texts of the schema statements the commit
// ran, and between them the data it changed, in the data-line grammar
// of a dump, which object.Diff derives from the frozen snapshots.
// Recovery loads the checkpoint (an atomic Dump carrying the covered
// LSN) and applies each group after it in one write: data lines through
// Store.ApplyLine, as Load applies a dump's, and schema texts
// through the statement dispatch. It runs no write statement again, so
// it needs no session state, and the store it rebuilds is the published
// one, OIDs included.
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
// replayed groups. wal.Open hands over a group's records only once it
// has read the group's closing record.
func (db *DB) openWAL(dir string, mode WALSyncMode) error {
	ckptLSN, err := db.restoreCheckpoint(filepath.Join(dir, checkpointFile))
	if err != nil {
		return err
	}
	var group []*wal.Record
	l, _, err := wal.Open(dir, wal.Options{
		Sync:          mode,
		CheckpointLSN: ckptLSN,
		Replay: func(r *wal.Record) error {
			if r.LSN <= ckptLSN {
				return nil // already inside the checkpoint dump
			}
			if group = append(group, r); r.More {
				return nil
			}
			err := db.replayGroup(group)
			group = group[:0]
			return err
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
	// dump, loaded as Load loads one.
	if err := db.Load(br); err != nil {
		return 0, fmt.Errorf("wal: checkpoint restore: %w", err)
	}
	return lsn, nil
}

// replayGroup applies one logged commit as one write: each schema
// statement as its committing user ran it, each data line as Load
// restores it. Authorization state is not durable (grants are session
// configuration, same as Dump), so nothing is access-checked: the
// authorizer is still in its pass-everything initial state. Only writes
// that published are logged, so a record that fails to apply fails the
// recovery.
//
// extra:acquires db.wmu.W
func (db *DB) replayGroup(recs []*wal.Record) error {
	s := newSession(db, 0)
	return db.apiWrite()(func() error {
		var c stmtCall
		c.open(s)
		defer c.es.Release()
		for _, r := range recs {
			var err error
			switch r.Kind {
			case wal.RecordStmt:
				c.user = r.User
				err = s.runSchema(&c, r.Src)
			case wal.RecordData:
				for _, line := range r.Data {
					if _, err = db.store.ApplyLine(string(line), false); err != nil {
						break
					}
				}
			default:
				err = fmt.Errorf("unknown kind %d", r.Kind)
			}
			if err != nil {
				return fmt.Errorf("%s record at lsn %d: %w", kindName[r.Kind], r.LSN, err)
			}
		}
		return nil
	})
}

// publish is the one publication point: a write statement, a Load, a
// Go-API insert, reference write or grant edit reaches readers and the
// log only through it. Under the commit lock it refuses a closed
// database, then runs mutate, freezes the store and, with a WAL, takes
// the write's log group from the window's edit (walEdit.records),
// sizes it against wal.MaxRecord, publishes the store's snapshot and
// appends the group (logRecords). When mutate, the freeze or the sizing
// fails, the store aborts to the published snapshot: a failed write
// publishes nothing and logs nothing. act, when non-nil, receives the
// commit.freeze and commit.edit spans. The caller awaits the returned
// LSN with waitDurable after releasing the lock.
//
// extra:requires db.wmu.W
func (db *DB) publish(act *trace.Active, mutate func() error) (uint64, error) {
	if db.closed.Load() {
		return 0, errDBClosed
	}
	if db.wal != nil {
		db.edit.open(db.store.Snapshot())
		defer db.edit.close()
	}
	err := mutate()
	var recs []*wal.Record
	if err == nil {
		sp := act.StartSpan(trace.KindStorage, "commit.freeze")
		var head *object.Snapshot
		head, err = db.store.View()
		act.EndSpan(sp)
		if err == nil && db.edit.on {
			sp = act.StartSpan(trace.KindStorage, "commit.edit")
			recs, err = db.edit.records(head)
			act.EndSpan(sp)
		}
	}
	for _, rec := range recs {
		if sz := rec.PayloadSize(); err == nil && sz > wal.MaxRecord {
			err = fmt.Errorf("%s record refused: %w (payload %d bytes, limit %d)", kindName[rec.Kind], wal.ErrTooLarge, sz, wal.MaxRecord)
		}
	}
	if err == nil {
		_, err = db.store.Commit()
	}
	if err != nil {
		db.store.Abort()
		return 0, err
	}
	return db.logRecords(recs)
}

// kindName names each record kind in errors.
var kindName = map[wal.Kind]string{
	wal.RecordStmt: "statement",
	wal.RecordData: "data",
}

// apiWrite is the Go API's write path (Insert, SetRef, the grant edits,
// Load and the replay of a logged group): it takes the commit lock and
// returns, with the lock held, the function that runs one write through
// publish, releases the lock and only then awaits the write's
// durability, so API writers share fsyncs the way statements do. Call
// the returned function at once.
//
// extra:holds db.wmu.W
func (db *DB) apiWrite() func(mutate func() error) error {
	db.wmu.Lock()
	return func(mutate func() error) error {
		lsn, err := func() (uint64, error) {
			defer db.wmu.Unlock()
			return db.publish(nil, mutate)
		}()
		if derr := db.waitDurable(lsn); derr != nil && err == nil {
			err = derr
		}
		return err
	}
}

// logRecords appends a published write's group and returns the LSN of
// its last record (0 when the write logged nothing).
//
// extra:requires db.wmu.W
func (db *DB) logRecords(recs []*wal.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	lsn, err := db.wal.Append(recs...)
	if err != nil {
		return 0, err
	}
	for _, rec := range recs {
		db.cWALRecords.Inc()
		db.cWALBytes.Add(uint64(rec.PayloadSize()))
	}
	return lsn, nil
}

// walEdit is the log group a write window builds (publish opens it for
// each window under a WAL): the texts of the schema statements the
// window ran, each as a RecordStmt, and around them the data the window
// changed, as data lines, one per element of a RecordData record's
// Data, at most loadChunkBytes of them per record. A line's payload (the
// tuple or value of an OBJ, VAR or ELEM line) is raw in the log, where
// a dump spells it in hex. A window that writes data only logs the diff
// of its frozen state against the published snapshot; a schema
// statement closes the data segment before it (cut) and, once it has
// run, starts the next one from the state it left (schema). So replay,
// which applies the records in order, meets each line and text in the
// state it was taken from. A Load logs its own lines as it reads them
// (base nil). The buffers outlive the window, so a commit allocates
// little more than its records.
type walEdit struct {
	on    bool             // a logged window is open
	base  *object.Snapshot // the next data segment is what changed since it; nil: nothing is diffed
	recs  []*wal.Record
	buf   []byte   // the window's data lines, back to back
	lines [][]byte // each of them, in buf; lines[first:] are in no record yet
	first int
	start int // where lines[first] starts in buf
}

// maxKeptBuf is the most line buffer a walEdit keeps between windows.
const maxKeptBuf = 1 << 20

// open starts the group of a window whose writes start from base, the
// published snapshot.
func (e *walEdit) open(base *object.Snapshot) { e.on, e.base = true, base }

// close ends the window: the group was appended or dropped.
func (e *walEdit) close() {
	clear(e.recs)
	clear(e.lines)
	*e = walEdit{recs: e.recs[:0], buf: e.buf[:0], lines: e.lines[:0]}
	if cap(e.buf) > maxKeptBuf {
		e.buf, e.lines = nil, nil
	}
}

// records closes the group on the window's final frozen state and
// returns it.
func (e *walEdit) records(head *object.Snapshot) ([]*wal.Record, error) {
	if e.base != nil && e.base != head {
		if err := object.Diff(e.base, head, e.line); err != nil {
			return nil, err
		}
	}
	e.flush()
	return e.recs, nil
}

// cut logs the data the window changed since base, up to its state
// now, which becomes the base.
//
// extra:requires db.wmu.W
func (e *walEdit) cut(store *object.Store) error {
	head, err := store.View()
	if err != nil {
		return err
	}
	if head != e.base {
		if err := object.Diff(e.base, head, e.line); err != nil {
			return err
		}
		e.base = head
	}
	return nil
}

// schema logs a schema statement st that ran as user, once it has run:
// its text, and for a retrieve into the schema Dump renders for the
// variable it made, whose rows the next data segment holds. After any
// other statement the segment starts from the state it left, so the
// data it removed or built (a drop's objects, an index) is not logged:
// replaying its text does that.
//
// extra:requires db.wmu.W
func (e *walEdit) schema(store *object.Store, user string, st ast.Statement) error {
	if r, ok := st.(*ast.Retrieve); ok {
		cat := store.Catalog()
		v, _ := cat.Var(r.Into)
		elem, _ := v.ElemType()
		e.stmt(user, typeDDL(elem.Type.(*types.TupleType)))
		e.stmt(user, createDDL(cat, v))
		return nil
	}
	e.stmt(user, ast.Print(st))
	var err error
	e.base, err = store.View()
	return err
}

// stmt logs one schema statement text.
func (e *walEdit) stmt(user, src string) {
	e.flush()
	e.recs = append(e.recs, &wal.Record{Kind: wal.RecordStmt, User: user, Src: src})
}

// line logs one data line.
func (e *walEdit) line(l []byte) error {
	if err := e.room(len(l)); err != nil {
		return err
	}
	from := len(e.buf)
	e.buf = append(e.buf, l...)
	e.endLine(from)
	return nil
}

// loaded logs a data line Load read and applied, with the payload the
// apply decoded from its hex, if it has one.
func (e *walEdit) loaded(line string, payload []byte) error {
	if err := e.room(len(line)); err != nil {
		return err
	}
	from := len(e.buf)
	if payload == nil {
		e.buf = append(e.buf, line...)
	} else {
		e.buf = append(append(e.buf, line[:strings.LastIndexByte(line, ' ')+1]...), payload...)
	}
	e.endLine(from)
	return nil
}

// room readies the current record for a data line of at most n bytes,
// which the caller then appends to e.buf and closes with endLine: it
// starts a new record when the line would take this one past
// loadChunkBytes, and refuses a line no record can hold.
func (e *walEdit) room(n int) error {
	if n > wal.MaxRecord {
		return fmt.Errorf("data line refused: %w (%d bytes, limit %d)", wal.ErrTooLarge, n, wal.MaxRecord)
	}
	if len(e.buf) > e.start && len(e.buf)-e.start+n > loadChunkBytes {
		e.flush()
	}
	return nil
}

// endLine closes the line written to e.buf from offset from on.
func (e *walEdit) endLine(from int) {
	e.lines = append(e.lines, e.buf[from:len(e.buf):len(e.buf)])
}

// flush ends the current data record.
func (e *walEdit) flush() {
	if len(e.lines) == e.first {
		return
	}
	e.recs = append(e.recs, &wal.Record{Kind: wal.RecordData, Data: e.lines[e.first:len(e.lines):len(e.lines)]})
	e.first, e.start = len(e.lines), len(e.buf)
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
