package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/deadlock"
	"repro/internal/metrics"
)

// SyncMode selects how appended records become durable.
type SyncMode int

const (
	// SyncGroup (the default) is group commit: committers append and
	// wait; a dedicated flusher goroutine writes and fsyncs everything
	// pending, amortizing one fsync over every commit that arrived
	// while the previous one ran.
	SyncGroup SyncMode = iota
	// SyncEach fsyncs inline in Append before it returns — the
	// one-fsync-per-commit baseline the durability benchmark compares
	// group commit against.
	SyncEach
	// SyncNone writes through the OS page cache and never fsyncs.
	// Durable against process crashes handled by the OS, not against
	// power loss; useful for tests and bulk loads.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncGroup:
		return "group"
	case SyncEach:
		return "each"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// ParseSyncMode parses the -walsync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "group", "":
		return SyncGroup, nil
	case "each":
		return SyncEach, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("unknown wal sync mode %q (want group, each or none)", s)
}

// File is the writable handle a segment lives behind; *os.File
// implements it, and the fault-injection tests wrap it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Options configures Open.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size (default 4 MiB).
	SegmentBytes int64
	// Sync selects the durability mode (default SyncGroup).
	Sync SyncMode
	// Replay is called once per intact record during Open, in LSN
	// order. A non-nil error aborts the open.
	Replay func(*Record) error
	// CheckpointLSN is the highest LSN already covered by the
	// checkpoint dump the caller restored before Open. Segments GC'd by
	// a past checkpoint make the log start later than LSN 1; Open
	// verifies no record between the checkpoint and the first surviving
	// segment has been lost.
	CheckpointLSN uint64
	// WrapFile, when set, wraps every segment file opened for appending
	// (fault injection for tests).
	WrapFile func(File) File
	// ReadFile, when set, replaces os.ReadFile for recovery reads
	// (fault injection for tests).
	ReadFile func(string) ([]byte, error)
}

// RecoverInfo describes what Open found in the log directory.
type RecoverInfo struct {
	Records   int    // intact records scanned (and replayed)
	LastLSN   uint64 // LSN of the last intact record (0 = empty log)
	TornBytes int64  // garbage bytes truncated off the final segment
}

// Log is the append side of the WAL. Appends are cheap (no I/O under
// the append lock in group mode); durability is awaited separately so
// the database layer can release its commit lock before blocking on
// the fsync — that hand-off is what lets commits group.
//
// Lock order: fmu before mu before dmu. The flusher holds fmu across
// write+fsync+rotate; Append holds mu only; waiters hold dmu only.
type Log struct {
	dir      string
	mode     SyncMode
	segBytes int64
	wrap     func(File) File

	// mu guards the append-side state: the pending buffer and LSN
	// allocation. All three locks are deadlock wrappers so the
	// deadlockcheck build verifies the fmu→mu→dmu order dynamically.
	mu        deadlock.Mutex // extra:lock wal.mu
	buf       []byte
	bufUpto   uint64 // last LSN encoded into buf (0 = empty)
	nextLSN   uint64
	closed    bool
	appendErr error // sticky I/O error; appends fail once set

	// fmu guards the file-side state and serializes write+fsync+rotate
	// so a rotation never closes a file mid-fsync.
	fmu     deadlock.Mutex // extra:lock wal.fmu
	f       File
	segPath string
	written int64

	// dmu guards the durability watermark; cond wakes WaitDurable.
	dmu     deadlock.Mutex // extra:lock wal.dmu
	cond    *sync.Cond
	durable uint64
	syncErr error // sticky flush error, reported to every waiter

	flushReq chan struct{}
	quit     chan struct{}
	done     chan struct{}

	// syncs counts fsyncs issued, for the group-commit benchmark's
	// commits-per-fsync column. Guarded by fmu.
	syncs uint64

	obs atomic.Pointer[flushObs] // where flushes report; nil until SetMetrics
}

// flushObs is where a flush reports. It is attached, not log state: an
// atomic pointer, so attaching takes no lock.
type flushObs struct {
	fsync, group *metrics.Histogram
}

// SetMetrics attaches the engine metrics registry; every flush that
// fsyncs then records wal.fsync (the fsync's latency) and wal.group.size
// (the records it made durable: one per commit under SyncEach, every
// commit that queued behind the previous fsync under SyncGroup).
func (l *Log) SetMetrics(reg *metrics.Registry) {
	l.obs.Store(&flushObs{
		fsync: reg.Histogram("wal.fsync"),
		group: reg.CountHistogram("wal.group.size"),
	})
}

const segPrefix = "wal-"
const segSuffix = ".seg"

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstLSN, segSuffix)
}

// segFirstLSN parses the first LSN out of a segment file name.
func segFirstLSN(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment file names in dir in LSN order.
func listSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if _, ok := segFirstLSN(e.Name()); ok && !e.IsDir() {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs) // fixed-width hex: lexicographic == numeric
	return segs, nil
}

// Open scans the segments in dir in LSN order, calls opts.Replay for
// every intact record, truncates the torn or corrupt tail of the final
// segment, and returns the log positioned to append after the last
// intact record. The directory is created if missing.
func Open(dir string, opts Options) (*Log, RecoverInfo, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	readFile := opts.ReadFile
	if readFile == nil {
		readFile = os.ReadFile
	}
	var info RecoverInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, info, err
	}
	next := uint64(1)
	lastPath := ""
	keepBytes := int64(0)
	for i, name := range segs {
		first, _ := segFirstLSN(name)
		if i == 0 {
			// Checkpoint GC removes whole leading segments; the log may
			// legitimately start anywhere at or below checkpoint+1.
			if first > opts.CheckpointLSN+1 {
				return nil, info, fmt.Errorf("wal: first segment %s starts at lsn %d but checkpoint covers only %d (missing segment?)", name, first, opts.CheckpointLSN)
			}
			next = first
		} else if first != next {
			return nil, info, fmt.Errorf("wal: segment %s starts at lsn %d, expected %d (missing segment?)", name, first, next)
		}
		path := filepath.Join(dir, name)
		raw, err := readFile(path)
		if err != nil {
			return nil, info, fmt.Errorf("wal: read %s: %w", name, err)
		}
		// good ends the last closed group: the frames of a group that the
		// segment does not close are torn with whatever follows them.
		rest := raw
		good := int64(0)
		var torn *errTorn
		var group []*Record
		for len(rest) > 0 {
			rec, tail, err := nextFrame(rest, next)
			if err != nil {
				torn = err.(*errTorn)
				break
			}
			next = rec.LSN + 1
			rest = tail
			if group = append(group, rec); rec.More {
				continue
			}
			for _, r := range group {
				if opts.Replay != nil {
					if rerr := opts.Replay(r); rerr != nil {
						return nil, info, fmt.Errorf("wal: replay lsn %d: %w", r.LSN, rerr)
					}
				}
				info.Records++
				info.LastLSN = r.LSN
			}
			group = group[:0]
			good = int64(len(raw) - len(rest))
		}
		if len(group) > 0 {
			next = group[0].LSN
			if torn == nil {
				torn = &errTorn{reason: fmt.Sprintf("group from lsn %d has no closing record", next)}
			}
		}
		if torn != nil {
			if i != len(segs)-1 {
				// Garbage followed by a later segment full of records is
				// not a crash tail — refuse to silently drop the middle
				// of the log.
				return nil, info, fmt.Errorf("wal: segment %s corrupt mid-log (%s)", name, torn.Error())
			}
			info.TornBytes = int64(len(raw)) - good
		}
		lastPath = path
		keepBytes = good
	}

	l := &Log{
		dir:      dir,
		mode:     opts.Sync,
		segBytes: opts.SegmentBytes,
		wrap:     opts.WrapFile,
		nextLSN:  next,
		flushReq: make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.mu.SetName("wal.mu")
	l.fmu.SetName("wal.fmu")
	l.dmu.SetName("wal.dmu")
	l.cond = sync.NewCond(&l.dmu)
	l.durable = next - 1 // everything on disk (and replayed) is durable

	if lastPath == "" {
		// No segments (fresh log, or all GC'd by a checkpoint): new
		// records must be numbered above everything the checkpoint
		// already covers, or the next recovery would skip them.
		if next < opts.CheckpointLSN+1 {
			next = opts.CheckpointLSN + 1
			l.nextLSN = next
			l.durable = next - 1
		}
		if err := l.createSegment(next); err != nil {
			return nil, info, err
		}
	} else {
		if info.TornBytes > 0 {
			if err := os.Truncate(lastPath, keepBytes); err != nil {
				return nil, info, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(lastPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, info, err
		}
		if info.TornBytes > 0 {
			// Make the truncation itself durable before anything is
			// appended after it.
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, info, err
			}
		}
		l.f = wrapFile(l.wrap, f)
		l.segPath = lastPath
		l.written = keepBytes
	}
	go l.flusher()
	return l, info, nil
}

func wrapFile(wrap func(File) File, f File) File {
	if wrap != nil {
		return wrap(f)
	}
	return f
}

// createSegment starts a fresh segment whose first record will be
// firstLSN. Caller holds fmu (or is Open, pre-concurrency).
func (l *Log) createSegment(firstLSN uint64) error {
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.f = wrapFile(l.wrap, f)
	l.segPath = path
	l.written = 0
	syncDir(l.dir)
	return nil
}

// syncDir fsyncs a directory so entry creation/removal survives a
// crash; best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Append assigns the records, at least one, consecutive LSNs and queues
// them for the flusher as one group: every record but the last gets More, so
// recovery replays the group only once it has read all of it. The
// group's frames enter the pending buffer together, which a flush
// writes whole to one segment. It returns the last record's LSN,
// without doing I/O in group mode — callers hold the engine's commit
// lock here, and must call WaitDurable after releasing it. In SyncEach
// mode the group is written and fsynced before returning.
//
// extra:acquires wal.mu.W
func (l *Log) Append(recs ...*Record) (uint64, error) {
	// An oversize record would be written but rejected as tail garbage
	// by the next recovery — acknowledged yet unrecoverable. Refuse the
	// group here, before it takes an LSN; the error is not sticky, the
	// group simply never enters the log.
	for _, r := range recs {
		if sz := r.PayloadSize(); sz > MaxRecord {
			return 0, fmt.Errorf("wal: %w (payload %d bytes, limit %d)", ErrTooLarge, sz, MaxRecord)
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.appendErr != nil {
		err := l.appendErr
		l.mu.Unlock()
		return 0, err
	}
	for i, r := range recs {
		r.More = i < len(recs)-1
		r.LSN = l.nextLSN
		l.nextLSN++
		l.buf = appendFrame(l.buf, r)
	}
	lsn := l.nextLSN - 1
	l.bufUpto = lsn
	l.mu.Unlock()

	if l.mode == SyncEach {
		if err := l.flush(); err != nil {
			return lsn, err
		}
		return lsn, nil
	}
	if l.mode == SyncNone {
		// No committer will call WaitDurable, so the background flusher
		// is what moves the buffer to the OS.
		select {
		case l.flushReq <- struct{}{}:
		default: // a flush is already pending; it will pick this record up
		}
	}
	// SyncGroup: the WaitDurable leader flushes; signaling the flusher
	// here would only make it race the leader for fmu.
	return lsn, nil
}

// WaitDurable blocks until every record up to lsn is written and
// fsynced (or the log hit a write error, which it returns). Call after
// releasing the engine commit lock so concurrent committers' fsyncs
// coalesce.
//
// Group commit is leader/follower: the first committer to reach the
// file lock flushes the whole pending batch itself (no goroutine
// hand-off on the hot path); committers that find a flush in flight
// wait for its broadcast, then either observe their LSN durable or
// become the leader of the next batch — which holds exactly the
// records that accumulated while the previous fsync ran.
//
// fmu is not held only by flushers: TruncateThrough's segment GC and
// the Syncs counter read take it too, and neither ends in a
// broadcast. A waiter that loses the TryLock race therefore may not
// assume the holder will wake it — it signals the background flusher
// before parking, so some flush (and its broadcast, or its sticky
// error) is always forthcoming.
//
// extra:acquires wal.fmu.W
// extra:acquires wal.dmu.W
func (l *Log) WaitDurable(lsn uint64) error {
	if l.mode == SyncNone {
		return nil
	}
	for {
		l.dmu.Lock()
		durable, syncErr := l.durable, l.syncErr
		l.dmu.Unlock()
		if durable >= lsn {
			return nil
		}
		if syncErr != nil {
			return syncErr
		}
		if l.fmu.TryLock() {
			err := l.flushLocked()
			l.fmu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		l.dmu.Lock()
		if l.durable < lsn && l.syncErr == nil {
			// The fmu holder may never broadcast (segment GC, stats); make
			// the flusher responsible for waking us. By this point our
			// record is in the buffer, so either an in-flight flush snaps a
			// buffer containing it and broadcasts, or this signal (or the
			// one already pending) triggers a flush that does.
			select {
			case l.flushReq <- struct{}{}:
			default:
			}
			l.cond.Wait()
		}
		l.dmu.Unlock()
	}
}

// Durable returns the highest fsynced LSN.
//
// extra:acquires wal.dmu.W
func (l *Log) Durable() uint64 {
	l.dmu.Lock()
	defer l.dmu.Unlock()
	return l.durable
}

// NextLSN returns the LSN the next appended record will get.
//
// extra:acquires wal.mu.W
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Syncs returns how many fsyncs the log has issued; commits divided by
// fsyncs is the group-commit amortization factor.
//
// extra:acquires wal.fmu.W
func (l *Log) Syncs() uint64 {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	return l.syncs
}

// flusher is the group-commit goroutine: every wakeup drains whatever
// has been appended since the last flush with one write and one fsync.
func (l *Log) flusher() {
	defer close(l.done)
	for {
		select {
		case <-l.quit:
			// Final drain so Close leaves nothing buffered.
			_ = l.flush()
			return
		case <-l.flushReq:
			_ = l.flush() // error is sticky; waiters see it
		}
	}
}

// flush writes the pending buffer and makes it durable, advancing the
// watermark and waking waiters. Serialized by fmu so a rotation never
// races an fsync on the same file.
//
// extra:acquires wal.fmu.W
func (l *Log) flush() error {
	l.fmu.Lock()
	err := l.flushLocked()
	l.fmu.Unlock()
	return err
}

// flushLocked is flush with fmu already held (the WaitDurable group
// leader calls it under its TryLock).
//
// extra:requires wal.fmu.W
func (l *Log) flushLocked() error {
	l.mu.Lock()
	buf := l.buf
	upto := l.bufUpto
	l.buf = nil
	l.mu.Unlock()

	// Nothing new: every byte previously written was fsynced by the
	// flush that wrote it, so losing the leader election to a flush
	// that already drained the buffer costs no I/O.
	if len(buf) == 0 {
		return nil
	}

	_, err := l.f.Write(buf)
	l.written += int64(len(buf))
	if err == nil && l.mode != SyncNone {
		obs := l.obs.Load()
		var start time.Time
		if obs != nil {
			start = time.Now()
		}
		err = l.f.Sync()
		l.syncs++
		if obs != nil && err == nil {
			obs.fsync.Observe(time.Since(start))
			obs.group.ObserveCount(pendingRecords(buf))
		}
	}
	if err == nil && l.written >= l.segBytes {
		err = l.rotate()
	}

	if err != nil {
		l.mu.Lock()
		l.appendErr = err
		l.mu.Unlock()
		l.dmu.Lock()
		l.syncErr = err
		l.cond.Broadcast()
		l.dmu.Unlock()
		return err
	}
	if upto > 0 {
		l.dmu.Lock()
		if upto > l.durable {
			l.durable = upto
			l.cond.Broadcast()
		}
		l.dmu.Unlock()
	}
	return nil
}

// rotate closes the current segment and starts the next one. Caller
// holds fmu and has synced the current segment.
//
// extra:requires wal.fmu.W
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	l.mu.Lock()
	next := l.nextLSN
	buffered := l.bufUpto > 0 && len(l.buf) > 0
	if buffered {
		// Unwritten appends belong to the new segment: its first
		// record is the first one still in the buffer.
		next = l.bufUpto - uint64(pendingRecords(l.buf)) + 1
	}
	l.mu.Unlock()
	return l.createSegment(next)
}

// pendingRecords counts the framed records in an encoded buffer.
func pendingRecords(buf []byte) int {
	n := 0
	for len(buf) >= frameHeader {
		size := int(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3]))
		if len(buf) < frameHeader+size {
			break
		}
		buf = buf[frameHeader+size:]
		n++
	}
	return n
}

// Flush forces everything appended so far onto stable storage and
// returns the LSN of the last appended record. Checkpoint uses it to
// pin the log position its dump covers.
func (l *Log) Flush() (uint64, error) {
	l.mu.Lock()
	last := l.nextLSN - 1
	l.mu.Unlock()
	if err := l.flush(); err != nil {
		return 0, err
	}
	return last, nil
}

// TruncateThrough removes whole segments whose records are all at or
// below lsn — the checkpoint GC. The live segment is rotated first so
// it too becomes removable. Safe to crash anywhere inside: recovery
// skips records at or below the checkpoint LSN it reads from the dump.
//
// extra:acquires wal.fmu.W
func (l *Log) TruncateThrough(lsn uint64) error {
	l.fmu.Lock()
	defer l.fmu.Unlock()
	if l.written > 0 {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	segs, err := listSegments(l.dir)
	if err != nil {
		return err
	}
	for i, name := range segs {
		// A segment's records end where the next segment starts; only a
		// segment entirely at or below lsn may go, and never the last.
		if i == len(segs)-1 {
			break
		}
		nextFirst, _ := segFirstLSN(segs[i+1])
		if nextFirst <= lsn+1 {
			if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
				return err
			}
		}
	}
	syncDir(l.dir)
	return nil
}

// Close drains pending appends, fsyncs, and closes the segment.
//
// extra:acquires wal.mu.W
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.fmu.Lock()
	defer l.fmu.Unlock()
	// Wake any remaining waiters: everything flushable has been
	// flushed; anything beyond the watermark failed with syncErr.
	l.dmu.Lock()
	if l.syncErr == nil {
		l.syncErr = fmt.Errorf("wal: log closed")
	}
	l.cond.Broadcast()
	l.dmu.Unlock()
	return l.f.Close()
}
