package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func mkRecord(i int) *Record {
	return &Record{
		Kind:    RecordStmt,
		Session: int64(i % 3),
		User:    "dba",
		Src:     fmt.Sprintf("append to People (name = \"p%d\", age = %d)", i, 20+i),
		Data:    [][]byte{[]byte{byte(i)}, []byte("param")},
	}
}

// collect reopens the log dir and returns every intact record.
func collect(t *testing.T, dir string, opts Options) ([]*Record, RecoverInfo, *Log) {
	t.Helper()
	var got []*Record
	opts.Replay = func(r *Record) error {
		cp := *r
		got = append(got, &cp)
		return nil
	}
	l, info, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return got, info, l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, info, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if info.Records != 0 {
		t.Fatalf("fresh log has %d records", info.Records)
	}
	var want []*Record
	for i := 0; i < 50; i++ {
		r := mkRecord(i)
		lsn, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, info, l2 := collect(t, dir, Options{Sync: SyncEach})
	defer l2.Close()
	if info.Records != 50 || info.LastLSN != 50 || info.TornBytes != 0 {
		t.Fatalf("recover info = %+v", info)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	// Appends continue after the last recovered LSN.
	lsn, err := l2.Append(mkRecord(99))
	if err != nil || lsn != 51 {
		t.Fatalf("append after recovery: lsn=%d err=%v", lsn, err)
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncEach, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append(mkRecord(i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation, have segments %v", segs)
	}
	got, info, l2 := collect(t, dir, Options{Sync: SyncEach, SegmentBytes: 256})
	if len(got) != 40 || info.LastLSN != 40 {
		t.Fatalf("recovered %d records (info %+v)", len(got), info)
	}

	// Checkpoint GC: everything through LSN 40 is dumped elsewhere.
	if _, err := l2.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := l2.TruncateThrough(40); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	segs, _ = listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("after truncate, segments = %v", segs)
	}
	if _, err := l2.Append(mkRecord(41)); err != nil {
		t.Fatalf("append after truncate: %v", err)
	}
	l2.Close()

	// Reopen with the checkpoint handshake: only the post-checkpoint
	// record replays.
	got, info, l3 := collect(t, dir, Options{Sync: SyncEach, SegmentBytes: 256, CheckpointLSN: 40})
	defer l3.Close()
	if len(got) != 1 || got[0].LSN != 41 {
		t.Fatalf("post-checkpoint replay = %d records (info %+v)", len(got), info)
	}
}

func TestCheckpointWithEmptyDirStartsAboveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncNone, CheckpointLSN: 120})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	lsn, err := l.Append(mkRecord(1))
	if err != nil || lsn != 121 {
		t.Fatalf("append got lsn %d err %v, want 121", lsn, err)
	}
}

func TestMissingSegmentDetected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncEach, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append(mkRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, have %v", segs)
	}
	// Removing a middle segment must fail recovery loudly, not lose the
	// middle of the log silently.
	if err := os.Remove(filepath.Join(dir, segs[1])); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Sync: SyncEach}); err == nil {
		t.Fatal("Open succeeded over a missing middle segment")
	}
}

func TestGroupCommitConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn, err := l.Append(mkRecord(g*per + i))
				if err != nil {
					errs <- err
					return
				}
				if err := l.WaitDurable(lsn); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, info, l2 := collect(t, dir, Options{})
	defer l2.Close()
	if len(got) != goroutines*per || info.LastLSN != goroutines*per {
		t.Fatalf("recovered %d records, want %d (info %+v)", len(got), goroutines*per, info)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d", i, r.LSN)
		}
	}
}

// An oversize record must be refused at Append — were it written, the
// next recovery would treat its frame as tail garbage, silently
// truncating an acknowledged commit.
func TestAppendRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(mkRecord(0)); err != nil {
		t.Fatal(err)
	}
	big := &Record{Kind: RecordStmt, User: "dba", Src: string(make([]byte, MaxRecord+1))}
	if _, err := l.Append(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize append: err = %v, want ErrTooLarge", err)
	}
	// The rejection is not sticky and consumed no LSN.
	lsn, err := l.Append(mkRecord(1))
	if err != nil || lsn != 2 {
		t.Fatalf("append after rejection: lsn = %d, err = %v, want lsn 2", lsn, err)
	}
	l.Close()
	got, info, l2 := collect(t, dir, Options{Sync: SyncEach})
	defer l2.Close()
	if len(got) != 2 || info.LastLSN != 2 || info.TornBytes != 0 {
		t.Fatalf("recovered %d records (info %+v), want the 2 accepted ones", len(got), info)
	}
}

// A committer whose WaitDurable finds fmu held by something that will
// never broadcast (TruncateThrough's segment GC, a Syncs poll) must
// not park forever: it signals the background flusher before waiting.
func TestWaitDurableNotStrandedByNonFlushingLockHolder(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	lsn, err := l.Append(mkRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate TruncateThrough holding the file lock across the whole
	// window where the committer arrives: TryLock fails, and this holder
	// will release without flushing or broadcasting.
	l.fmu.Lock()
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	select {
	case err := <-done:
		t.Fatalf("WaitDurable returned (%v) while fmu was held and nothing was durable", err)
	case <-time.After(50 * time.Millisecond):
	}
	l.fmu.Unlock()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitDurable: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable still parked after fmu was released: lost wakeup")
	}
	if d := l.Durable(); d < lsn {
		t.Fatalf("durable = %d, want >= %d", d, lsn)
	}
}

func TestInjectedWriteFaultFailsCommitAndKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	var ff *FaultFile
	l, _, err := Open(dir, Options{
		Sync: SyncEach,
		WrapFile: func(f File) File {
			ff = NewFaultFile(f)
			return ff
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(mkRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// The 6th write tears mid-frame: 11 bytes reach the file, then the
	// device "dies".
	ff.FailWrite(1, 11)
	if _, err := l.Append(mkRecord(5)); err == nil {
		t.Fatal("append over injected write fault succeeded")
	}
	// The log is now wedged: the error is sticky.
	if _, err := l.Append(mkRecord(6)); err == nil {
		t.Fatal("append after sticky error succeeded")
	}
	l.Close()

	got, info, l2 := collect(t, dir, Options{Sync: SyncEach})
	defer l2.Close()
	if len(got) != 5 {
		t.Fatalf("recovered %d records, want the 5-record committed prefix", len(got))
	}
	if info.TornBytes != 11 {
		t.Fatalf("TornBytes = %d, want 11", info.TornBytes)
	}
}

func TestInjectedSyncFaultPropagatesToWaiters(t *testing.T) {
	dir := t.TempDir()
	var ff *FaultFile
	l, _, err := Open(dir, Options{
		Sync: SyncGroup,
		WrapFile: func(f File) File {
			ff = NewFaultFile(f)
			return ff
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ff.FailSync(true)
	lsn, err := l.Append(mkRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err == nil {
		t.Fatal("WaitDurable returned nil over an injected fsync failure")
	}
}

// TestAppendGroupReplaysWhole: Append frames a group with More on every
// record but the last; recovery hands the group over whole, and a group
// whose closing record never reached the file is torn: none of it is
// replayed, its frames are truncated with the tail, and the next append
// takes its first LSN.
func TestAppendGroupReplaysWhole(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(mkRecord(0)); err != nil || lsn != 1 {
		t.Fatalf("single append: lsn %d, err %v", lsn, err)
	}
	group := []*Record{mkRecord(1), mkRecord(2), mkRecord(3)}
	if lsn, err := l.Append(group...); err != nil || lsn != 4 {
		t.Fatalf("group append: lsn %d, err %v", lsn, err)
	}
	l.Close()
	got, info, l2 := collect(t, dir, Options{Sync: SyncEach})
	l2.Close()
	if len(got) != 4 || info.LastLSN != 4 {
		t.Fatalf("replayed %d records up to lsn %d, want 4", len(got), info.LastLSN)
	}
	for i, r := range got {
		if want := i == 1 || i == 2; r.More != want {
			t.Errorf("record %d: More = %v, want %v", r.LSN, r.More, want)
		}
	}

	// An open group: frames of LSN 5 and 6 with More, and no record 7.
	path := filepath.Join(dir, segName(1))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var open []byte
	for _, lsn := range []uint64{5, 6} {
		r := mkRecord(int(lsn))
		r.LSN, r.More = lsn, true
		open = appendFrame(open, r)
	}
	if err := os.WriteFile(path, append(clean, open...), 0o644); err != nil {
		t.Fatal(err)
	}
	got, info, l3 := collect(t, dir, Options{Sync: SyncEach})
	if len(got) != 4 || info.TornBytes != int64(len(open)) {
		t.Fatalf("open group: replayed %d records, %d torn bytes; want 4 and %d", len(got), info.TornBytes, len(open))
	}
	if lsn, err := l3.Append(mkRecord(9)); err != nil || lsn != 5 {
		t.Fatalf("append after the torn group: lsn %d, err %v; want 5", lsn, err)
	}
	l3.Close()
	if onDisk, _ := os.ReadFile(path); !bytes.HasPrefix(onDisk, clean) || len(onDisk) == len(clean)+len(open) {
		t.Fatal("the torn group's frames stayed in the segment")
	}
}

// TestAppendGroupRefusedWhole: a group with one oversize record is
// refused before any of it takes an LSN.
func TestAppendGroupRefusedWhole(t *testing.T) {
	l, _, err := Open(t.TempDir(), Options{Sync: SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	big := &Record{Kind: RecordData, Src: string(make([]byte, MaxRecord+1))}
	if _, err := l.Append(mkRecord(0), big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize group: err = %v, want ErrTooLarge", err)
	}
	if next := l.NextLSN(); next != 1 {
		t.Fatalf("the refused group took LSNs: next %d", next)
	}
}
