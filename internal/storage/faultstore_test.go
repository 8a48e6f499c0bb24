package storage

import (
	"bytes"
	"errors"
	"testing"
)

func TestFaultStoreWriteFaultTearsPage(t *testing.T) {
	inner := NewMemStore()
	fs := NewFaultStore(inner)
	id, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0xAA}, PageSize)
	if err := fs.Write(id, old); err != nil {
		t.Fatalf("unfaulted write: %v", err)
	}

	// Arm: the next write tears after 100 bytes.
	fs.FailWrite(1, 100)
	next := bytes.Repeat([]byte{0xBB}, PageSize)
	if err := fs.Write(id, next); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrInjected", err)
	}

	// The page holds the new prefix over the old tail — a torn write,
	// not an atomic all-or-nothing failure.
	got := make([]byte, PageSize)
	if err := fs.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:100], next[:100]) {
		t.Fatal("torn prefix did not persist")
	}
	if !bytes.Equal(got[100:], old[100:]) {
		t.Fatal("tail beyond the tear point was overwritten")
	}

	// The fault is one-shot: the following write goes through.
	if err := fs.Write(id, next); err != nil {
		t.Fatalf("write after fault fired: %v", err)
	}
	if fs.Writes() != 3 {
		t.Fatalf("Writes() = %d, want 3", fs.Writes())
	}
}

func TestFaultStoreFailWriteNth(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	id, _ := fs.Allocate()
	buf := make([]byte, PageSize)
	fs.FailWrite(3, 0) // fail the 3rd write from now, nothing persisted
	for i := 1; i <= 2; i++ {
		if err := fs.Write(id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := fs.Write(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("3rd write error = %v, want ErrInjected", err)
	}
}

func TestFaultStoreShortReads(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	id, _ := fs.Allocate()
	full := bytes.Repeat([]byte{0x5C}, PageSize)
	if err := fs.Write(id, full); err != nil {
		t.Fatal(err)
	}
	fs.ShortReads(64)
	got := make([]byte, PageSize)
	if err := fs.Read(id, got); err != nil {
		t.Fatalf("short read errored: %v", err)
	}
	if !bytes.Equal(got[:64], full[:64]) {
		t.Fatal("short read lost the delivered prefix")
	}
	for i := 64; i < PageSize; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d beyond the short read is %#x, want 0", i, got[i])
		}
	}
	fs.ShortReads(0) // disarm
	if err := fs.Read(id, got); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("disarmed read: %v", err)
	}
	if fs.Reads() != 2 {
		t.Fatalf("Reads() = %d, want 2", fs.Reads())
	}
}

// TestPoolSurvivesFailedWriteBack pins two fixes on the eviction path
// a failed write-back takes. The dirty victim used to leave the LRU list
// without leaving the pool, so its frame could never be evicted again
// and a one-frame pool refused every later page; and a PinNew that got
// no frame kept the page it had allocated.
func TestPoolSurvivesFailedWriteBack(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	pool := NewBufferPool(fs, 1)
	a, buf, err := pool.PinNew()
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xA1
	pool.Unpin(a)
	fs.FailWrite(1, 0)
	if _, _, err := pool.PinNew(); !errors.Is(err, ErrInjected) {
		t.Fatalf("PinNew over a failing write-back = %v, want ErrInjected", err)
	}
	if n := fs.NumPages(); n != 1 {
		t.Errorf("the failed PinNew left %d pages allocated, want 1", n)
	}
	b, _, err := pool.PinNew()
	if err != nil {
		t.Fatalf("PinNew after the fault: %v", err)
	}
	pool.Unpin(b)
	got := make([]byte, PageSize)
	if err := fs.Read(a, got); err != nil || got[0] != 0xA1 {
		t.Fatalf("the victim's write-back after the fault: %v, byte %#x", err, got[0])
	}
}
