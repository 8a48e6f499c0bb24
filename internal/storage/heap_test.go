package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func newTestHeap() (*HeapFile, *BufferPool) {
	pool := NewBufferPool(NewMemStore(), 64)
	return NewHeapFile(pool), pool
}

func TestHeapBasics(t *testing.T) {
	h, _ := newTestHeap()
	r1, err := h.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(r1)
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get: %q %v", got, err)
	}
	if n, _ := h.Len(); n != 1 {
		t.Errorf("Len = %d", n)
	}
	if err := h.Delete(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(r1); err == nil {
		t.Error("deleted record readable")
	}
	if n, _ := h.Len(); n != 0 {
		t.Errorf("Len after delete = %d", n)
	}
}

func TestHeapManyPages(t *testing.T) {
	h, _ := newTestHeap()
	const n = 2000
	rids := make([]RID, n)
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("record-%05d", i))
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		rids[i] = rid
	}
	if h.NumPages() < 2 {
		t.Error("expected multiple pages")
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil || string(got) != fmt.Sprintf("record-%05d", i) {
			t.Fatalf("record %d: %q %v", i, got, err)
		}
	}
	// Scan visits everything exactly once.
	seen := map[string]bool{}
	err := h.Scan(func(rid RID, rec []byte) error {
		if seen[string(rec)] {
			return fmt.Errorf("duplicate %s", rec)
		}
		seen[string(rec)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Errorf("scan saw %d records", len(seen))
	}
}

func TestHeapOverflow(t *testing.T) {
	h, pool := newTestHeap()
	big := bytes.Repeat([]byte("x"), 3*PageSize+123) // spans 4 overflow pages
	rid, err := h.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Get(rid)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("overflow roundtrip: %d bytes, %v", len(got), err)
	}
	// Scan decodes overflow records too.
	found := false
	h.Scan(func(r RID, rec []byte) error {
		if bytes.Equal(rec, big) {
			found = true
		}
		return nil
	})
	if !found {
		t.Error("scan missed the overflow record")
	}
	// Deleting releases the chain pages.
	before := pool.Store().NumPages()
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if after := pool.Store().NumPages(); after >= before {
		t.Errorf("overflow pages not freed: %d -> %d", before, after)
	}
}

func TestHeapUpdate(t *testing.T) {
	h, _ := newTestHeap()
	rid, _ := h.Insert([]byte("small"))
	// In-place growth.
	nrid, err := h.Update(rid, bytes.Repeat([]byte("m"), 200))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := h.Get(nrid)
	if len(got) != 200 {
		t.Errorf("after update: %d", len(got))
	}
	// Grow into an overflow chain and back.
	nrid, err = h.Update(nrid, bytes.Repeat([]byte("L"), 2*PageSize))
	if err != nil {
		t.Fatal(err)
	}
	got, _ = h.Get(nrid)
	if len(got) != 2*PageSize {
		t.Errorf("overflow update: %d", len(got))
	}
	nrid, err = h.Update(nrid, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ = h.Get(nrid); string(got) != "tiny" {
		t.Errorf("shrink back: %q", got)
	}
}

// fillPage inserts four 900-byte records, which leave the heap's one
// data page without room for 1 500 bytes more, and returns their RIDs.
func fillPage(t *testing.T, h *HeapFile) []RID {
	t.Helper()
	var rids []RID
	for i := 0; i < 4; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte('a' + i)}, 900))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if n := h.NumPages(); n != 1 {
		t.Fatalf("setup: %d pages, want 1", n)
	}
	return rids
}

// TestHeapUpdateMoveUndoneWhenOldPageLost pins the other half of a move:
// when the insert succeeded but the old page cannot be pinned again for
// the delete, the new copy is deleted and the update reports the record
// unchanged, so the file never holds it twice.
func TestHeapUpdateMoveUndoneWhenOldPageLost(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	pool := NewBufferPool(fs, 1)
	h := NewHeapFile(pool)
	rids := fillPage(t, h)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// The insert evicts the clean old page; pinning it again evicts the
	// dirty new one, and that write-back fails.
	fs.FailWrite(1, 0)
	nrid, err := h.Update(rids[1], bytes.Repeat([]byte("g"), 1500))
	fs.FailWrite(0, 0) // disarm
	if !errors.Is(err, ErrInjected) || !nrid.IsNil() {
		t.Fatalf("Update = %s, %v; want a nil RID and the injected failure", nrid, err)
	}
	if got, err := h.Get(rids[1]); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("b"), 900)) {
		t.Fatalf("the record after the failed move: %d bytes, %v", len(got), err)
	}
	var n int
	if err := h.Scan(func(_ RID, rec []byte) error {
		if len(rec) != 900 {
			t.Errorf("a %d-byte record is left in the file", len(rec))
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if l, _ := h.Len(); n != 4 || l != 4 {
		t.Errorf("%d records scanned, Len %d; want 4", n, l)
	}
}

func TestHeapDropAll(t *testing.T) {
	h, pool := newTestHeap()
	for i := 0; i < 500; i++ {
		h.Insert(bytes.Repeat([]byte("d"), 64))
	}
	h.Insert(bytes.Repeat([]byte("D"), 2*PageSize)) // overflow too
	if err := h.DropAll(); err != nil {
		t.Fatal(err)
	}
	if pool.Store().NumPages() != 0 {
		t.Errorf("pages leak after DropAll: %d", pool.Store().NumPages())
	}
	if n, _ := h.Len(); n != 0 {
		t.Error("records survive DropAll")
	}
	// The heap is reusable afterwards.
	if _, err := h.Insert([]byte("again")); err != nil {
		t.Fatal(err)
	}
}

func TestHeapReopen(t *testing.T) {
	h, pool := newTestHeap()
	var rids []RID
	for i := 0; i < 300; i++ {
		rid, _ := h.Insert([]byte(fmt.Sprintf("v%d", i)))
		rids = append(rids, rid)
	}
	h2 := ReopenHeapFile(pool, h.Pages())
	got, err := h2.Get(rids[42])
	if err != nil || string(got) != "v42" {
		t.Fatalf("reopened get: %q %v", got, err)
	}
	// Inserts after reopen probe free space correctly.
	if _, err := h2.Insert([]byte("new")); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of inserts round-trips through the heap.
func TestHeapInsertProperty(t *testing.T) {
	f := func(recs [][]byte) bool {
		h, _ := newTestHeap()
		var rids []RID
		for _, r := range recs {
			rid, err := h.Insert(r)
			if err != nil {
				return false
			}
			rids = append(rids, rid)
		}
		for i, rid := range rids {
			got, err := h.Get(rid)
			if err != nil || !bytes.Equal(got, recs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
