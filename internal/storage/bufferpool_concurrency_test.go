package storage

import (
	"sync"
	"testing"
)

// TestPoolConcurrentPins hammers the pool from several goroutines, mixing hits, misses and evictions, and checks the atomic
// counters stay coherent: run with -race, and every sampled snapshot
// must be monotonic with hits+misses equal to the pins issued so far or
// less (never more).
func TestPoolConcurrentPins(t *testing.T) {
	store := NewMemStore()
	const pages = 256
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := store.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Half the pages fit, so evictions happen; the pool has many more
	// frames than there are goroutines, each of which holds one pin at a
	// time, so it cannot run out of unpinned frames.
	bp := NewBufferPool(store, 128)

	const goroutines = 8
	const pinsEach = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < pinsEach; i++ {
				id := ids[(i*7+g*13)%pages]
				buf, err := bp.Pin(id)
				if err != nil {
					t.Errorf("goroutine %d: pin %d: %v", g, id, err)
					return
				}
				if i%3 == 0 {
					buf[g] = byte(i) // a byte of its own: pins of one page overlap
					bp.MarkDirty(id)
				}
				bp.Unpin(id)
			}
		}(g)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := bp.Stats()
	for {
		s := bp.Stats()
		if s.Hits < prev.Hits || s.Misses < prev.Misses ||
			s.Evictions < prev.Evictions || s.Flushes < prev.Flushes ||
			s.WriteBacks < prev.WriteBacks {
			t.Fatalf("pool counters went backwards: %+v -> %+v", prev, s)
		}
		if s.Hits+s.Misses > goroutines*pinsEach {
			t.Fatalf("more pins counted than issued: %+v", s)
		}
		if s.WriteBacks > s.Flushes || s.WriteBacks > s.Evictions {
			t.Fatalf("write-backs exceed flushes or evictions: %+v", s)
		}
		prev = s
		select {
		case <-done:
			final := bp.Stats()
			if final.Hits+final.Misses != goroutines*pinsEach {
				t.Fatalf("final hits+misses = %d, want %d",
					final.Hits+final.Misses, goroutines*pinsEach)
			}
			if err := bp.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}
