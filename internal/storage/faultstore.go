package storage

import (
	"errors"
	"sync"
)

// ErrInjected is returned by every fault FaultStore plants, so tests
// can tell planted failures from real ones.
var ErrInjected = errors.New("injected fault")

// FaultStore wraps a PageStore and injects storage failures: fail the
// Nth page write outright, tear it (persist only a prefix of the page,
// then fail — what a power cut mid-sector-chain leaves), or return
// short/corrupt reads. It is the page-store half of the robustness
// harness; the WAL-side half is wal.FaultFile.
type FaultStore struct {
	inner PageStore

	mu sync.Mutex // extra:lock faultstore.mu
	// failAfterWrites counts down on every Write; at zero the write
	// fails after persisting tornBytes of the page. Negative = disarmed.
	failAfterWrites int
	tornBytes       int
	// shortReads makes every Read return only the first shortReadLen
	// bytes of the page, zero-filling the rest (a short read surfaced as
	// corrupt page contents). 0 = disarmed.
	shortReadLen int
	writes       int
	reads        int
}

// NewFaultStore wraps inner with no faults armed.
func NewFaultStore(inner PageStore) *FaultStore {
	return &FaultStore{inner: inner, failAfterWrites: -1}
}

// FailWrite arms a write fault: the n-th Write from now (1-based) fails
// after persisting only tornBytes of the page.
//
// extra:acquires faultstore.mu.W
func (f *FaultStore) FailWrite(n, tornBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfterWrites = n - 1
	f.tornBytes = tornBytes
}

// ShortReads makes every subsequent Read deliver only the first n bytes
// of the page (rest zeroed); n <= 0 disarms.
//
// extra:acquires faultstore.mu.W
func (f *FaultStore) ShortReads(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shortReadLen = n
}

// Writes returns how many page writes the store has seen.
//
// extra:acquires faultstore.mu.W
func (f *FaultStore) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Reads returns how many page reads the store has seen.
//
// extra:acquires faultstore.mu.W
func (f *FaultStore) Reads() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads
}

// Allocate implements PageStore.
func (f *FaultStore) Allocate() (PageID, error) { return f.inner.Allocate() }

// Read implements PageStore.
//
// extra:acquires faultstore.mu.W
func (f *FaultStore) Read(id PageID, buf []byte) error {
	f.mu.Lock()
	f.reads++
	short := f.shortReadLen
	f.mu.Unlock()
	if err := f.inner.Read(id, buf); err != nil {
		return err
	}
	if short > 0 && short < len(buf) {
		for i := short; i < len(buf); i++ {
			buf[i] = 0
		}
	}
	return nil
}

// Write implements PageStore.
//
// extra:acquires faultstore.mu.W
func (f *FaultStore) Write(id PageID, buf []byte) error {
	f.mu.Lock()
	f.writes++
	fire := f.failAfterWrites == 0
	torn := f.tornBytes
	if f.failAfterWrites >= 0 {
		f.failAfterWrites--
	}
	f.mu.Unlock()
	if fire {
		if torn > len(buf) {
			torn = len(buf)
		}
		if torn > 0 {
			// The torn prefix lands over the page's previous contents:
			// read-modify-write so the tail keeps its old bytes, the way a
			// partial overwrite of a sector chain does.
			old := make([]byte, len(buf))
			if err := f.inner.Read(id, old); err == nil {
				copy(old[:torn], buf[:torn])
				f.inner.Write(id, old) //nolint:errcheck // the injected error supersedes
			}
		}
		return ErrInjected
	}
	return f.inner.Write(id, buf)
}

// Free implements PageStore.
func (f *FaultStore) Free(id PageID) error { return f.inner.Free(id) }

// NumPages implements PageStore.
func (f *FaultStore) NumPages() int { return f.inner.NumPages() }
