package storage

import (
	"fmt"
	"sync"
)

// PageStore is the medium under the buffer pool. Pages are an in-memory
// representation of the write path, not a durable medium: recovery
// reads the checkpoint dump and the logical WAL, never a page.
// Implementations must be safe for concurrent use.
type PageStore interface {
	// Allocate reserves a fresh page and returns its id. The page
	// contents are undefined until first written.
	Allocate() (PageID, error)
	// Read fills buf (len PageSize) with the page contents.
	Read(id PageID, buf []byte) error
	// Write persists buf (len PageSize) as the page contents.
	Write(id PageID, buf []byte) error
	// Free releases a page for reuse.
	Free(id PageID) error
	// NumPages returns the number of allocated pages (for stats).
	NumPages() int
}

// MemStore is an in-memory PageStore, the engine's one medium. It
// models the "disk" without I/O noise while still forcing all access
// through the buffer pool.
type MemStore struct {
	mu    sync.Mutex
	pages map[PageID][]byte
	free  []PageID
	next  PageID
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{pages: make(map[PageID][]byte)}
}

// Allocate implements PageStore.
func (m *MemStore) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var id PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		m.next++
		id = m.next
	}
	m.pages[id] = make([]byte, PageSize)
	return id, nil
}

// Read implements PageStore.
func (m *MemStore) Read(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("page %d not allocated", id)
	}
	copy(buf, p)
	return nil
}

// Write implements PageStore.
func (m *MemStore) Write(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("page %d not allocated", id)
	}
	copy(p, buf)
	return nil
}

// Free implements PageStore.
func (m *MemStore) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("page %d not allocated", id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}

// NumPages implements PageStore.
func (m *MemStore) NumPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}
