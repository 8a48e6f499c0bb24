package wal

import (
	"errors"
	"sync"
)

// ErrInjected is the error every injected fault returns, so tests can
// distinguish planted failures from real ones.
var ErrInjected = errors.New("injected fault")

// FaultFile wraps a segment File and injects write-path failures: fail
// the Nth write outright, tear it (persist only a prefix of the bytes,
// then fail — the partial-sector write a power cut leaves behind), or
// fail fsync. It is the robustness harness's fault injector: the log is
// the engine's only I/O.
type FaultFile struct {
	inner File

	mu sync.Mutex // extra:lock faultfile.mu
	// failAfterWrites counts down on every Write; when it reaches zero
	// the write fails (after persisting tornBytes of the buffer).
	// Negative means no write fault is armed.
	failAfterWrites int
	// tornBytes is how much of the failing write still reaches the
	// file — a torn tail for recovery to detect and discard.
	tornBytes int
	failSync  bool
	writes    int
	synced    int
}

// NewFaultFile wraps f with no faults armed.
func NewFaultFile(f File) *FaultFile {
	return &FaultFile{inner: f, failAfterWrites: -1}
}

// FailWrite arms a write fault: the n-th Write from now (1-based)
// fails after persisting only tornBytes of its buffer.
//
// extra:acquires faultfile.mu.W
func (f *FaultFile) FailWrite(n, tornBytes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAfterWrites = n - 1
	f.tornBytes = tornBytes
}

// FailSync makes every subsequent Sync fail.
//
// extra:acquires faultfile.mu.W
func (f *FaultFile) FailSync(fail bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync = fail
}

// Writes returns how many Write calls the file has seen.
//
// extra:acquires faultfile.mu.W
func (f *FaultFile) Writes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writes
}

// Write implements File.
//
// extra:acquires faultfile.mu.W
func (f *FaultFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.writes++
	fire := f.failAfterWrites == 0
	torn := f.tornBytes
	if f.failAfterWrites >= 0 {
		f.failAfterWrites--
	}
	f.mu.Unlock()
	if fire {
		if torn > len(p) {
			torn = len(p)
		}
		if torn > 0 {
			f.inner.Write(p[:torn]) //nolint:errcheck // the injected error supersedes
		}
		return torn, ErrInjected
	}
	return f.inner.Write(p)
}

// Sync implements File.
//
// extra:acquires faultfile.mu.W
func (f *FaultFile) Sync() error {
	f.mu.Lock()
	fail := f.failSync
	f.synced++
	f.mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.inner.Sync()
}

// Syncs returns how many Sync calls the file has seen — the durability
// benchmark's fsync-amortization counter.
//
// extra:acquires faultfile.mu.W
func (f *FaultFile) Syncs() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.synced
}

// Close implements File.
func (f *FaultFile) Close() error { return f.inner.Close() }
