//go:build deadlockcheck

package deadlock

import (
	"strings"
	"testing"
)

// Tagged-build tests: the sentinel must panic on rank inversions with
// both acquisition stacks in the message, and must ignore unnamed
// locks entirely.

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected a lock-order panic containing %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v does not mention %q", r, want)
		}
	}()
	f()
}

func TestInversionPanics(t *testing.T) {
	var wmu, mu Mutex
	wmu.SetName("db.wmu")
	mu.SetName("wal.mu")

	mu.Lock()
	defer mu.Unlock()
	mustPanic(t, "lock order violation", func() { wmu.Lock() })
}

func TestTryLockInversionPanics(t *testing.T) {
	var fmu, dmu Mutex
	fmu.SetName("wal.fmu")
	dmu.SetName("wal.dmu")

	dmu.Lock()
	defer dmu.Unlock()
	mustPanic(t, `acquiring "wal.fmu"`, func() { fmu.TryLock() })
}

func TestPanicCarriesFirstStack(t *testing.T) {
	var wmu, mu Mutex
	wmu.SetName("db.wmu")
	mu.SetName("wal.mu")

	mu.Lock()
	defer mu.Unlock()
	mustPanic(t, "acquired at:", func() { wmu.Lock() })
}

func TestUnnamedLocksUntracked(t *testing.T) {
	var a, b Mutex // never named: plain mutexes
	var mu Mutex
	mu.SetName("wal.mu")
	mu.Lock()
	a.Lock()
	b.Lock()
	b.Unlock()
	a.Unlock()
	mu.Unlock()
}

func TestReleaseRestoresOrder(t *testing.T) {
	var wmu, mu Mutex
	wmu.SetName("db.wmu")
	mu.SetName("wal.mu")

	// Release before the lower-rank acquisition: legal.
	mu.Lock()
	mu.Unlock()
	wmu.Lock()
	mu.Lock()
	mu.Unlock()
	wmu.Unlock()
}

func TestRegisterRanksTestLocks(t *testing.T) {
	var hi, lo Mutex
	hi.SetName("test.hi")
	lo.SetName("test.lo")
	Register("test.lo", 1)
	Register("test.hi", 2)

	lo.Lock()
	hi.Lock()
	hi.Unlock()
	lo.Unlock()

	hi.Lock()
	defer hi.Unlock()
	mustPanic(t, `acquiring "test.lo"`, func() { lo.Lock() })
}
