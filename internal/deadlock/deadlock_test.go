package deadlock

import (
	"sync"
	"testing"
)

// The untagged wrapper must behave exactly like sync.Mutex; the tagged
// build layers order checking on top (sentinel_test.go). Both builds
// run this file: basic mutual exclusion, sync.Cond compatibility
// through the Locker interface, and TryLock semantics.

func TestMutexBasics(t *testing.T) {
	var m Mutex
	m.SetName("db.wmu")
	m.Lock()
	if m.TryLock() {
		t.Fatal("TryLock succeeded while held")
	}
	m.Unlock()
	if !m.TryLock() {
		t.Fatal("TryLock failed while free")
	}
	m.Unlock()
}

func TestCondCompat(t *testing.T) {
	var m Mutex
	m.SetName("wal.dmu")
	cond := sync.NewCond(&m)
	woken := false
	m.Lock()
	go func() {
		m.Lock()
		woken = true
		cond.Signal()
		m.Unlock()
	}()
	for !woken {
		cond.Wait()
	}
	m.Unlock()
}

func TestOrderedAcquisitionAllowed(t *testing.T) {
	// The engine's full chain in rank order must never trip the
	// sentinel; this is the "reports clean" baseline the tagged CI job
	// relies on.
	var wmu, fmu, wmu2, dmu Mutex
	wmu.SetName("db.wmu")
	fmu.SetName("wal.fmu")
	wmu2.SetName("wal.mu")
	dmu.SetName("wal.dmu")

	wmu.Lock()
	fmu.Lock()
	wmu2.Lock()
	dmu.Lock()
	dmu.Unlock()
	wmu2.Unlock()
	fmu.Unlock()
	wmu.Unlock()
}
