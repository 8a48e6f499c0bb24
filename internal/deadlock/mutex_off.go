//go:build !deadlockcheck

package deadlock

import "sync"

// Enabled reports whether the build carries the lock-order sentinel.
const Enabled = false

// Mutex is a plain sync.Mutex in the untagged build; SetName is free.
type Mutex struct {
	sync.Mutex
}

// SetName is a no-op without the deadlockcheck tag.
func (m *Mutex) SetName(string) {}

// Register installs a rank for a lock name; a no-op without the tag.
func Register(string, int) {}
