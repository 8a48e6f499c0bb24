//go:build deadlockcheck

package deadlock

import (
	"fmt"
	"runtime"
	"sync"
)

// Enabled reports whether the build carries the lock-order sentinel.
const Enabled = true

// state is the sentinel's global acquisition table: per goroutine, the
// stack of tracked locks currently held, each with the call stack that
// took it. Guarded by its own plain mutex — the sentinel must not
// recurse into itself.
var state struct {
	mu    sync.Mutex
	ranks map[string]int
	held  map[uint64][]*held
}

type held struct {
	name string
	rank int
	pcs  []uintptr
}

func init() {
	state.ranks = make(map[string]int, len(engineRanks))
	for name, r := range engineRanks {
		state.ranks[name] = r
	}
	state.held = make(map[uint64][]*held)
}

// Register installs (or overrides) the rank for a lock name. Tests use
// it to rank their own fixture locks; the engine's locks are ranked at
// init from engineRanks.
func Register(name string, rank int) {
	state.mu.Lock()
	defer state.mu.Unlock()
	state.ranks[name] = rank
}

// gid parses the current goroutine's id out of the runtime.Stack
// header ("goroutine 123 [running]:"). Slow-path tooling only.
func gid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func callers() []uintptr {
	pcs := make([]uintptr, 32)
	return pcs[:runtime.Callers(3, pcs)]
}

func formatStack(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	out := ""
	for {
		f, more := frames.Next()
		out += fmt.Sprintf("\t%s\n\t\t%s:%d\n", f.Function, f.File, f.Line)
		if !more {
			break
		}
	}
	return out
}

// beforeAcquire panics if taking name now would violate the rank order
// on this goroutine. Called before blocking on the underlying lock so
// an inversion is reported even on runs where the timing happens to
// dodge the actual deadlock.
func beforeAcquire(name string) {
	if name == "" {
		return
	}
	g := gid()
	state.mu.Lock()
	rank, tracked := state.ranks[name]
	if !tracked {
		state.mu.Unlock()
		return
	}
	for _, h := range state.held[g] {
		if h.rank >= rank {
			first := formatStack(h.pcs)
			state.mu.Unlock()
			panic(fmt.Sprintf("deadlock: lock order violation on goroutine %d: acquiring %q (rank %d) while holding %q (rank %d)\n%q acquired at:\n%s",
				g, name, rank, h.name, h.rank, h.name, first))
		}
	}
	state.mu.Unlock()
}

func afterAcquire(name string) {
	if name == "" {
		return
	}
	g := gid()
	state.mu.Lock()
	if _, tracked := state.ranks[name]; tracked {
		state.held[g] = append(state.held[g], &held{name: name, rank: state.ranks[name], pcs: callers()})
	}
	state.mu.Unlock()
}

func release(name string) {
	if name == "" {
		return
	}
	g := gid()
	state.mu.Lock()
	hs := state.held[g]
	for i := len(hs) - 1; i >= 0; i-- {
		if hs[i].name == name {
			state.held[g] = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(state.held[g]) == 0 {
		delete(state.held, g)
	}
	state.mu.Unlock()
}

// Mutex wraps sync.Mutex with rank-order checking under deadlockcheck.
type Mutex struct {
	mu   sync.Mutex
	name string
}

// SetName names the lock and activates tracking for it. Call once,
// before the lock is shared.
func (m *Mutex) SetName(name string) { m.name = name }

func (m *Mutex) Lock() {
	beforeAcquire(m.name)
	m.mu.Lock()
	afterAcquire(m.name)
}

func (m *Mutex) TryLock() bool {
	// A failed TryLock cannot deadlock, so the order check runs only on
	// success: a TryLock that succeeded out of rank still holds locks
	// in an order the contract forbids.
	if !m.mu.TryLock() {
		return false
	}
	beforeAcquire(m.name)
	afterAcquire(m.name)
	return true
}

func (m *Mutex) Unlock() {
	release(m.name)
	m.mu.Unlock()
}
