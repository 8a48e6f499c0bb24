// Package realstore is an extravet fixture that plants a snapcheck
// violation against the engine's own object store, so the analyzer is
// shown to discover object.Store itself, not only the miniature store
// of its own fixture.
package realstore

import "repro/internal/object"

// readLive is a pinned-read root that reads the live store instead of
// the snapshot it took.
//
// extra:snapshot
func readLive(s *object.Store) bool {
	_ = s.Snapshot()
	return s.IsObjectExtent("People") // want `on the live store from snapshot context`
}
