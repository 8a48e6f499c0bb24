// Package realstore is an extravet fixture that plants one walcheck and
// one snapcheck violation against the engine's own object store, so
// the analyzers are shown to discover object.Store itself, not only the
// miniature stores of the other fixtures.
package realstore

import "repro/internal/object"

// publishUnannotated publishes the store without extra:mutates.
func publishUnannotated(s *object.Store) error {
	_, err := s.Commit() // want `publishes store state with Commit but is not annotated extra:mutates`
	return err
}

// readLive is a pinned-read root that reads the live store instead of
// the snapshot it took.
//
// extra:snapshot
func readLive(s *object.Store) bool {
	_ = s.Snapshot()
	return s.IsObjectExtent("People") // want `on the live store from snapshot context`
}
