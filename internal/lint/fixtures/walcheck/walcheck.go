// Package walcheck is an extravet fixture: a miniature store with a
// Commit publication point plus WAL plumbing (a MaxRecord limit, a
// sizable Record, an extra:logs append). The fixtures cover walcheck's
// three rules: coverage (Commit callers must carry extra:mutates), reach
// (publications must hit the log), and hygiene (stale annotations are
// errors).
package walcheck

// MaxRecord is the fixture's record size limit; mentioning it is a
// sizing event.
const MaxRecord = 1 << 10

// Record is a loggable mutation description.
type Record struct {
	Data []byte
}

// PayloadSize measures the encoded record; calling it is a sizing
// event.
func (r *Record) PayloadSize() int { return len(r.Data) + 8 }

// Store publishes its writes with Commit, which makes it a store: Commit
// is the publication point.
type Store struct {
	vars map[string]int
}

// Set mutates store state.
func (s *Store) Set(name string, v int) {
	s.vars[name] = v
}

// Commit publishes the accumulated writes.
func (s *Store) Commit() (bool, error) {
	return true, nil
}

// appendRecord is the WAL plumbing: it enforces the size limit and
// "appends". Annotated extra:logs, and clean because it sizes.
//
// extra:logs
func appendRecord(r *Record) error {
	if r.PayloadSize() > MaxRecord {
		return errTooLarge
	}
	return nil
}

var errTooLarge = errLarge{}

type errLarge struct{}

func (errLarge) Error() string { return "record too large" }

// goodPublish sizes the record, mutates, commits, then appends: every
// rule satisfied.
//
// extra:mutates
func goodPublish(s *Store, r *Record) error {
	if r.PayloadSize() > MaxRecord {
		return errTooLarge
	}
	s.Set("k", 1)
	if _, err := s.Commit(); err != nil {
		return err
	}
	return appendRecord(r)
}

// goodDelegatedSizing sizes through the extra:logs plumbing.
//
// extra:mutates
func goodDelegatedSizing(s *Store, r *Record) error {
	if err := appendRecord(r); err != nil {
		return err
	}
	s.Set("k", 2)
	_, err := s.Commit()
	return err
}

// badUnannotated publishes with Commit but carries no extra:mutates, so
// walcheck cannot verify that it reaches the log.
func badUnannotated(s *Store, r *Record) {
	s.Set("k", 3)
	s.Commit() // want `publishes store state with Commit but is not annotated extra:mutates`
	appendRecord(r)
}

// badNoLog publishes but nothing below it ever reaches the WAL: when a
// log is configured this mutation would be unrecoverable.
//
// extra:mutates
func badNoLog(s *Store, r *Record) { // want `never reaches a WAL append`
	if r.PayloadSize() > MaxRecord {
		return
	}
	s.Set("k", 4)
	s.Commit()
}

// goodSizeAfterMutation mutates, then sizes while appending: the order
// is free, because a write that fails before it publishes is aborted.
//
// extra:mutates
func goodSizeAfterMutation(s *Store, r *Record) error {
	s.Set("k", 5)
	if _, err := s.Commit(); err != nil {
		return err
	}
	return appendRecord(r)
}

// rawAppend is extra:logs by delegation to appendRecord rather than by
// a sizing mention of its own — the logStmt shape; clean.
//
// extra:logs
func rawAppend(r *Record) error { return appendRecord(r) }

// staleMutates claims to publish but never reaches Commit.
//
// extra:mutates
func staleMutates(s *Store) { // want `annotated extra:mutates but never reaches Store.Commit`
	_ = s.vars["k"]
}

// staleLogs claims to be WAL plumbing but neither sizes a record nor
// delegates to any.
//
// extra:logs
func staleLogs(r *Record) error { // want `annotated extra:logs but never sizes a record`
	_ = r
	return nil
}
