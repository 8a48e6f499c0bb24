package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over its fixture package; the fixture's // want
// comments pin down every diagnostic (and, by omission, every line
// that must stay clean). These are the tests that fail if an analyzer
// stops catching what it exists to catch.

func TestLockCheck(t *testing.T) {
	linttest.Run(t, ".", "./fixtures/lockcheck", lint.LockCheck)
}

func TestAtomicCheck(t *testing.T) {
	linttest.Run(t, ".", "./fixtures/atomiccheck", lint.AtomicCheck)
}

func TestDetOrder(t *testing.T) {
	linttest.Run(t, ".", "./fixtures/detorder", lint.DetOrder)
}

func TestSnapCheck(t *testing.T) {
	linttest.Run(t, ".", "./fixtures/snapcheck", lint.SnapCheck)
}

func TestRealStoreViolations(t *testing.T) {
	linttest.Run(t, ".", "./fixtures/realstore", lint.SnapCheck)
}
