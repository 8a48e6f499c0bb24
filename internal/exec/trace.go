package exec

import (
	"repro/internal/excess/sema"
	"repro/internal/trace"
	"repro/internal/value"
)

// This file is the executor's face of the span-tracing substrate: the
// per-statement State carries the sampled statement's span builder (nil
// when unsampled — every trace call below is a nil-receiver no-op), and
// the update entry points wrap their implementations in operator spans
// carrying the row counts they touched. Retrieve operator spans are not
// opened here: the session layer synthesizes them from the plan's
// runtime actuals after the run, so the pipeline's hot loop stays
// untouched; only the hash-join build — a discrete, materializing step —
// opens its span live (see buildJoinTable).

// SetTrace attaches the sampled statement's span builder to this
// statement state; nil detaches. The database layer calls it once per
// statement, right after the sampling decision.
func (ex *State) SetTrace(a *trace.Active) { ex.tr = a }

// Trace returns the statement's span builder (nil when unsampled).
func (ex *State) Trace() *trace.Active { return ex.tr }

// opSpan opens an operator span for one update statement.
func (ex *State) opSpan(name string) int {
	return ex.tr.StartSpan(trace.KindOperator, name)
}

// endOpSpan closes an update statement's operator span, recording the
// rows it touched.
func (ex *State) endOpSpan(sp int, rows int) {
	ex.tr.AttrInt(sp, "rows", int64(rows))
	ex.tr.EndSpan(sp)
}

// Append executes a checked append, returning the number of elements
// appended (one per binding of the from/where clause; one when the
// statement has no bindings).
//
// extra:requires db.wmu.W
func (ex *State) Append(ca *sema.CheckedAppend) (int, error) {
	sp := ex.opSpan("append")
	n, err := ex.appendStmt(ca)
	ex.endOpSpan(sp, n)
	return n, err
}

// Delete executes a checked delete: removes the variable's bindings from
// their collection, destroying owned objects.
//
// extra:requires db.wmu.W
func (ex *State) Delete(cd *sema.CheckedDelete) (int, error) {
	sp := ex.opSpan("delete")
	n, err := ex.deleteStmt(cd)
	ex.endOpSpan(sp, n)
	return n, err
}

// Replace executes a checked replace: per matching binding, assigns the
// attributes and stores the object (or rewrites the owning container for
// own elements without identity).
//
// extra:requires db.wmu.W
func (ex *State) Replace(cr *sema.CheckedReplace) (int, error) {
	sp := ex.opSpan("replace")
	n, err := ex.replaceStmt(cr)
	ex.endOpSpan(sp, n)
	return n, err
}

// Set executes a checked set statement: the from/where clause must bind
// at most one row (zero bindings with variables is an error; a set with
// no variables always has its one empty binding).
//
// extra:requires db.wmu.W
func (ex *State) Set(cs *sema.CheckedSet) error {
	sp := ex.opSpan("set")
	err := ex.setStmt(cs)
	ex.endOpSpan(sp, 1)
	return err
}

// Execute runs a checked procedure invocation: the body executes once
// per binding of the from/where clause with the arguments bound as
// parameters (the generalized IDM stored command).
//
// extra:requires db.wmu.W
func (ex *State) Execute(ce *sema.CheckedExecute, runBody func(frame []value.Value) error) (int, error) {
	sp := ex.opSpan("execute " + ce.Proc.Name)
	n, err := ex.executeStmt(ce, runBody)
	ex.endOpSpan(sp, n)
	return n, err
}
