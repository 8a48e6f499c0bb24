package extra

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/excess/ast"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/types"
	"repro/internal/value"
)

// Stmt is a prepared statement: one EXCESS statement parsed once, with
// $1..$n parameter slots typed from their use sites, then executed any
// number of times with only argument binding and execution on the hot
// path.
//
// A Stmt holds no compilation of its own. A retrieve's checked tree and
// plan live in the engine plan cache like any other statement's, under
// the key text the Stmt printed once; the Stmt keeps a pointer to the
// entry it was last served and revalidates it with the comparison the
// cache itself uses, so DDL or a redeclared range transparently
// compiles afresh instead of serving a stale plan.
// Non-retrieve statements amortize parsing and parameter typing; their
// checked forms capture catalog state that updates themselves
// invalidate, so they re-check per execution.
//
// A Stmt is safe for concurrent use for read-only statements, exactly
// like the Session it was prepared on.
type Stmt struct {
	sess  *Session
	src   string
	stmts []ast.Statement // the one statement, in the shape the pipeline takes
	// ptypes holds the inferred type of each $N slot (index N-1); nil
	// entries are dynamically typed (converted from the Go native's own
	// shape at bind time). frame is the slots as the checker and the
	// executor see them, the dynamically typed ones as varchar.
	ptypes []types.Type
	frame  []sema.Param
	// keyText is the text component of a retrieve's planKey (planKeyText):
	// the printed statement plus the slot types, which its checked tree
	// equally depends on. An ad-hoc statement of the same shape — its
	// literals lifted into slots of the same types — shares the entry.
	keyText string
	last    atomic.Pointer[planEntry]
	closed  atomic.Bool
}

// Prepare parses and type-checks one statement on the DB's default
// session, returning the reusable compiled form. Parameter slots are
// written $1..$n.
func (db *DB) Prepare(src string) (*Stmt, error) { return db.def.Prepare(src) }

// Prepare parses and type-checks one statement for this session,
// against the published catalog.
func (s *Session) Prepare(src string) (*Stmt, error) {
	db := s.db
	st, err := parse.One(src, db.reg)
	if err != nil {
		return nil, err
	}
	if db.closed.Load() {
		return nil, errDBClosed
	}
	ck := s.checker(db.Catalog(), nil)
	if err := probeCheck(ck, st); err != nil {
		return nil, err
	}
	ptypes := ck.Placeholders()
	stmt := &Stmt{sess: s, src: src, stmts: []ast.Statement{st}, ptypes: ptypes, frame: placeholderFrame(ptypes, len(ptypes))}
	if r, ok := st.(*ast.Retrieve); ok {
		stmt.keyText = planKeyText(r, ptypes)
	}
	return stmt, nil
}

// probeCheck runs the statement through its checker so placeholder slots
// get counted and typed. DDL statements have no expression positions and
// pass through unchecked (they re-validate at execution, as unprepared
// execution does).
func probeCheck(ck *sema.Checker, st ast.Statement) error {
	var err error
	switch st := st.(type) {
	case *ast.Retrieve:
		_, err = ck.CheckRetrieve(st)
	case *ast.Append:
		_, err = ck.CheckAppend(st)
	case *ast.Delete:
		_, err = ck.CheckDelete(st)
	case *ast.Replace:
		_, err = ck.CheckReplace(st)
	case *ast.SetStmt:
		_, err = ck.CheckSet(st)
	case *ast.Execute:
		_, err = ck.CheckExecute(st)
	}
	return err
}

// NumParams returns the number of $N parameter slots.
func (st *Stmt) NumParams() int { return len(st.ptypes) }

// Src returns the statement's source text.
func (st *Stmt) Src() string { return st.src }

// Close drops the retained plan entry. Exec after Close errors.
func (st *Stmt) Close() error {
	st.closed.Store(true)
	st.last.Store(nil)
	return nil
}

// Exec runs the prepared statement with the given arguments bound to
// $1..$n. Arguments are Go natives (int, int64, float64, string, bool),
// Obj handles or prebuilt values, converted through the slot's inferred
// type. It returns the retrieve's result set (nil for other statement
// kinds). After binding, the statement takes the same pipeline as an
// unprepared one (Session.run): a retrieve without into pins a snapshot
// and runs lock-free, anything else serializes on the write lock,
// publishes its snapshot and is logged — with its bound arguments — to
// the WAL. On a retrieve's steady state nothing is parsed, checked or
// planned.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	start := time.Now()
	if st.closed.Load() {
		return nil, fmt.Errorf("prepared statement is closed")
	}
	if len(args) != len(st.ptypes) {
		return nil, fmt.Errorf("statement has %d parameters, got %d arguments",
			len(st.ptypes), len(args))
	}
	scope, err := st.bindArgs(args)
	if err != nil {
		return nil, err
	}
	return st.sess.run(&stmtCall{stmts: st.stmts, src: st.src, start: start, params: scope, prepared: st})
}

// MustExec runs the prepared statement and panics on error.
func (st *Stmt) MustExec(args ...any) *Result {
	r, err := st.Exec(args...)
	if err != nil {
		panic(err)
	}
	return r
}

// bindArgs converts Go arguments into the $N parameter frame.
func (st *Stmt) bindArgs(args []any) (*paramScope, error) {
	if len(args) == 0 {
		return nil, nil
	}
	db := st.sess.db
	vals := make([]value.Value, len(args))
	for i, raw := range args {
		p := st.frame[i]
		v, err := db.valueFromGo(types.Component{Mode: types.Own, Type: p.T}, raw)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		vals[i] = v
	}
	return &paramScope{frame: st.frame, values: vals}, nil
}

// placeholderFrame is the frame of n $N slots typed by ptypes (index
// N-1), a slot the statement does not type being varchar: its argument
// keeps the Go native's own shape.
func placeholderFrame(ptypes []types.Type, n int) []sema.Param {
	frame := make([]sema.Param, n)
	for i := range frame {
		frame[i] = sema.Param{Name: "$" + strconv.Itoa(i+1), T: types.Varchar}
		if i < len(ptypes) && ptypes[i] != nil {
			frame[i].T = ptypes[i]
		}
	}
	return frame
}
