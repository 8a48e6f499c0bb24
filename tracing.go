package extra

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/trace"
)

// This file is the database layer's side of statement tracing: the
// sampling configuration surface, the conversion of finished statements
// into metrics and retained traces (of which the slow-query log is a
// view), and the synthesis of operator/storage spans from an
// instrumented retrieve's runtime actuals. The span model itself lives
// in internal/trace.

// Trace re-exports one completed statement trace (see DB.LastTrace,
// DB.TraceByID and trace.Render).
type Trace = trace.Trace

// TracerStats re-exports the tracer's lifecycle counters.
type TracerStats = trace.Stats

// WithTracing configures statement tracing at Open: one statement in
// every is sampled into a full span tree (0 disables, 1 traces every
// statement) and the last capacity retained traces are kept. One ring
// holds the sampled traces and the slow statements (see
// WithSlowQueryLog), first in, first out, so with sampling on the two
// share capacity. The default is tracing off with a ring of 32;
// sampling can be changed at run time with SetTraceSampling.
func WithTracing(every, capacity int) Option {
	return func(c *config) {
		c.traceEvery = every
		c.traceCap = capacity
	}
}

// Tracer exposes the statement tracer (sampling control, retained
// traces, lifecycle stats).
func (db *DB) Tracer() *trace.Tracer { return db.tracer }

// SetTraceSampling adjusts the head-sampling rate at run time: 0
// disables tracing, 1 traces every statement, N traces one in N. The
// decision is made once per statement, so an unsampled statement that
// is not slow pays two atomic loads (the draw and the slow threshold)
// and nothing else.
func (db *DB) SetTraceSampling(every int) { db.tracer.SetEvery(every) }

// LastTrace returns the most recently retained trace, or nil.
func (db *DB) LastTrace() *Trace { return db.tracer.Last() }

// TraceByID returns the retained trace with the given id, or nil when
// it aged out of the ring.
func (db *DB) TraceByID(id uint64) *Trace { return db.tracer.Get(id) }

// Traces returns the retained traces, oldest first.
func (db *DB) Traces() []*Trace { return db.tracer.Traces() }

// finishTrace records one finished Exec/Query call that ended with err:
// a success feeds the phase histograms and the row count (an error is
// counted in stmt.errors by the caller), and the trace is sealed into
// the ring when the statement was sampled — an error annotated, failed
// statements being the ones worth looking at — or succeeded over the
// slow threshold. Only a retained statement takes a lock, the ring's.
// user is captured by the caller inside its lock window — snapshot
// readers finish outside any engine lock, where reading s.user
// directly would race SetUser.
func (db *DB) finishTrace(sid int64, user, src, kind string, tr *trace.StmtTrace, start time.Time, err error) {
	total := time.Since(start)
	if err == nil {
		db.hParse.Observe(tr.Dur(trace.PhaseParse))
		db.hCheck.Observe(tr.Dur(trace.PhaseCheck))
		db.hPlan.Observe(tr.Dur(trace.PhasePlan))
		db.hCompile.Observe(tr.Dur(trace.PhaseCompile))
		db.hExecute.Observe(tr.Dur(trace.PhaseExecute))
		db.hStmt.Observe(total)
		db.cRows.Add(uint64(tr.Rows))
	}
	tr.Finish(src, sid, user, kind, total, err)
}

// addRetrieveSpans converts an instrumented retrieve's runtime actuals
// into spans under the (still open) execute phase: one operator span
// per plan node, nested to mirror the nested-iteration pipeline, plus a
// storage span counting object fetches.
//
// A node's span duration is its own self time plus everything inner —
// the pipeline's cumulative cost from that node down — matching how the
// operators actually contain each other at run time.
func addRetrieveSpans(tr *trace.StmtTrace, pt trace.PhaseTimer, plan *algebra.Plan, rt *algebra.PlanRuntime) {
	a := tr.Active()
	execSpan := pt.Span()
	start := pt.Start()
	durs := make([]time.Duration, len(plan.Nodes)+1)
	for i := len(plan.Nodes) - 1; i >= 0; i-- {
		durs[i] = durs[i+1] + rt.Nodes[i].Time
	}
	parent := execSpan
	for i := range plan.Nodes {
		nr := rt.Nodes[i]
		sp := a.AddSpan(parent, trace.KindOperator, plan.DescribeNode(i), start, durs[i])
		a.AttrInt(sp, "loops", nr.Loops)
		a.AttrInt(sp, "rows_in", nr.RowsIn)
		a.AttrInt(sp, "rows_out", nr.RowsOut)
		if plan.Nodes[i].Hash != nil {
			a.AttrInt(sp, "hash_probes", nr.HashProbes)
			a.AttrInt(sp, "hash_hits", nr.HashHits)
			a.AttrInt(sp, "hash_memo_hits", nr.HashMemoHits)
		}
		parent = sp
	}
	sp := a.AddSpan(execSpan, trace.KindStorage, "derefs", start, 0)
	a.AttrInt(sp, "count", rt.DerefMisses)
}
