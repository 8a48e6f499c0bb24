package extra

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/trace"
)

// This file is the database layer's side of statement tracing: the
// sampling configuration surface, the conversion of finished statements
// into metrics + slow-log + retained traces, and the synthesis of
// operator/storage spans from an instrumented retrieve's runtime
// actuals. The span model itself lives in internal/trace.

// Trace re-exports one completed statement trace (see DB.LastTrace,
// DB.TraceByID and trace.Render).
type Trace = trace.Trace

// TracerStats re-exports the tracer's lifecycle counters.
type TracerStats = trace.Stats

// WithTracing configures statement tracing at Open: one statement in
// every is sampled into a full span tree (0 disables, 1 traces every
// statement) and the last capacity sampled traces are retained. The
// default is tracing off with a ring of 16; sampling can be changed at
// run time with SetTraceSampling.
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
// decision is made once per statement, so an unsampled statement pays
// one atomic load and nothing else.
func (db *DB) SetTraceSampling(every int) { db.tracer.SetEvery(every) }

// LastTrace returns the most recently completed sampled trace, or nil.
func (db *DB) LastTrace() *Trace { return db.tracer.Last() }

// TraceByID returns the retained trace with the given id, or nil when
// it aged out of the ring.
func (db *DB) TraceByID(id uint64) *Trace { return db.tracer.Get(id) }

// Traces returns the retained traces, oldest first.
func (db *DB) Traces() []*Trace { return db.tracer.Traces() }

// finishTrace records one finished Exec/Query call: phase histograms
// and row counts into the registry for every statement, the slow-query
// ring (with the sampled trace's id, when there is one) when over
// threshold, and the sealed span tree into the tracer's ring when the
// statement was sampled. The histograms are atomic; only the slow-query
// ring needs its lock, so concurrent readers finishing simultaneously
// contend only on that. user is captured by the caller inside its lock
// window — snapshot readers finish outside any engine lock, where
// reading s.user directly would race SetUser.
//
// extra:acquires db.slowMu.W
func (db *DB) finishTrace(sid int64, user, src, kind string, tr *trace.StmtTrace, start time.Time) {
	total := time.Since(start)
	db.hParse.Observe(tr.Dur(trace.PhaseParse))
	db.hCheck.Observe(tr.Dur(trace.PhaseCheck))
	db.hPlan.Observe(tr.Dur(trace.PhasePlan))
	db.hCompile.Observe(tr.Dur(trace.PhaseCompile))
	db.hExecute.Observe(tr.Dur(trace.PhaseExecute))
	db.hStmt.Observe(total)
	db.cRows.Add(uint64(tr.Rows))
	traceID := tr.TraceID()
	tr.Finish(src, sid, user, kind, total)
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	if db.slowThreshold > 0 && total >= db.slowThreshold {
		entry := SlowQuery{
			Src: src, Session: sid, When: time.Now(), Total: total,
			Parse:   tr.Dur(trace.PhaseParse),
			Check:   tr.Dur(trace.PhaseCheck),
			Plan:    tr.Dur(trace.PhasePlan),
			Execute: tr.Dur(trace.PhaseExecute),
			Rows:    tr.Rows, TraceID: traceID,
		}
		if len(db.slow) < db.slowCap {
			db.slow = append(db.slow, entry)
			db.slowNext = len(db.slow) % db.slowCap
		} else {
			db.slow[db.slowNext] = entry
			db.slowNext = (db.slowNext + 1) % db.slowCap
		}
	}
}

// abortTrace seals a sampled trace when its statement errored, so spans
// never leak on the unwind path. Error statements keep the seed's
// metrics behavior (counted in stmt.errors, not observed in the phase
// histograms), but the trace — annotated with the error — is retained:
// failed statements are exactly the ones worth looking at.
func (db *DB) abortTrace(sid int64, user, src, kind string, tr *trace.StmtTrace, start time.Time, err error) {
	if !tr.Sampled() {
		return
	}
	tr.Active().Attr(0, "error", err.Error())
	tr.Finish(src, sid, user, kind, time.Since(start))
}

// addRetrieveSpans converts an instrumented retrieve's runtime actuals
// into spans under the (still open) execute phase: one operator span
// per plan node, nested to mirror the nested-iteration pipeline, plus
// storage spans attributing buffer-pool traffic and object fetches.
//
// A node's span duration is its own self time plus everything inner —
// the pipeline's cumulative cost from that node down — matching how the
// operators actually contain each other at run time. The pool delta
// comes from the pool's atomic counters bracketing the run: under
// concurrent statements a neighbour's traffic can bleed into it, the
// documented price of keeping Pin unhooked (see DESIGN.md §9).
func addRetrieveSpans(tr *trace.StmtTrace, pt trace.PhaseTimer, plan *algebra.Plan, rt *algebra.PlanRuntime, delta PoolStats) {
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
		a.AttrInt(sp, "pool_hits", int64(nr.PoolHits))
		a.AttrInt(sp, "pool_misses", int64(nr.PoolMisses))
		if plan.Nodes[i].Hash != nil {
			a.AttrInt(sp, "hash_probes", nr.HashProbes)
			a.AttrInt(sp, "hash_hits", nr.HashHits)
		}
		parent = sp
	}
	sp := a.AddSpan(execSpan, trace.KindStorage, "buffer pool", start, 0)
	a.AttrInt(sp, "hits", int64(delta.Hits))
	a.AttrInt(sp, "misses", int64(delta.Misses))
	if delta.Evictions > 0 {
		a.AttrInt(sp, "evictions", int64(delta.Evictions))
	}
	if delta.WriteBacks > 0 {
		a.AttrInt(sp, "writebacks", int64(delta.WriteBacks))
	}
	sp = a.AddSpan(execSpan, trace.KindStorage, "derefs", start, 0)
	a.AttrInt(sp, "count", rt.DerefMisses)
}
