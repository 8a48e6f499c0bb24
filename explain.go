package extra

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/excess/ast"
	"repro/internal/excess/scan"
	"repro/internal/excess/sema"
	"repro/internal/trace"
)

// ErrNotRetrieve reports that a statement given to a retrieve-only
// entry point (Query, Explain, ExplainAnalyze) is not a retrieve.
var ErrNotRetrieve = errors.New("not a retrieve statement")

// ExplainOutput re-exports the machine-readable EXPLAIN ANALYZE
// document (see DB.ExplainAnalyzeJSON for the serialized form).
type ExplainOutput = algebra.AnalyzeReport

// Explain type-checks and plans a retrieve statement and returns the
// optimizer's plan as an indented text tree — which access method each
// variable uses, where each predicate conjunct was attached, and the
// universally quantified residue. The query is not executed.
//
// extra:output
// extra:snapshot
func (db *DB) Explain(src string) (string, error) {
	toks, err := scan.All(src)
	if err != nil {
		return "", err
	}
	st, err := db.parseSingle(toks)
	if err != nil {
		return "", err
	}
	r, ok := st.(*ast.Retrieve)
	if !ok {
		return "", fmt.Errorf("explain: %w", ErrNotRetrieve)
	}
	if db.closed.Load() {
		return "", errDBClosed
	}
	// Planning never executes the query; a pinned snapshot suffices even
	// for retrieve into, and gives check and cardinality estimation one
	// stable version of schema and data.
	es := db.exec.NewState()
	defer es.Release()
	es.BindSnapshot(db.store.Snapshot())
	sem := db.def.sem.Load()
	// When the default session already executed this statement's shape,
	// show the plan the engine would actually serve — the cache hit,
	// rendered with its "(cached)" marker and with the statement's own
	// literals in its slots. The lookup does not populate the cache:
	// explaining a statement is not executing it.
	if r.Into == "" {
		shape, args, slots, _ := liftLiterals(r, toks)
		if e := db.plans.peek(planKeyFor(es, sem, planKeyText(shape, slots))); e != nil {
			plan := e.plan.Clone()
			plan.Args = args
			return plan.Explain(), nil
		}
	}
	cq, err := sema.NewChecker(es.Catalog(), sem, nil).CheckRetrieve(r)
	if err != nil {
		return "", err
	}
	plan := es.Plan(cq.Query)
	return plan.Explain(), nil
}

// ExplainAnalyze executes a retrieve with per-operator instrumentation
// and renders the plan tree annotated with actuals: rows in/out, loops
// and self time per operator, plus residual filter, quantification,
// aggregation, object-fetch and phase-timing totals. Unlike Explain,
// the query (including any into clause) really runs.
//
// extra:output
func (db *DB) ExplainAnalyze(src string) (string, error) {
	plan, sum, err := db.analyze(src)
	if err != nil {
		return "", err
	}
	return plan.ExplainAnalyze(sum), nil
}

// ExplainAnalyzeReport is ExplainAnalyze returning the structured
// document instead of rendered text.
//
// extra:output
func (db *DB) ExplainAnalyzeReport(src string) (*ExplainOutput, error) {
	plan, sum, err := db.analyze(src)
	if err != nil {
		return nil, err
	}
	return plan.Report(sum), nil
}

// ExplainAnalyzeJSON is ExplainAnalyze with machine-readable JSON
// output.
//
// extra:output
func (db *DB) ExplainAnalyzeJSON(src string) (string, error) {
	rep, err := db.ExplainAnalyzeReport(src)
	if err != nil {
		return "", err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// analyze runs one retrieve through the statement pipeline in its
// instrumented mode and assembles the statement-level summary from what
// the pipeline measured: the trace's phase durations, the result, and
// the analysis the execute step kept. The query really runs, as the
// statement it is — classified, locked, counted, traced, slow-logged
// and (a retrieve into) published and WAL-logged like any other; on a
// plan-cache hit the check and plan phases are the zero they cost.
func (db *DB) analyze(src string) (*algebra.Plan, algebra.AnalyzeSummary, error) {
	c, err := db.def.parseRetrieve(src, "explain analyze: %w")
	if err != nil {
		return nil, algebra.AnalyzeSummary{}, err
	}
	var an analysis
	c.analysis = &an
	res, err := db.def.run(&c)
	if err != nil {
		return nil, algebra.AnalyzeSummary{}, err
	}
	db.metrics.Counter("stmt.analyze").Inc()
	sum := algebra.AnalyzeSummary{
		Parse:      c.tr.Dur(trace.PhaseParse),
		Check:      c.tr.Dur(trace.PhaseCheck),
		Plan:       c.tr.Dur(trace.PhasePlan),
		Execute:    c.tr.Dur(trace.PhaseExecute),
		Rows:       len(res.Rows),
		Aggregated: an.aggregated,
	}
	if an.aggregated {
		sum.Groups = len(res.Rows)
	}
	return an.plan, sum, nil
}
