package algebra

import (
	"fmt"
	"strings"
	"time"
)

// NodeRuntime accumulates the actuals of one plan node during an
// instrumented run (EXPLAIN ANALYZE). Plans execute on one goroutine,
// so plain fields suffice.
type NodeRuntime struct {
	Loops   int64         `json:"loops"`    // times the node was opened (once per outer binding)
	RowsIn  int64         `json:"rows_in"`  // elements the access method produced
	RowsOut int64         `json:"rows_out"` // bindings surviving the node's filter
	Time    time.Duration `json:"time_ns"`  // self time: enumeration + filters, excluding inner nodes

	// Hash-join actuals (nodes with a HashJoinPath).
	HashBuildRows int64 `json:"hash_build_rows,omitempty"` // rows materialized into the table
	HashProbes    int64 `json:"hash_probes,omitempty"`     // outer bindings probed
	HashHits      int64 `json:"hash_hits,omitempty"`       // rows the probes produced
	HashMemoHits  int64 `json:"hash_memo_hits,omitempty"`  // probes answered by the reference memo
}

// PlanRuntime holds the actuals of one instrumented execution: one
// NodeRuntime per plan node (parallel to Plan.Nodes) plus the residual
// filter, universal quantification and output totals.
type PlanRuntime struct {
	Nodes         []NodeRuntime `json:"nodes"`
	FinalIn       int64         `json:"final_in"`       // bindings reaching the residual filter
	FinalOut      int64         `json:"final_out"`      // bindings surviving it
	ForAllChecked int64         `json:"forall_checked"` // bindings entering quantification
	ForAllPassed  int64         `json:"forall_passed"`  // bindings surviving it
	Output        int64         `json:"output"`         // bindings delivered to the consumer

	// DerefMisses counts the objects this execution fetched by OID: index
	// probes, reference steps and ref-set members. DerefHits is always
	// zero. Both keep these names only for the benchmark harness, which
	// reads them; ROADMAP item 12 retires them with the harness's copy of
	// the statement path.
	DerefHits   int64 `json:"deref_hits,omitempty"`
	DerefMisses int64 `json:"deref_misses,omitempty"`
}

// EnableRuntime attaches (and returns) a fresh runtime accumulator; the
// executor records actuals only when one is present, so uninstrumented
// runs pay a single nil check per node.
func (p *Plan) EnableRuntime() *PlanRuntime {
	p.Runtime = &PlanRuntime{Nodes: make([]NodeRuntime, len(p.Nodes))}
	return p.Runtime
}

// AnalyzeSummary carries the statement-level actuals that live outside
// the plan tree: phase durations measured by the database layer and
// result shape.
type AnalyzeSummary struct {
	Parse      time.Duration `json:"parse_ns"`
	Check      time.Duration `json:"check_ns"`
	Plan       time.Duration `json:"plan_ns"`
	Execute    time.Duration `json:"execute_ns"`
	Rows       int           `json:"rows"`   // result rows (groups, for aggregates)
	Groups     int           `json:"groups"` // distinct groups seen (aggregated queries)
	Aggregated bool          `json:"aggregated"`
}

// AnalyzeReport is the machine-readable EXPLAIN ANALYZE document.
type AnalyzeReport struct {
	Plan    []AnalyzeNode  `json:"plan"`
	Final   []string       `json:"residual,omitempty"`
	ForAll  []string       `json:"forall,omitempty"`
	Runtime *PlanRuntime   `json:"runtime"`
	Summary AnalyzeSummary `json:"summary"`
}

// AnalyzeNode is one plan operator with its actuals.
type AnalyzeNode struct {
	Op      string      `json:"op"`
	Filters []string    `json:"filters,omitempty"`
	Actual  NodeRuntime `json:"actual"`
}

// Report assembles the machine-readable analyze document for an
// executed plan. It panics if EnableRuntime was not called.
func (p *Plan) Report(sum AnalyzeSummary) *AnalyzeReport {
	r := &AnalyzeReport{Runtime: p.Runtime, Summary: sum}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		an := AnalyzeNode{Op: p.DescribeNode(i), Actual: p.Runtime.Nodes[i]}
		for _, f := range n.Filter {
			an.Filters = append(an.Filters, p.exprString(f))
		}
		r.Plan = append(r.Plan, an)
	}
	for _, f := range p.Final {
		r.Final = append(r.Final, p.exprString(f))
	}
	for _, f := range p.ForAll {
		r.ForAll = append(r.ForAll, p.exprString(f))
	}
	return r
}

// ExplainAnalyze renders the plan tree annotated with the actuals of an
// instrumented execution, in the shape of Explain with one
// "(actual ...)" clause per operator and a statement summary footer.
//
// extra:output
func (p *Plan) ExplainAnalyze(sum AnalyzeSummary) string {
	rt := p.Runtime
	var b strings.Builder
	for i := range p.Nodes {
		n := &p.Nodes[i]
		indent := strings.Repeat("  ", i)
		fmt.Fprintf(&b, "%s-> %s\n", indent, p.DescribeNode(i))
		nr := rt.Nodes[i]
		fmt.Fprintf(&b, "%s   (actual rows=%d loops=%d in=%d time=%s)\n",
			indent, nr.RowsOut, nr.Loops, nr.RowsIn, fmtDur(nr.Time))
		if n.Hash != nil {
			fmt.Fprintf(&b, "%s   (hash build=%d probes=%d hits=%d memo_hits=%d)\n",
				indent, nr.HashBuildRows, nr.HashProbes, nr.HashHits, nr.HashMemoHits)
		}
		for _, f := range n.Filter {
			fmt.Fprintf(&b, "%s   filter: %s\n", indent, p.exprString(f))
		}
	}
	indent := strings.Repeat("  ", len(p.Nodes))
	for _, f := range p.Final {
		fmt.Fprintf(&b, "%sresidual: %s\n", indent, p.exprString(f))
	}
	if len(p.Final) > 0 {
		fmt.Fprintf(&b, "%s   (actual in=%d out=%d)\n", indent, rt.FinalIn, rt.FinalOut)
	}
	if len(p.Universal) > 0 {
		names := make([]string, len(p.Universal))
		for i, v := range p.Universal {
			names[i] = v.Name
		}
		fmt.Fprintf(&b, "%sforall %s:\n", indent, strings.Join(names, ", "))
		for _, f := range p.ForAll {
			fmt.Fprintf(&b, "%s  must hold: %s\n", indent, p.exprString(f))
		}
		fmt.Fprintf(&b, "%s  (actual checked=%d passed=%d)\n", indent, rt.ForAllChecked, rt.ForAllPassed)
	}
	if sum.Aggregated {
		fmt.Fprintf(&b, "aggregate: %d bindings into %d groups\n", rt.Output, sum.Groups)
	}
	fmt.Fprintf(&b, "rows: %d\n", sum.Rows)
	if rt.DerefMisses > 0 {
		fmt.Fprintf(&b, "derefs: %d\n", rt.DerefMisses)
	}
	fmt.Fprintf(&b, "timing: parse=%s check=%s plan=%s execute=%s\n",
		fmtDur(sum.Parse), fmtDur(sum.Check), fmtDur(sum.Plan), fmtDur(sum.Execute))
	return b.String()
}

// fmtDur renders durations at microsecond granularity so neighbouring
// runs of the same query produce comparable strings.
func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}
