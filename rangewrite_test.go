package extra_test

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRangeReplaceWorkIndependentOfSize checks, from the engine's own
// output, that a range replace pays for its range: on a company of 2 000
// and of 20 000 employees, EXPLAIN ANALYZE shows one two-sided probe
// yielding the range's k rows, and the replace's commit reports k
// objects in mvcc.commit.dirty_objs.
func TestRangeReplaceWorkIndependentOfSize(t *testing.T) {
	const (
		k     = 50
		where = ` from E in Employees where E.name >= "emp-000100" and E.name < "emp-000150"`
	)
	for _, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Departments: 20, Employees: n, MaxKids: 2, Seed: 5}, 0)
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`define index EmpName on Employees (name)`)
		rep, err := db.ExplainAnalyzeReport(`retrieve (E.name)` + where)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Plan) != 1 || !strings.Contains(rep.Plan[0].Op, "index probe EmpName on Employees [>= <]") {
			t.Fatalf("%d employees: plan %+v, want one two-sided probe of EmpName", n, rep.Plan)
		}
		if got := rep.Plan[0].Actual.RowsIn; got != k {
			t.Errorf("%d employees: the probe yields %d rows, want %d", n, got, k)
		}
		dirty := func() (count, sum uint64) {
			h := db.MetricsSnapshot().Histograms["mvcc.commit.dirty_objs"]
			return h.Count, h.SumNS
		}
		c0, s0 := dirty()
		db.MustExec(`replace E (age = E.age + 1)` + where)
		c1, s1 := dirty()
		if c1-c0 != 1 || s1-s0 != k {
			t.Errorf("%d employees: the replace made %d commits decoding %d objects, want 1 and %d", n, c1-c0, s1-s0, k)
		}
		db.Close()
	}
}
