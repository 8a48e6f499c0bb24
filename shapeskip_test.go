//go:build !race

// The race detector makes sync.Pool drop a random share of what is put
// back, and the front end's scan buffers are pooled, so allocation
// counts are only exact without it.

package extra_test

import (
	"fmt"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// freshHitAllocs is what one fresh-literal ad-hoc lookup that matches
// no row allocates end to end: the frame and its literal, the lifted
// form and the memo's text entry for the text, and the execution state,
// index probe and empty result.
const freshHitAllocs = 13

// TestAdhocShapeSkipsParser: after the first text of a shape, ad-hoc
// lookups with fresh literals are answered by the front-end memo's
// token shape and the plan cache, so 1 000 of them parse nothing and
// plan nothing — parse.full and plan.cache.misses stay where they were
// — and each still returns its own literal's rows, as the reference
// evaluator computes them. One such hit allocates the same at 2 000 and
// 20 000 employees, and no more than freshHitAllocs.
func TestAdhocShapeSkipsParser(t *testing.T) {
	const lookup = `retrieve (E.name, E.age) from E in Employees where E.salary = %d`
	var allocs [2]uint64
	for si, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxSalary: 1000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`define index emp_sal on Employees (salary)`)
		db.MustQuery(fmt.Sprintf(lookup, 0)) // the shape's first text: parsed, planned and memoized
		before := db.MetricsSnapshot().Counters
		for i := 1; i <= 1000; i++ {
			src := fmt.Sprintf(lookup, i)
			res := db.MustQuery(src)
			if si == 1 && i%100 != 0 {
				continue // the oracle decodes the whole database per call
			}
			want, err := extra.OracleRows(db, src)
			if err != nil {
				t.Fatal(err)
			}
			if err := extra.DiffRows(src, extra.CanonRows(res), want); err != nil {
				t.Fatal(err)
			}
		}
		after := db.MetricsSnapshot().Counters
		for name, want := range map[string]uint64{"parse.full": 0, "plan.cache.misses": 0, "parse.memo.shape_hits": 1000} {
			if got := after[name] - before[name]; got != want {
				t.Errorf("%d employees: %s moved by %d over 1 000 fresh literals, want %d", n, name, got, want)
			}
		}
		texts := make([]string, 1001)
		for i := range texts {
			texts[i] = fmt.Sprintf(lookup, 1_000_000+i) // above MaxSalary: no row at either size
		}
		next := 0
		allocs[si] = uint64(testing.AllocsPerRun(len(texts)-1, func() {
			if res := db.MustQuery(texts[next]); len(res.Rows) != 0 {
				t.Fatalf("%s returned %d rows", texts[next], len(res.Rows))
			}
			next++
		}))
		t.Logf("%d employees: %d allocations per fresh-literal hit", n, allocs[si])
		db.Close()
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a fresh-literal hit allocates %d at 2 000 employees, %d at 20 000", allocs[0], allocs[1])
	}
	if allocs[0] > freshHitAllocs {
		t.Errorf("a fresh-literal hit allocates %d, pinned at %d", allocs[0], freshHitAllocs)
	}
}
