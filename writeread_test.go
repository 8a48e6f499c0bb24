//go:build !race

// Allocation counts are only exact without the race detector, which makes
// sync.Pool drop a random share of what is put back.

package extra_test

import (
	"fmt"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// writeShape is one write statement whose read phase is counted: src
// prepared, and args giving the arguments of its i-th run.
type writeShape struct {
	name string
	src  string
	args func(i int) []any
}

// TestWriteReadPhaseWorkIndependentOfSize: the read phase of a write
// statement reads the store's frozen view. An append that finds its
// department by scanning Departments, and a replace that probes an index
// for its employee and scans Departments for the new one, seal the same
// directory entries and member-list chunks and allocate the same on a
// database of 20 and of 2 000 departments: each run writes one employee
// in one chunk, 8 entries and 8 chunks in 8 runs. A read phase that
// copied or decoded the departments would allocate per department, and a
// commit that re-sealed what it read would count it.
func TestWriteReadPhaseWorkIndependentOfSize(t *testing.T) {
	shapes := []writeShape{
		{"append from a scan",
			`append to Employees (name = $1, age = 30, salary = 1, dept = D) from D in Departments where D.dname = $2`,
			func(i int) []any { return []any{fmt.Sprintf("new-%04d", i), "dept-0007"} }},
		{"indexed replace",
			`replace E (salary = E.salary + 1, dept = D) from E in Employees, D in Departments where E.name = $1 and D.dname = $2`,
			func(i int) []any { return []any{fmt.Sprintf("emp-%04d", i%10), fmt.Sprintf("dept-%04d", i%3)} }},
	}
	const runs = 8
	type work struct{ objs, chunks, allocs uint64 }
	var at20 []work
	for _, depts := range []int{20, 2000} {
		db := writeReadDB(t, depts)
		sealed := func() (objs, chunks uint64) {
			h := db.MetricsSnapshot().Histograms
			return h["mvcc.commit.dirty_objs"].SumNS, h["mvcc.commit.dirty_chunks"].SumNS
		}
		for si, sh := range shapes {
			st, err := db.Prepare(sh.src)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			exec := func() {
				st.MustExec(sh.args(i)...)
				i++
			}
			exec() // plans, compiles and fills the pools
			objs0, chunks0 := sealed()
			for k := 0; k < runs; k++ {
				exec()
			}
			objs1, chunks1 := sealed()
			// The fewest allocations of single runs: a Go map that grows
			// (the store's oid directory holds every department) allocates
			// in whichever run it happens to grow.
			allocs := ^uint64(0)
			for k := 0; k < runs; k++ {
				allocs = min(allocs, uint64(testing.AllocsPerRun(1, exec)))
			}
			w := work{objs: objs1 - objs0, chunks: chunks1 - chunks0, allocs: allocs}
			t.Logf("%s, %d departments: %d entries and %d chunks sealed in %d runs, %d allocations per run", sh.name, depts, w.objs, w.chunks, runs, w.allocs)
			if w.objs != runs || w.chunks != runs {
				t.Errorf("%s, %d departments: %d entries and %d chunks sealed in %d runs, want %d of each", sh.name, depts, w.objs, w.chunks, runs, runs)
			}
			if depts == 20 {
				at20 = append(at20, w)
			} else if w != at20[si] {
				t.Errorf("%s: %+v at 2000 departments, %+v at 20", sh.name, w, at20[si])
			}
			st.Close()
		}
		db.Close()
	}
}

// writeReadDB builds the company schema with depts departments and 50
// employees with no department, all inserted after the departments, so
// the Employees extent is laid out the same whatever depts is.
func writeReadDB(t *testing.T, depts int) *extra.DB {
	t.Helper()
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(workload.Schema)
	db.MustExec(`define index EmpName on Employees (name)`)
	for i := 0; i < depts; i++ {
		if _, err := db.Insert("Departments", extra.Attrs{"dname": fmt.Sprintf("dept-%04d", i), "floor": 1 + i%5, "budget": 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Insert("Employees", extra.Attrs{"name": fmt.Sprintf("emp-%04d", i), "age": 30, "salary": 10}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestDefineIndexSealsNothing: define index builds its tree from the
// store's frozen view, so on a loaded database its commit seals no
// directory entry and no member-list chunk and decodes nothing, at 2 000
// employees as at 20 000. A backfill that rewrote or re-read the
// extent's objects would count here. The index then answers a probe as
// the reference evaluator does.
func TestDefineIndexSealsNothing(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxKids: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sealed := func() [3]uint64 {
			h := db.MetricsSnapshot().Histograms
			return [3]uint64{h["mvcc.commit.dirty_objs"].SumNS, h["mvcc.commit.dirty_chunks"].SumNS, h["mvcc.commit.decoded"].SumNS}
		}
		before := sealed()
		db.MustExec(`define index emp_age on Employees (age)`)
		if after := sealed(); after != before {
			t.Errorf("define index at %d employees sealed or decoded objects: entries, chunks, decoded %v before, %v after", n, before, after)
		}
		if err := extra.OracleCheck(db, `retrieve (E.name, E.age) from E in Employees where E.age = 40`); err != nil {
			t.Errorf("%d employees: %v", n, err)
		}
		db.Close()
	}
}
