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
// prepared, args giving the arguments of its i-th run, and the pins its
// runs take in all.
type writeShape struct {
	name string
	src  string
	args func(i int) []any
	pins uint64
}

// TestWriteReadPhasePinsNoPage: the read phase of a write statement
// reads the store's frozen view, not heap pages. An append that finds
// its department by scanning Departments, and a replace that probes an
// index for its employee and scans Departments for the new one, pin the
// same number of buffer-pool pages and allocate the same on a database
// of 20 and of 2 000 departments. Only their writes touch the pool: each
// run pins the employee's page once to insert or rewrite its record, and
// once more for the commit's walk of that page, 16 pins in 8 runs. A read
// phase that decoded the departments from their heap pages would pin
// each page and allocate per department, and an apply phase or a commit
// that read the employee's record back would pin it again.
func TestWriteReadPhasePinsNoPage(t *testing.T) {
	shapes := []writeShape{
		{"append from a scan",
			`append to Employees (name = $1, age = 30, salary = 1, dept = D) from D in Departments where D.dname = $2`,
			func(i int) []any { return []any{fmt.Sprintf("new-%04d", i), "dept-0007"} }, 16},
		{"indexed replace",
			`replace E (salary = E.salary + 1, dept = D) from E in Employees, D in Departments where E.name = $1 and D.dname = $2`,
			func(i int) []any { return []any{fmt.Sprintf("emp-%04d", i%10), fmt.Sprintf("dept-%04d", i%3)} }, 16},
	}
	const runs = 8
	type work struct{ pins, allocs uint64 }
	var at20 []work
	for _, depts := range []int{20, 2000} {
		db := writeReadDB(t, depts)
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
			before := db.PoolStats()
			for k := 0; k < runs; k++ {
				exec()
			}
			moved := db.PoolStats().Sub(before)
			// The fewest allocations of single runs: a Go map that grows
			// (the store's oid directory holds every department) allocates
			// in whichever run it happens to grow.
			allocs := ^uint64(0)
			for k := 0; k < runs; k++ {
				allocs = min(allocs, uint64(testing.AllocsPerRun(1, exec)))
			}
			w := work{pins: moved.Hits + moved.Misses, allocs: allocs}
			t.Logf("%s, %d departments: %d pins in %d runs, %d allocations per run", sh.name, depts, w.pins, runs, w.allocs)
			if w.pins != sh.pins {
				t.Errorf("%s, %d departments: %d pins in %d runs, want %d", sh.name, depts, w.pins, runs, sh.pins)
			}
			if depts == 20 {
				at20 = append(at20, w)
			} else if w != at20[si] {
				t.Errorf("%s: %d pins and %d allocations at 2000 departments, %d and %d at 20",
					sh.name, w.pins, w.allocs, at20[si].pins, at20[si].allocs)
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

// TestDefineIndexPinsNoPage: define index builds its tree from the
// store's frozen view, so on a loaded database it pins no buffer-pool
// page, at 2 000 employees as at 20 000. A backfill that scanned the
// heap would pin every page of the extent. The index then answers a
// probe as the reference evaluator does.
func TestDefineIndexPinsNoPage(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxKids: 2, Seed: 7}, 8192)
		if err != nil {
			t.Fatal(err)
		}
		before := db.PoolStats()
		db.MustExec(`define index emp_age on Employees (age)`)
		if moved := db.PoolStats().Sub(before); moved.Hits != 0 || moved.Misses != 0 {
			t.Errorf("define index at %d employees pinned pages: %+v", n, moved)
		}
		if err := extra.OracleCheck(db, `retrieve (E.name, E.age) from E in Employees where E.age = 40`); err != nil {
			t.Errorf("%d employees: %v", n, err)
		}
		db.Close()
	}
}
