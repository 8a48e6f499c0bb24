package extra_test

import (
	"testing"

	"repro/internal/workload"
)

// TestWriteDecodesNothing: a write statement's commit seals the values
// the statement stored and reads no record back. A key replace, a
// 50-row range replace, an append of a kid, a delete of an employee
// with its kids, an append to and a delete from a ref set, and a set of
// a variable and of an array element, on a company of 2 000 and of
// 20 000 employees, each decode no record (mvcc.commit.decoded) and seal
// exactly the member-list chunks their writes copied
// (mvcc.commit.dirty_chunks), the same counts at both sizes. Only an
// extent member has a place in a member list: an own-ref component, a
// variable and a set element are working values alone. The employees
// touched are among the first 2 000, in the first chunks of the extent
// at both sizes. Decoding the old value in the apply phase, or
// re-reading a written object at the freeze, would count here.
func TestWriteDecodesNothing(t *testing.T) {
	type shape struct {
		name   string
		src    string
		chunks uint64 // member-list chunks the statement writes
	}
	shapes := []shape{
		{"key replace", `replace E (salary = 5) from E in Employees where E.name = "emp-000007"`, 1},
		{"range replace", `replace E (age = 30) from E in Employees where E.name >= "emp-000100" and E.name < "emp-000150"`, 1},
		// The kid's parent is rewritten in place; the kid has no place
		// in a list.
		{"append a kid", `append to E.kids (name = "kid-new", age = 3) from E in Employees where E.name = "emp-000009"`, 1},
		// The employee leaves its chunk; its kids are in none.
		{"delete", `delete E from E in Employees where E.name = "emp-000009"`, 1},
		{"append an element", `append to Picked (E) from E in Employees where E.name = "emp-000011"`, 0},
		{"delete an element", `delete P from P in Picked where P.name = "emp-000010"`, 0},
		{"set a variable", `set StarEmployee = E from E in Employees where E.name = "emp-000012"`, 0},
		{"set an array element", `set TopTen[3] = E from E in Employees where E.name = "emp-000013"`, 0},
	}
	for _, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Departments: 20, Employees: n, MaxKids: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`define index EmpName on Employees (name)`)
		db.MustExec(`create Picked : { ref Employee }`)
		db.MustExec(`append to Picked (E) from E in Employees where E.name < "emp-000020"`)
		hist := func(name string) (count, sum uint64) {
			h := db.MetricsSnapshot().Histograms[name]
			return h.Count, h.SumNS
		}
		for _, sh := range shapes {
			commits0, decoded0 := hist("mvcc.commit.decoded")
			_, chunks0 := hist("mvcc.commit.dirty_chunks")
			db.MustExec(sh.src)
			commits1, decoded1 := hist("mvcc.commit.decoded")
			_, chunks1 := hist("mvcc.commit.dirty_chunks")
			t.Logf("%s, %d employees: %d chunks sealed", sh.name, n, chunks1-chunks0)
			if commits1-commits0 != 1 || decoded1 != decoded0 {
				t.Errorf("%s, %d employees: %d commits decoded %d records, want 1 decoding none", sh.name, n, commits1-commits0, decoded1-decoded0)
			}
			if got := chunks1 - chunks0; got != sh.chunks {
				t.Errorf("%s, %d employees: %d chunks sealed, want %d", sh.name, n, got, sh.chunks)
			}
		}
		if bad := db.CheckConsistency(); len(bad) != 0 {
			t.Errorf("%d employees: fsck: %q", n, bad)
		}
		db.Close()
	}
}
