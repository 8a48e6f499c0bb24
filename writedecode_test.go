package extra_test

import (
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// TestWriteDecodesNothing: a write statement's commit seals the values
// the statement stored and reads no record back. A key replace, a
// 50-row range replace, an append of a kid, a delete of an employee
// with its kids, an append to and a delete from a ref set, and a set of
// a variable and of an array element, on a company of 2 000 and of
// 20 000 employees, each decode no record (mvcc.commit.decoded) and pin
// exactly the pages their record writes pin plus one per heap page
// their commit walks (mvcc.commit.dirty_pages), the same counts at both
// sizes. Only an extent member has a record: an own-ref component, a
// variable and a set element are working values alone. A record written
// in place, inserted or removed pins its page once; one that outgrows
// its page pins three times (its slot read, its insert elsewhere, its
// unlink). The replaces set values that keep each record's size, and
// the employees touched are among the first 2 000, laid out alike at
// both sizes. Decoding the old value in the apply phase, or re-reading a
// written record at the freeze, would pin more.
func TestWriteDecodesNothing(t *testing.T) {
	type shape struct {
		name   string
		src    string
		writes func(db *extra.DB) uint64 // pins the statement's record writes take
	}
	fixed := func(n uint64) func(*extra.DB) uint64 { return func(*extra.DB) uint64 { return n } }
	shapes := []shape{
		{"key replace", `replace E (salary = 5) from E in Employees where E.name = "emp-000007"`, fixed(1)},
		{"range replace", `replace E (age = 30) from E in Employees where E.name >= "emp-000100" and E.name < "emp-000150"`, fixed(50)},
		// The kid's parent, grown by the reference to it, moves off its
		// full page; the kid has no record.
		{"append a kid", `append to E.kids (name = "kid-new", age = 3) from E in Employees where E.name = "emp-000009"`, fixed(3)},
		// The employee's record is removed; its kids have none.
		{"delete", `delete E from E in Employees where E.name = "emp-000009"`, fixed(1)},
		{"append an element", `append to Picked (E) from E in Employees where E.name = "emp-000011"`, fixed(0)},
		{"delete an element", `delete P from P in Picked where P.name = "emp-000010"`, fixed(0)},
		{"set a variable", `set StarEmployee = E from E in Employees where E.name = "emp-000012"`, fixed(0)},
		{"set an array element", `set TopTen[3] = E from E in Employees where E.name = "emp-000013"`, fixed(0)},
	}
	type work struct{ pins, pages uint64 }
	at2000 := make([]work, len(shapes))
	for _, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Departments: 20, Employees: n, MaxKids: 2, Seed: 5}, 0)
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
		for i, sh := range shapes {
			writes := sh.writes(db)
			pool0 := db.PoolStats()
			commits0, decoded0 := hist("mvcc.commit.decoded")
			_, pages0 := hist("mvcc.commit.dirty_pages")
			db.MustExec(sh.src)
			pool := db.PoolStats().Sub(pool0)
			commits1, decoded1 := hist("mvcc.commit.decoded")
			_, pages1 := hist("mvcc.commit.dirty_pages")
			w := work{pins: pool.Hits + pool.Misses, pages: pages1 - pages0}
			t.Logf("%s, %d employees: %d pins: %d by record writes, %d by the commit's page walk", sh.name, n, w.pins, writes, w.pages)
			if commits1-commits0 != 1 || decoded1 != decoded0 {
				t.Errorf("%s, %d employees: %d commits decoded %d records, want 1 decoding none", sh.name, n, commits1-commits0, decoded1-decoded0)
			}
			if w.pins != writes+w.pages {
				t.Errorf("%s, %d employees: %d pins, want %d by record writes + %d pages walked", sh.name, n, w.pins, writes, w.pages)
			}
			if n == 2000 {
				at2000[i] = w
			} else if w != at2000[i] {
				t.Errorf("%s: %+v at 20 000 employees, %+v at 2 000", sh.name, w, at2000[i])
			}
		}
		if bad := db.CheckConsistency(); len(bad) != 0 {
			t.Errorf("%d employees: fsck: %q", n, bad)
		}
		db.Close()
	}
}
