//go:build !race

// The race detector makes sync.Pool drop a random share of what is put
// back, and a statement's execution state (with its warm deref cache)
// is pooled, so allocation counts are only exact without it.

package extra_test

import (
	"testing"

	extra "repro"
	"repro/internal/value"
	"repro/internal/workload"
)

// scanShape is one prepared scan whose allocations are counted: src with
// args that match no row, so the count is the scan's alone. perEmp and
// perKid are the allocations each scanned employee and each unnested
// kid must cost.
type scanShape struct {
	name           string
	src            string
	args           []any
	perEmp, perKid uint64
}

// TestScanAllocsPerRow is the count-based form of "a compiled plan
// scans without garbage": a prepared Stmt.Exec of each scan shape
// allocates a fixed per-statement overhead plus perEmp per employee
// (and perKid per kid it unnests), and the overhead is the same on a
// database ten times the size. Counts repeat exactly, so this gates CI
// on a host whose clock cannot.
func TestScanAllocsPerRow(t *testing.T) {
	shapes := []scanShape{
		// The value.Object the scan binds E to is the one allocation.
		{"range filter", `retrieve (E.name, E.salary) from E in Employees where E.age >= $1 and E.age < $2`, []any{200, 201}, 1, 0},
		// E.dept dereferences without boxing the department.
		{"ref path", `retrieve (E.name) from E in Employees where E.dept.floor = $1`, []any{99}, 1, 0},
		// Each kid is bound as a value.Object of its own.
		{"unnest", `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < $1`, []any{0}, 1, 1},
	}
	overhead := make([]uint64, len(shapes))
	for si, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxKids: 2, Seed: 7}, 8192)
		if err != nil {
			t.Fatal(err)
		}
		kids := countKids(t, db)
		for i, sh := range shapes {
			st, err := db.Prepare(sh.src)
			if err != nil {
				t.Fatal(err)
			}
			exec := func() {
				if res := st.MustExec(sh.args...); len(res.Rows) != 0 {
					t.Fatalf("%s: %d rows, want none", sh.name, len(res.Rows))
				}
			}
			exec() // plans, compiles and fills the deref cache
			got := uint64(testing.AllocsPerRun(5, exec))
			rows := sh.perEmp*uint64(n) + sh.perKid*kids
			if got < rows {
				t.Fatalf("%s, %d employees: %d allocations, fewer than the %d rows alone", sh.name, n, got, rows)
			}
			fixed := got - rows
			if si == 0 {
				overhead[i] = fixed
			} else if fixed != overhead[i] {
				t.Errorf("%s: %d allocations beyond %d per employee and %d per kid at %d employees, %d at 2000",
					sh.name, fixed, sh.perEmp, sh.perKid, n, overhead[i])
			}
			t.Logf("%s, %d employees, %d kids: %d allocations, %.3f per employee", sh.name, n, kids, got, float64(got)/float64(n))
			st.Close()
		}
		db.Close()
	}
}

func countKids(t *testing.T, db *extra.DB) uint64 {
	t.Helper()
	res := db.MustQuery(`retrieve (k = count(K.name)) from K in Employees.kids`)
	k, ok := value.AsInt(res.Rows[0][0])
	if !ok {
		t.Fatalf("kid count %v", res.Rows[0][0])
	}
	return uint64(k)
}
