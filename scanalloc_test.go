//go:build !race

// The race detector makes sync.Pool drop a random share of what is put
// back, and a statement's execution state and binding buffers are
// pooled, so allocation counts are only exact without it.

package extra_test

import (
	"bytes"
	"runtime"
	"testing"

	extra "repro"
	"repro/internal/value"
	"repro/internal/workload"
)

// scanShape is one scan whose allocations are counted: src with args
// that match no row, so the count is the scan's alone. A shape without
// args runs src ad hoc, its literals lifted into slots the way the
// session lifts them. perEmp and perKid are the allocations each scanned
// employee and each unnested kid must cost. A grouped shape instead
// returns the same groups at both sizes, its aggregate in the last
// column; each group folds its rows as they arrive, in O(1) space, so
// it is pinned to fixed allocations at both sizes, beyond the boxing of
// an aggregate value outside value's shared boxes, 0..1023 (boxedAggs).
// The pin is exact because the groups are the same at both sizes: a
// cost per group, such as a group's binding that does not go back to
// the binding pool, shows only against a count.
type scanShape struct {
	name           string
	src            string
	args           []any
	perEmp, perKid uint64
	grouped        bool
	fixed          uint64
}

// scanShapes are the scans TestScanAllocsPerRow counts and
// BenchmarkScanPerRow times.
var scanShapes = []scanShape{
	// The scan binds E without boxing a value.Object.
	{"range filter", `retrieve (E.name, E.salary) from E in Employees where E.age >= $1 and E.age < $2`, []any{200, 201}, 0, 0, false, 0},
	// E.dept dereferences without boxing the department.
	{"ref path", `retrieve (E.name) from E in Employees where E.dept.floor = $1`, []any{99}, 0, 0, false, 0},
	// The unnest starts at E's tuple and binds each kid unboxed; a read
	// gives the kid no update location.
	{"unnest", `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < $1`, []any{0}, 0, 0, false, 0},
	// bench's scan_count: a global count over the age range folds no
	// row, and its one result row is preboxed.
	{"count over range", `retrieve (n = count(E.name)) from E in Employees where E.age >= $1 and E.age < $2`, []any{200, 201}, 0, 0, true, 21},
	// The mirrored comparison is tested on the tuple as E.age > $1 is.
	{"mirrored comparison", `retrieve (E.name, E.salary) from E in Employees where $1 < E.age`, []any{200}, 0, 0, false, 0},
	// An ad-hoc filter's literals, lifted into slots, are read from the
	// statement's frame: no more per row than the prepared form.
	{"lifted ad-hoc filter", `retrieve (E.name, E.salary) from E in Employees where E.age >= 200 and E.age < 201`, nil, 0, 0, false, 0},
	// A by keys each row's group on its compiled value, unrendered.
	{"by", `retrieve (f = E.dept.floor, n = count(E.name by E.dept.floor)) from E in Employees where E.age >= $1`, []any{0}, 0, 0, true, 40},
	// The hash join builds on the departments of one floor and keys
	// builds and probes on the compiled values.
	{"hash join", `retrieve (d = D.dname, s = sum(E.salary by D.dname)) from E in Employees, D in Departments where E.dept.dname = D.dname and D.floor = $1`, []any{2}, 0, 0, true, 38},
	// Every badge's holder is another employee (badgeSetup), so each
	// probe misses the reference memo and fetches its target.
	{"hash join, distinct targets", `retrieve (B.no) from B in Badges, F in Employees where B.holder.name = F.name and F.age >= $1`, []any{200}, 0, 0, false, 0},
}

// badgeSetup gives each employee a badge referring to it, the probe side
// of the scan shape whose reference targets are all distinct.
const badgeSetup = `
	define type Badge: ( no: int4, holder: ref Employee )
	create Badges : { own Badge }
	append to Badges (no = E.age, holder = E) from E in Employees
`

// TestScanAllocsPerRow is the count-based form of "a compiled plan
// scans without garbage": a prepared Stmt.Exec of each scan shape
// allocates a fixed per-statement overhead plus perEmp per employee
// (and perKid per kid it unnests), and the overhead is the same on a
// database ten times the size. Every shape is pinned at zero per row: an
// object variable binds its tuple unboxed, and attribute steps read the
// tuple directly. Counts repeat exactly, so this gates CI on a host whose
// clock cannot.
func TestScanAllocsPerRow(t *testing.T) {
	overhead := make([]uint64, len(scanShapes))
	grouped := make([]int, len(scanShapes)) // rows at 2000 employees
	for si, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxKids: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(badgeSetup)
		kids := countKids(t, db)
		for i, sh := range scanShapes {
			st, err := db.Prepare(sh.src)
			if err != nil {
				t.Fatal(err)
			}
			exec := func() {
				res := sh.run(db, st)
				switch {
				case !sh.grouped && len(res.Rows) != 0:
					t.Fatalf("%s: %d rows, want none", sh.name, len(res.Rows))
				case sh.grouped && si == 0:
					grouped[i] = len(res.Rows)
				case sh.grouped && len(res.Rows) != grouped[i]:
					t.Fatalf("%s: %d rows at %d employees, %d at 2000", sh.name, len(res.Rows), n, grouped[i])
				}
			}
			exec() // plans, compiles and fills the pools
			got := uint64(testing.AllocsPerRun(5, exec))
			if sh.grouped {
				boxed := boxedAggs(sh.run(db, st))
				if got-boxed != sh.fixed {
					t.Errorf("%s: %d allocations beyond %d boxed aggregates at %d employees, want %d",
						sh.name, got-boxed, boxed, n, sh.fixed)
				}
				t.Logf("%s, %d employees: %d rows, %d allocations, %d boxed aggregates", sh.name, n, grouped[i], got, boxed)
				st.Close()
				continue
			}
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

// boxedAggs counts the rows of a grouped result whose aggregate, the
// last column, is an int outside value's shared boxes (0..1023,
// value.Int.Shared): the executor boxes such a value when it produces
// the row, and returns a smaller one in its shared box.
func boxedAggs(res *extra.Result) uint64 {
	var n uint64
	for _, row := range res.Rows {
		if v, ok := value.AsInt(row[len(row)-1]); ok {
			if _, shared := value.NewInt(v).Shared(); !shared {
				n++
			}
		}
	}
	return n
}

// run executes the shape once: st with the shape's args, or src ad hoc.
func (sh *scanShape) run(db *extra.DB, st *extra.Stmt) *extra.Result {
	if sh.args == nil {
		return db.MustQuery(sh.src)
	}
	return st.MustExec(sh.args...)
}

// BenchmarkScanPerRow times each scan shape at 20 000 employees and
// reports its cost per scanned employee: ns/row, the time per
// statement over the employees it scans, beside allocs/row, what
// TestScanAllocsPerRow pins. The "rows ..." variants run the shapes
// TestResultAllocsPerRow counts, which return rows, and also report
// ns and bytes per returned row (ns/ret, B/ret). Each shape runs on two
// databases of the same company: one built by 20 000 Inserts, and
// ("loaded ...") one that Loaded its dump, the layout the repository
// benchmark scans, where the tuples were decoded at Load's commit in
// scan order. A change to where the store allocates tuples shows in the
// second.
func BenchmarkScanPerRow(b *testing.B) {
	const n = 20000
	db, _, err := workload.New(workload.Params{Employees: n, MaxKids: 2, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.MustExec(badgeSetup)
	var dump bytes.Buffer
	if err := db.Dump(&dump); err != nil {
		b.Fatal(err)
	}
	loaded, err := extra.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer loaded.Close()
	if err := loaded.Load(&dump); err != nil {
		b.Fatal(err)
	}
	// bench times run and reports per scanned employee and, when the
	// statement returns rows, per returned row.
	bench := func(b *testing.B, run func() *extra.Result) {
		ret := len(run().Rows) // plans, compiles and fills the pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for k := 0; k < b.N; k++ {
			run()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		rows := float64(b.N) * n
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rows, "ns/row")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/rows, "allocs/row")
		if ret > 0 {
			returned := float64(b.N) * float64(ret)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/returned, "ns/ret")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/returned, "B/ret")
		}
	}
	for _, layout := range []struct {
		prefix string
		db     *extra.DB
	}{{"", db}, {"loaded ", loaded}} {
		for i := range scanShapes {
			sh := &scanShapes[i]
			b.Run(layout.prefix+sh.name, func(b *testing.B) {
				st, err := layout.db.Prepare(sh.src)
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				bench(b, func() *extra.Result { return sh.run(layout.db, st) })
			})
		}
		for i := range resultShapes {
			sh := &resultShapes[i]
			b.Run(layout.prefix+"rows "+sh.name, func(b *testing.B) {
				st, err := layout.db.Prepare(sh.src)
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				bench(b, func() *extra.Result { return st.MustExec(sh.args...) })
			})
		}
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
