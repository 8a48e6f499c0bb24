//go:build !race

// The race detector makes sync.Pool drop a random share of what is put
// back, and a statement's execution state and binding buffers are
// pooled, so allocation counts are only exact without it.

package extra_test

import (
	"math"
	"runtime"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// resultShape is a prepared retrieve that returns rows: what
// TestResultAllocsPerRow counts and BenchmarkScanPerRow's "rows ..."
// variants time.
type resultShape struct {
	name string
	src  string
	args []any
}

var resultShapes = []resultShape{
	// Two age bands of employees, two columns each.
	{"range filter", `retrieve (E.name, E.salary) from E in Employees where E.age >= $1 and E.age < $2`, []any{30, 32}},
	// Every employee on the most populated floor, through a ref.
	{"ref path", `retrieve (E.name) from E in Employees where E.dept.floor = $1`, []any{3}},
	// The younger kids of every employee, with their parent.
	{"unnest", `retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < $1`, []any{8}},
	// One row per floor: the rows do not grow with the employees
	// folded into them.
	{"by", `retrieve (f = E.dept.floor, s = sum(E.salary by E.dept.floor)) from E in Employees where E.age >= $1`, []any{0}},
	// A set-argument aggregate per returned row.
	{"count(E.kids)", `retrieve (E.name, n = count(E.kids)) from E in Employees where E.age >= $1 and E.age < $2`, []any{30, 32}},
}

// resultCost is what one execution of a shape allocates.
type resultCost struct {
	rows, cols    int
	allocs, bytes uint64
}

// measureResult runs st with the shape's args: once to plan, compile
// and fill the pools, then three times five runs, and keeps the least
// per-run allocations and bytes of the three (runtime.MemStats), so a
// collection that empties a pool mid-measure does not count.
func measureResult(sh *resultShape, st *extra.Stmt) resultCost {
	res := st.MustExec(sh.args...)
	c := resultCost{rows: len(res.Rows), cols: len(res.Cols), allocs: math.MaxUint64, bytes: math.MaxUint64}
	const runs = 5
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			st.MustExec(sh.args...)
		}
		runtime.ReadMemStats(&after)
		c.allocs = min(c.allocs, (after.Mallocs-before.Mallocs)/runs)
		c.bytes = min(c.bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return c
}

// TestResultAllocsPerRow is the count-based form of "a retrieve
// allocates what it returns, once": each shape runs at 2 000 and
// 20 000 employees, and what the larger run allocates beyond the
// smaller one is what its further rows cost, since the scan itself
// allocates nothing per row (TestScanAllocsPerRow). The result's cells
// are laid out in blocks that double up to 1 024 rows and its row
// headers in one slice, so allocations may grow only logarithmically
// in the rows returned, plus one block per further 1 024 rows, and the
// bytes per further row may be at most twice a row's cells and header,
// 2 × (16 · columns + 24). A grouped shape returns the same rows at
// both sizes: each group folds its rows as they arrive, so the larger
// run allocates no more. Counts are exact for a seed.
func TestResultAllocsPerRow(t *testing.T) {
	var costs [2][]resultCost
	for si, n := range []int{2000, 20000} {
		db, _, err := workload.New(workload.Params{Employees: n, MaxKids: 2, Seed: 7}, 8192)
		if err != nil {
			t.Fatal(err)
		}
		for i := range resultShapes {
			sh := &resultShapes[i]
			st, err := db.Prepare(sh.src)
			if err != nil {
				t.Fatal(err)
			}
			c := measureResult(sh, st)
			if c.rows == 0 {
				t.Fatalf("%s, %d employees: no rows", sh.name, n)
			}
			t.Logf("%s, %d employees: %d rows, %d allocations, %d bytes", sh.name, n, c.rows, c.allocs, c.bytes)
			costs[si] = append(costs[si], c)
			st.Close()
		}
		db.Close()
	}
	for i, sh := range resultShapes {
		small, large := costs[0][i], costs[1][i]
		if large.rows < small.rows {
			t.Fatalf("%s: %d rows at 20 000 employees, %d at 2 000", sh.name, large.rows, small.rows)
		}
		more := large.rows - small.rows
		blocks := uint64(math.Ceil(math.Log2(float64(large.rows+1)/float64(small.rows+1)))) + uint64((more+1023)/1024)
		if large.allocs > small.allocs+blocks {
			t.Errorf("%s: %d allocations for %d rows, %d for %d: more than the %d blocks %d further rows take",
				sh.name, large.allocs, large.rows, small.allocs, small.rows, blocks, more)
		}
		perRow := uint64(2 * (16*large.cols + 24))
		if large.bytes > small.bytes+perRow*uint64(max(more, 1)) {
			t.Errorf("%s: %d bytes for %d rows, %d for %d: more than %d bytes per further row",
				sh.name, large.bytes, large.rows, small.bytes, small.rows, perRow)
		}
	}
}
