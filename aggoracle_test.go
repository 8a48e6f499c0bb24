package extra

import (
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/value"
)

// aggSchema is a table whose int, float and string columns hold nulls:
// group "a" mixes values and nulls, "b" has one value of each, and
// every argument column of group "c" is null, so its aggregates fold
// nothing. Each M owns parts for the set-argument aggregates.
const aggSchema = `
	define type Part: ( pname: varchar, w: int4 )
	define type M: ( g: varchar, h: int4, i: int4, f: float8, s: varchar, parts: { own Part } )
	create Ms : { own M }
	create Nones : { own M }
	append to Ms (g = "a", h = 1, i = 3, f = 1.5, s = "x")
	append to Ms (g = "a", h = 1, i = 2, f = 2.0, s = "b")
	append to Ms (g = "a", h = 2, f = 0.25)
	append to Ms (g = "a", h = 2, i = 2, s = "b")
	append to Ms (g = "b", h = 1, i = 7, f = -1.0, s = "q")
	append to Ms (g = "c", h = 2)
	append to M.parts (pname = "p1", w = 4) from M in Ms where M.i = 3
	append to M.parts (pname = "p2", w = 5) from M in Ms where M.i = 3
	append to M.parts (pname = "p3", w = 6) from M in Ms where M.i = 7
`

// TestAggregatesMatchOracle checks each aggregate form against the
// reference evaluator, which folds with its own code: count, sum, avg,
// min and max over ints, floats, strings, mixed ints and floats, and
// nulls; groups whose arguments are all null; global aggregates over
// no rows; over deduplication; one- and two-level by; set-argument
// aggregates; and the median set function, which still collects its
// arguments.
func TestAggregatesMatchOracle(t *testing.T) {
	db := mustOpen(t)
	if err := RegisterMedian(db.Registry()); err != nil {
		t.Fatal(err)
	}
	db.MustExec(aggSchema)
	all := func(x string) string {
		return "n = count(" + x + "), s = sum(" + x + "), a = avg(" + x + "), lo = min(" + x + "), hi = max(" + x + ")"
	}
	by := func(x, g string) string {
		return "n = count(" + x + " by " + g + "), s = sum(" + x + " by " + g + "), a = avg(" + x + " by " + g +
			"), lo = min(" + x + " by " + g + "), hi = max(" + x + " by " + g + ")"
	}
	for _, src := range []string{
		// Global, over ints, floats and strings with nulls.
		`retrieve (` + all("M.i") + `) from M in Ms`,
		`retrieve (` + all("M.f") + `) from M in Ms`,
		`retrieve (n = count(M.s), lo = min(M.s), hi = max(M.s)) from M in Ms`,
		// By one level; group "c" folds no value.
		`retrieve (g = M.g, ` + by("M.i", "M.g") + `) from M in Ms`,
		`retrieve (g = M.g, ` + by("M.f", "M.g") + `) from M in Ms`,
		`retrieve (g = M.g, n = count(M.s by M.g), lo = min(M.s by M.g), hi = max(M.s by M.g)) from M in Ms`,
		// By two levels, and aggregates of different columns sharing a group.
		`retrieve (g = M.g, h = M.h, s = sum(M.i by M.g, M.h), a = avg(M.f by M.g, M.h), n = count(M.s by M.g, M.h)) from M in Ms`,
		// Over deduplicates before the add.
		`retrieve (g = M.g, n = count(M.h by M.g over M.h), s = sum(M.i by M.g over M.h)) from M in Ms`,
		`retrieve (n = count(M.g over M.g), s = sum(M.h over M.g)) from M in Ms`,
		// No rows: a global aggregate still yields one row, a grouped one none.
		`retrieve (` + all("M.i") + `) from M in Nones`,
		`retrieve (` + all("M.f") + `) from M in Ms where M.h > 9`,
		`retrieve (g = M.g, ` + by("M.i", "M.g") + `) from M in Nones`,
		// Set-argument aggregates, per row and over a whole extent.
		`retrieve (g = M.g, ` + all("M.parts.w") + `, c = count(M.parts)) from M in Ms`,
		`retrieve (lo = min(M.parts.pname), hi = max(M.parts.pname)) from M in Ms`,
		`retrieve (` + all("Ms.i") + `)`,
		`retrieve (` + all("Ms.f") + `)`,
		// Mixed ints and floats in one argument.
		`retrieve (` + all("{M.i, M.f}") + `) from M in Ms`,
		`retrieve (` + all("{M.f, M.i}") + `) from M in Ms`,
		// The ADT set function, grouped and over a set.
		`retrieve (g = M.g, m = median(M.i by M.g), k = median(M.s by M.g)) from M in Ms`,
		`retrieve (m = median(Ms.f))`,
	} {
		res, err := db.Query(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := OracleRows(db, src)
		if err != nil {
			t.Fatalf("%s: oracle: %v", src, err)
		}
		if err := DiffRows(src, CanonRows(res), want); err != nil {
			t.Error(err)
		}
	}

	// The display form the oracle compares does not tell an integral
	// float from an int: the kinds are checked here. A sum of ints is an
	// int, a sum with any float a float, and min and max keep the first
	// of equal values (2.0 before 2, and 2 before 2.0).
	for _, c := range []struct {
		src   string
		kinds []types.Kind
	}{
		{`retrieve (s = sum(M.i), n = count(M.i), a = avg(M.i)) from M in Ms`, []types.Kind{types.KInt4, types.KInt4, types.KFloat8}},
		{`retrieve (s = sum(M.f)) from M in Ms`, []types.Kind{types.KFloat8}},
		{`retrieve (s = sum({M.i, M.f}), lo = min({M.f, M.i}), hi = max({M.i, M.f})) from M in Ms where M.i = 2 and M.f = 2.0`, []types.Kind{types.KFloat8, types.KFloat8, types.KInt4}},
		{`retrieve (s = sum(M.i), a = avg(M.i)) from M in Nones`, []types.Kind{types.KInt4, types.KInvalid}},
	} {
		res := db.MustQuery(c.src)
		for i, want := range c.kinds {
			v := res.Rows[0][i]
			got := types.KInvalid // null's kind
			if !value.IsNull(v) {
				got = v.Kind()
			}
			if got != want {
				t.Errorf("%s: column %d is %v (%s), want %v", c.src, i, got, v, want)
			}
		}
	}
}

// TestGroupedAggregateErrsInScanOrder pins where a grouped aggregate
// fails when the checker lets an incomparable argument through (max
// over whole objects): each row is added to its group as it arrives,
// so the error names the first row, in scan order, that meets an
// earlier value of its own group — here b2 against b1, although group
// a opened first.
func TestGroupedAggregateErrsInScanOrder(t *testing.T) {
	db := mustOpen(t)
	db.MustExec(`
		define type O: ( g: varchar, v: int4 )
		create Os : { own O }
		append to Os (g = "a", v = 1)
		append to Os (g = "b", v = 2)
		append to Os (g = "b", v = 3)
		append to Os (g = "a", v = 4)
	`)
	_, err := db.Query(`retrieve (g = O.g, x = max(O by O.g)) from O in Os`)
	want := `cannot compare O(g="b", v=3) and O(g="b", v=2)`
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("grouped max over objects: %v, want %q", err, want)
	}
}
