package extra_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	extra "repro"
	"repro/internal/workload"
)

// TestReplaceKeepsScanOrder: an object keeps its place in its extent's
// scan order however its value grows. On a Loaded company, whose
// extents are packed, a replace that gives emp-000009 a name forty
// times as long leaves the Employees scan order as it was.
func TestReplaceKeepsScanOrder(t *testing.T) {
	src, _, err := workload.New(workload.Params{Departments: 5, Employees: 500, MaxKids: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := src.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	src.Close()
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(&dump); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("emp-000009 ", 40)
	order := func() []string {
		var names []string
		for _, row := range db.MustQuery(`retrieve (E.name) from E in Employees`).Rows {
			names = append(names, strings.Replace(row[0].String(), long, "emp-000009", 1))
		}
		return names
	}
	before := order()
	db.MustExec(`replace E (name = "` + long + `") from E in Employees where E.name = "emp-000009"`)
	if n := len(db.MustQuery(`retrieve (E.name) from E in Employees where E.name = "` + long + `"`).Rows); n != 1 {
		t.Fatalf("the replace wrote the new name %d times, want once", n)
	}
	if after := order(); !slices.Equal(after, before) {
		t.Errorf("the replace changed the Employees scan order")
	}
	if bad := db.CheckConsistency(); len(bad) != 0 {
		t.Errorf("fsck: %q", bad)
	}
}
