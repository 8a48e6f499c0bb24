package extra_test

import (
	"bytes"
	"testing"

	extra "repro"
)

// TestVarcharStoresVarcharKind: a string stored into a varchar attribute
// is a varchar whatever it was read from. A char[4] code copied into a
// varchar attribute keeps its padding ("a   ") but not its kind, so it
// answers = as the same string appended as a literal does: both rows
// alike, in agreement with the reference evaluator, and again after a
// dump and Load.
func TestVarcharStoresVarcharKind(t *testing.T) {
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`
		define type D: ( code: char[4] )
		define type V: ( v: varchar, how: varchar )
		create Ds : { own D }
		create Vs : { own V }
		append to Ds (code = "a")
		append to Vs (v = X.code, how = "copied") from X in Ds
		append to Vs (v = "a   ", how = "literal")
	`)
	check := func(when string, db *extra.DB) {
		t.Helper()
		for _, c := range []struct {
			src  string
			rows int
		}{
			{`retrieve (V.how) from V in Vs where V.v = "a"`, 0},
			{`retrieve (V.how) from V in Vs where V.v = "a   "`, 2},
			{`retrieve (V.how, X.code) from V in Vs, X in Ds where V.v = X.code`, 2},
		} {
			res, err := db.Query(c.src)
			if err != nil {
				t.Fatalf("%s: %s: %v", when, c.src, err)
			}
			if len(res.Rows) != c.rows {
				t.Errorf("%s: %s: %d rows %v, want %d: the two rows answer alike", when, c.src, len(res.Rows), res.Rows, c.rows)
			}
			if err := extra.OracleCheck(db, c.src); err != nil {
				t.Errorf("%s: %v", when, err)
			}
		}
	}
	check("stored", db)
	var dump bytes.Buffer
	if err := db.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	loaded, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if err := loaded.Load(&dump); err != nil {
		t.Fatal(err)
	}
	check("loaded", loaded)
}
