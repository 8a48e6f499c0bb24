package extra

import (
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/object"
	"repro/internal/types"
	"repro/internal/value"
)

// TestWriteRefusesValueWithoutCodec: an ADT registered with no storage
// codec cannot be stored. An own-ref component, a variable and a
// value-set element are working values with no record, and the write of
// each still encodes what it stores, so the codec refuses such a value
// when it is written, not when a dump or the log meets it.
func TestWriteRefusesValueWithoutCodec(t *testing.T) {
	db := mustOpen(t)
	reg := db.Registry()
	c, err := reg.Define("Tag")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterFunc("Tag", &adt.Func{
		Name: "mktag", Params: []types.Type{types.Int4}, Result: c.Type,
		Impl: func(args []value.Value) (value.Value, error) {
			return value.ADTVal{ADT: "Tag", Rep: args[0]}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`
		define type Kid: ( tag: Tag )
		define type Parent: ( name: varchar, kids: { own ref Kid } )
		create Parents : { own Parent }
		create Favourite : Tag
		create Tags : { Tag }
		append to Parents (name = "p")
	`)
	for _, src := range []string{
		`append to P.kids (tag = mktag(1)) from P in Parents`,
		`set Favourite = mktag(2)`,
		`append to Tags (mktag(3))`,
	} {
		_, err := db.Exec(src)
		if err == nil || !strings.Contains(err.Error(), "no storage codec for ADT Tag") {
			t.Errorf("%s: err = %v, want the codec's refusal", src, err)
		}
	}
	res := db.MustQuery(`retrieve (n = count(K.tag)) from P in Parents, K in P.kids`)
	if got := res.Rows[0][0].String(); got != "0" {
		t.Errorf("%s kids stored, want none", got)
	}
	if bad := db.CheckConsistency(); len(bad) != 0 {
		t.Errorf("fsck: %q", bad)
	}
}

// TestPinnedReaderSeesOldWorkingValues: variables and element sets are
// working values the freeze hands to the snapshot by reference, so a
// write after it must copy what it changes. A reader pinned before an
// array-element assignment, the growth of a non-fixed array, a
// singleton write and a delete from and an append to a ref set still
// reads every old value after they commit; GetVar handing out the value
// the snapshot shares would let the array writes reach it, and a delete
// that did not copy the chunk it writes would reach the pinned set.
func TestPinnedReaderSeesOldWorkingValues(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`
		create StarEmployee : ref Employee
		create TopTen : [10] ref Employee
		create Roster : [] ref Person
		create Picked : { ref Employee }
		set StarEmployee = E from E in Employees where E.name = "Ann"
		set TopTen[1] = E from E in Employees where E.name = "Ann"
		set Roster = E.kids from E in Employees where E.name = "Ann"
		append to Picked (E) from E in Employees where E.name = "Ann" or E.name = "Ben"
	`)
	render := func(sn *object.Snapshot) string {
		var b strings.Builder
		for _, name := range []string{"StarEmployee", "TopTen", "Roster"} {
			v, err := sn.GetVar(name)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(name + "=" + v.String() + "\n")
		}
		err := sn.ScanElems("Picked", func(pos int, v value.Value) error {
			b.WriteString("Picked " + v.String() + "\n")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	pinned := db.store.Snapshot()
	want := render(pinned)
	db.MustExec(`set TopTen[1] = E from E in Employees where E.name = "Cal"`)
	db.MustExec(`set Roster[4] = E from E in Employees where E.name = "Dee"`)
	db.MustExec(`set StarEmployee = E from E in Employees where E.name = "Ben"`)
	db.MustExec(`delete P from P in Picked where P.name = "Ann"`)
	db.MustExec(`append to Picked (E) from E in Employees where E.name = "Cal"`)
	if got := render(pinned); got != want {
		t.Errorf("the pinned snapshot changed:\n%s\nwant\n%s", got, want)
	}
	const now = `StarEmployee=ref<Employee>oid#7
TopTen=[ref<Employee>oid#9, null, null, null, null, null, null, null, null, null]
Roster=[ref<Person>oid#5, ref<Person>oid#6, null, ref<Employee>oid#10]
Picked ref<Employee>oid#7
Picked ref<Employee>oid#9
`
	if got := render(db.store.Snapshot()); got != now {
		t.Errorf("after the writes the database holds:\n%s\nwant\n%s", got, now)
	}
	if bad := db.CheckConsistency(); len(bad) != 0 {
		t.Errorf("fsck: %q", bad)
	}
}
