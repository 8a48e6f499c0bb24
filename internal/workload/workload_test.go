package workload

import (
	"bytes"
	"testing"

	extra "repro"
)

func TestLoadDeterministic(t *testing.T) {
	p := Params{Departments: 4, Employees: 50, MaxKids: 3, Seed: 9}
	db1, c1, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer db1.Close()
	db2, c2, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if len(c1.Emps) != 50 || len(c1.Depts) != 4 {
		t.Fatalf("sizes: %d emps, %d depts", len(c1.Emps), len(c1.Depts))
	}
	_ = c2
	q := `retrieve (s = sum(Employees.salary), k = count(Employees.kids))`
	r1 := db1.MustQuery(q)
	r2 := db2.MustQuery(q)
	if r1.Rows[0][0].String() != r2.Rows[0][0].String() ||
		r1.Rows[0][1].String() != r2.Rows[0][1].String() {
		t.Fatalf("same seed produced different data: %v vs %v", r1, r2)
	}
	// Different seeds differ (with overwhelming probability).
	db3, _, err := New(Params{Departments: 4, Employees: 50, MaxKids: 3, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	r3 := db3.MustQuery(q)
	if r1.Rows[0][0].String() == r3.Rows[0][0].String() {
		t.Error("different seeds produced identical totals")
	}
}

func TestLoadInvariants(t *testing.T) {
	db, _, err := New(Params{Departments: 3, Employees: 200, MaxKids: 2, Floors: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// Every employee has a live department on a valid floor.
	res := db.MustQuery(`retrieve (n = count(E.name)) from E in Employees where E.dept is null`)
	if res.Rows[0][0].String() != "0" {
		t.Error("employees without departments")
	}
	res = db.MustQuery(`retrieve (n = count(E.name)) from E in Employees where E.dept.floor < 1 or E.dept.floor > 4`)
	if res.Rows[0][0].String() != "0" {
		t.Error("floors out of range")
	}
	res = db.MustQuery(`retrieve (n = count(K.name)) from K in Employees.kids where K.age < 1 or K.age > 17`)
	if res.Rows[0][0].String() != "0" {
		t.Error("kid ages out of range")
	}
}

// TestDumpIsCanonical runs the generator's database through dump → load
// → dump. Load stores each object as Encode of what it decoded and Dump
// encodes the snapshot's decoded tuples, so the two dumps are equal
// exactly when Encode(DecodeOne(b)) == b for every object the generator
// produces — the property that lets a snapshot keep no encoded copy.
func TestDumpIsCanonical(t *testing.T) {
	db, _, err := New(Params{Departments: 5, Employees: 300, MaxKids: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var first bytes.Buffer
	if err := db.Dump(&first); err != nil {
		t.Fatal(err)
	}
	db2, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if err := db2.Load(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := db2.Dump(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("dump of a loaded dump differs from the dump (%d vs %d bytes)", second.Len(), first.Len())
	}
}

// TestWorkloadLoadLinear pins Load's cost per DB.Insert as the database
// grows: every insert is a commit, and a commit seals the objects it
// wrote and the member-list chunks it wrote, whatever is already there.
// The counts are the engine's own (mvcc.commit.*) and repeat exactly.
func TestWorkloadLoadLinear(t *testing.T) {
	type cost struct{ commits, objs, maxObjs, chunks, maxChunks uint64 }
	load := func(emps int) cost {
		db, _, err := New(Params{Departments: 10, Employees: emps, MaxKids: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		m := db.MetricsSnapshot()
		objs, chunks := m.Histograms["mvcc.commit.dirty_objs"], m.Histograms["mvcc.commit.dirty_chunks"]
		return cost{
			commits:   objs.Count,
			objs:      objs.SumNS,
			maxObjs:   objs.MaxNS,
			chunks:    chunks.SumNS,
			maxChunks: chunks.MaxNS,
		}
	}
	small, big := load(1000), load(4000)
	for _, c := range []cost{small, big} {
		// An employee and at most two kids, the employee in one chunk
		// of its extent (the kids are in none).
		if c.maxObjs > 3 || c.maxChunks != 1 {
			t.Errorf("a one-employee commit sealed %d objects and %d chunks, want at most 3 and 1", c.maxObjs, c.maxChunks)
		}
	}
	perInsert := func(c cost, n uint64) float64 { return float64(n) / float64(c.commits) }
	if s, b := perInsert(small, small.objs), perInsert(big, big.objs); b > 1.05*s {
		t.Errorf("objects sealed per insert: %.3f at 1000 employees, %.3f at 4000", s, b)
	}
	if s, b := perInsert(small, small.chunks), perInsert(big, big.chunks); b > 1.05*s {
		t.Errorf("chunks sealed per insert: %.2f at 1000 employees, %.2f at 4000", s, b)
	}
}
