//go:build !race

// The race detector's shadow memory and its bookkeeping distort heap
// sizes, so the heap is measured only without it.

package extra_test

import (
	"bytes"
	"runtime"
	"testing"

	extra "repro"
	"repro/internal/value"
	"repro/internal/workload"
)

// maxHeapPerObject bounds the live heap a loaded database holds per
// object: the decoded tuples, the extents' member lists, the object
// directory and the two indexes. It is the 135 B measured on a 2-CPU
// x86-64 host with go1.24 plus 16 %: an encoded copy of each extent
// member (the heap pages the store kept until it kept none, about 70 B
// per object here) does not fit under it.
const maxHeapPerObject = 157

// TestHeapPerObject Loads the dump of a 20 000-employee company (about
// 40 000 objects with the kids and departments), defines the salary and
// name indexes on it, and measures the live heap the database adds per
// object after two collections, which must stay within
// maxHeapPerObject. A second object directory beside the snapshot's trie
// cost about 100 B per object; it, a tuple kept twice, or an encoded
// record nothing reads shows here.
func TestHeapPerObject(t *testing.T) {
	src, _, err := workload.New(workload.Params{Departments: 20, Employees: 20000, MaxKids: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := src.Dump(&dump); err != nil {
		t.Fatal(err)
	}
	res := src.MustQuery(`retrieve (e = count(E.name)) from E in Employees`)
	emps, _ := value.AsInt(res.Rows[0][0])
	kids := countKids(t, src)
	objects := uint64(emps) + kids + 20
	src.Close()
	src = nil

	heap0 := liveHeap()
	db, err := extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(&dump); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`define index EmpSal on Employees (salary)`)
	db.MustExec(`define index EmpName on Employees (name)`)
	heap1 := liveHeap()
	runtime.KeepAlive(db)
	perObj := float64(heap1-heap0) / float64(objects)
	t.Logf("%d objects: %.1f B of live heap per object", objects, perObj)
	if perObj > maxHeapPerObject {
		t.Errorf("a loaded company holds %.1f B per object, over %d", perObj, maxHeapPerObject)
	}
}

// liveHeap is the heap in use after two collections: the first frees
// what is dead, the second what only finalizers held.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
