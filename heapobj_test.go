//go:build !race

// The race detector's shadow memory and its bookkeeping distort heap
// sizes, so the heap is measured only without it.

package extra_test

import (
	"path/filepath"
	"runtime"
	"testing"

	extra "repro"
	"repro/internal/value"
	"repro/internal/workload"
)

// maxHeapPerObject bounds the live heap a loaded database adds per
// object: the decoded tuples, the extents' member lists, the object
// directory and the two indexes (DESIGN.md §12 gives the figure by
// layer). It is the 255.9 B measured on a 2-CPU x86-64 host with go1.24
// plus 16 %: index entries of a slice header and a key allocation each
// (about 50 B per object here) or a second object directory (about
// 100 B) does not fit under it.
const maxHeapPerObject = 297

// maxHeapObjectsPerObject bounds the heap objects a loaded database
// holds per stored object: a tuple, its field array, a box per field
// that needs one (a name, a salary, a reference, a kids set and its
// array) and a share of the member chunks, directory leaves and index
// nodes. Measured at 6.37 on the same host, plus 16 %; a heap object per
// index entry (one more per employee and index) or per decoded small int
// or reference type name does not fit under it.
const maxHeapObjectsPerObject = 7.4

// loadedCompany Loads the dump of a 20 000-employee company (about
// 40 000 objects with the kids and departments) from a file into a new
// database, so no copy of the dump text is live at either reading, and
// returns it, with the number of objects it holds and the live heap and
// heap objects the runtime held before the database was opened.
func loadedCompany(t *testing.T) (db *extra.DB, objects uint64, heap0, objs0 uint64) {
	t.Helper()
	src, _, err := workload.New(workload.Params{Departments: 20, Employees: 20000, MaxKids: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dump := filepath.Join(t.TempDir(), "company.dump")
	if err := src.DumpFile(dump); err != nil {
		t.Fatal(err)
	}
	res := src.MustQuery(`retrieve (e = count(E.name)) from E in Employees`)
	emps, _ := value.AsInt(res.Rows[0][0])
	kids := countKids(t, src)
	objects = uint64(emps) + kids + 20
	src.Close()
	src = nil

	heap0, objs0 = liveHeap()
	db, err = extra.Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadFile(dump); err != nil {
		t.Fatal(err)
	}
	return db, objects, heap0, objs0
}

// TestHeapPerObject Loads the company, defines the salary and name
// indexes on it, and measures the live heap and the heap objects the
// database adds per object after two collections, which must stay
// within maxHeapPerObject and maxHeapObjectsPerObject. A second object
// directory beside the snapshot's trie cost about 100 B per object; it,
// a tuple kept twice, or an encoded record nothing reads shows here.
func TestHeapPerObject(t *testing.T) {
	db, objects, heap0, objs0 := loadedCompany(t)
	defer db.Close()
	db.MustExec(`define index EmpSal on Employees (salary)`)
	db.MustExec(`define index EmpName on Employees (name)`)
	heap1, objs1 := liveHeap()
	runtime.KeepAlive(db)
	perObj := float64(heap1-heap0) / float64(objects)
	heapObjs := float64(objs1-objs0) / float64(objects)
	t.Logf("%d objects: %.1f B of live heap and %.2f heap objects per object", objects, perObj, heapObjs)
	if perObj > maxHeapPerObject {
		t.Errorf("a loaded company holds %.1f B per object, over %d", perObj, maxHeapPerObject)
	}
	if heapObjs > maxHeapObjectsPerObject {
		t.Errorf("a loaded company holds %.2f heap objects per object, over %.1f", heapObjs, maxHeapObjectsPerObject)
	}
}

// TestDefineIndexHeapObjects: define index on the loaded company's 20
// 000 employees builds the tree in one go, so it adds heap objects per
// node, not per entry: 313 full leaves, the inner nodes above them, and
// a few objects of the catalog's and the snapshot's. Inserting the
// entries one at a time made a key allocation per entry and leaves
// half full.
func TestDefineIndexHeapObjects(t *testing.T) {
	db, _, _, _ := loadedCompany(t)
	defer db.Close()
	emps, _ := value.AsInt(db.MustQuery(`retrieve (e = count(E.name)) from E in Employees`).Rows[0][0])
	leaves := (uint64(emps) + 63) / 64
	for _, ddl := range []string{
		`define index EmpSal on Employees (salary)`,
		`define index EmpName on Employees (name)`,
	} {
		_, objs0 := liveHeap()
		db.MustExec(ddl)
		_, objs1 := liveHeap()
		runtime.KeepAlive(db)
		added := int64(objs1) - int64(objs0)
		t.Logf("%s: %d heap objects for %d employees in %d leaves", ddl, added, emps, leaves)
		if limit := int64(2*leaves + 100); added > limit {
			t.Errorf("%s added %d heap objects, want at most %d: O(leaves), not one per entry", ddl, added, limit)
		}
	}
}

// liveHeap is the heap in use, in bytes and in objects, after two
// collections: the first frees what is dead, the second what only
// finalizers held.
func liveHeap() (heap, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}
