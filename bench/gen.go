package main

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"

	extra "repro"
	"repro/internal/codec"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/value"
	"repro/internal/workload"
)

// streams is how many independent statement streams (and write-private
// "hot" populations) a generated database carries. It is fixed so the
// same seed yields the same database on any host; the number of sessions
// that actually run is min(streams, nproc).
const streams = 2

// scale sizes the generated company database. Employees counts base and
// hot rows together.
type scale struct {
	Depts, Emps, MaxKids, Floors int
	Annex                        int // departments on floor Floors+1, referenced only by hot rows
	Hot                          int // initial hot employees per stream
}

var (
	fullScale  = scale{Depts: 200, Emps: 20000, MaxKids: 2, Floors: 5, Annex: 8, Hot: 500}
	smokeScale = scale{Depts: 10, Emps: 400, MaxKids: 2, Floors: 5, Annex: 2, Hot: 20}
)

const (
	maxBaseSalary = 200000  // base salaries are uniform in [0, maxBaseSalary)
	bandWidth     = 1000000 // stream s owns salaries [bandLo(s), bandLo(s)+bandWidth)
	baseAgeLo     = 20      // base ages are uniform in [baseAgeLo, baseAgeHi)
	baseAgeHi     = 65
	hotAgeLo      = 66 // hot rows are older than any scan predicate reaches
	baseKidAgeHi  = 18 // base kids are 1..17; hot rows' kids are adults
)

func bandLo(stream int) int { return bandWidth * (stream + 1) }

type dept struct {
	name          string
	floor, budget int
	oid           oid.OID
}

type kid struct {
	name string
	age  int
}

// emp is one employee of the harness's own model of the data. Base rows
// never change after generation; hot rows are mutated only by the stream
// that owns them, so each stream's view of its own rows is exact even
// while the other stream commits.
type emp struct {
	name        string
	age, salary int
	dept        int // index into company.depts
	kids        []kid
}

// company is the generated database plus the lookup tables the oracle
// answers read statements from. Everything derived covers base rows
// only: every read statement's predicate excludes hot rows by
// construction (salary band, age, kid age, annex floor).
type company struct {
	sc    scale
	depts []dept
	base  []emp
	hot   [streams][]emp // initial hot rows, by stream

	bySalary   map[int][]int32    // base salary → base indexes
	byAge      [baseAgeHi][]int32 // base age → base indexes
	byFloor    [][]int32          // floor → base indexes
	kidsByAge  [baseKidAgeHi]int  // base kid age → count
	deptsOn    [][]int            // floor → dept indexes
	deptSalary []int64            // dept → Σ base salary
	deptHasEmp []bool             // dept → referenced by a base row
	objects    int                // live objects in the generated dump
	userBytes  int                // Σ encoded tuple bytes in the dump

	deptT, personT, empT *types.TupleType
	dumpHead, dumpTail   []byte // Dump of the bare schema, split after "--data"
}

type exportObject = object.ExportObject

// generate builds the model deterministically from the seed.
func generate(sc scale, seed int64) (*company, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &company{sc: sc}
	if err := c.loadSchema(); err != nil {
		return nil, err
	}
	baseDepts := sc.Depts - sc.Annex
	for i := 0; i < sc.Depts; i++ {
		d := dept{name: fmt.Sprintf("dept-%03d", i), budget: rng.Intn(1000000)}
		if i < baseDepts {
			d.floor = rng.Intn(sc.Floors) + 1
		} else {
			d.floor = sc.Floors + 1
		}
		c.depts = append(c.depts, d)
	}
	nBase := sc.Emps - streams*sc.Hot
	c.base = make([]emp, nBase)
	for i := range c.base {
		e := emp{
			name:   fmt.Sprintf("emp-%06d", i),
			age:    baseAgeLo + rng.Intn(baseAgeHi-baseAgeLo),
			salary: rng.Intn(maxBaseSalary),
			dept:   rng.Intn(baseDepts),
		}
		for k, n := 0, rng.Intn(sc.MaxKids+1); k < n; k++ {
			e.kids = append(e.kids, kid{name: fmt.Sprintf("kid-%06d-%d", i, k), age: 1 + rng.Intn(baseKidAgeHi-1)})
		}
		c.base[i] = e
	}
	for s := 0; s < streams; s++ {
		c.hot[s] = make([]emp, sc.Hot)
		for i := range c.hot[s] {
			e := emp{
				name:   hotName(s, i),
				age:    hotAgeLo + rng.Intn(10),
				salary: bandLo(s) + 20*i + rng.Intn(20),
				dept:   baseDepts + rng.Intn(sc.Annex),
			}
			for k, n := 0, rng.Intn(sc.MaxKids+1); k < n; k++ {
				e.kids = append(e.kids, kid{name: hotKidName(s, i, k), age: baseKidAgeHi + rng.Intn(20)})
			}
			c.hot[s][i] = e
		}
	}
	c.index()
	return c, nil
}

func hotName(stream, n int) string       { return fmt.Sprintf("hot%d-%06d", stream, n) }
func hotKidName(stream, n, k int) string { return fmt.Sprintf("hkid%d-%06d-%d", stream, n, k) }

func (c *company) index() {
	c.bySalary = make(map[int][]int32)
	c.byFloor = make([][]int32, c.sc.Floors+2)
	c.deptsOn = make([][]int, c.sc.Floors+2)
	c.deptSalary = make([]int64, len(c.depts))
	c.deptHasEmp = make([]bool, len(c.depts))
	for i, d := range c.depts {
		c.deptsOn[d.floor] = append(c.deptsOn[d.floor], i)
	}
	for i, e := range c.base {
		c.bySalary[e.salary] = append(c.bySalary[e.salary], int32(i))
		c.byAge[e.age] = append(c.byAge[e.age], int32(i))
		f := c.depts[e.dept].floor
		c.byFloor[f] = append(c.byFloor[f], int32(i))
		c.deptSalary[e.dept] += int64(e.salary)
		c.deptHasEmp[e.dept] = true
		for _, k := range e.kids {
			c.kidsByAge[k.age]++
		}
	}
}

// loadSchema captures the company schema's tuple types and the dump of a
// database holding only that schema, split around the (empty) object
// list: the generated data section is spliced in there, and the result
// is byte for byte what Dump writes for the loaded database.
func (c *company) loadSchema() error {
	db, err := extra.Open()
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(workload.Schema); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		return err
	}
	marker := []byte("--data\n")
	i := bytes.Index(buf.Bytes(), marker)
	if i < 0 {
		return fmt.Errorf("schema dump has no --data section")
	}
	cut := i + len(marker)
	c.dumpHead, c.dumpTail = buf.Bytes()[:cut], buf.Bytes()[cut:]
	cat := db.Catalog()
	c.deptT, _ = cat.TupleType("Department")
	c.personT, _ = cat.TupleType("Person")
	c.empT, _ = cat.TupleType("Employee")
	if c.deptT == nil || c.personT == nil || c.empT == nil {
		return fmt.Errorf("company schema types missing from catalog")
	}
	return nil
}

// dump renders the model as an "#extra-dump v1" stream: the O(n) way
// into the engine (DB.Load), as opposed to one DB.Insert — one commit,
// one whole-extent freeze — per object. It also returns the objects in
// dump order, for harness-assembled stores that restore them directly.
func (c *company) dump() ([]byte, []exportObject, error) {
	head, tail := c.dumpHead, c.dumpTail
	deptT, personT, empT := c.deptT, c.personT, c.empT

	// OIDs: departments first, then each employee followed by its kids.
	next := oid.OID(0)
	for i := range c.depts {
		next++
		c.depts[i].oid = next
	}
	var nursery, deptObjs, empObjs []exportObject
	for i := range c.depts {
		d := &c.depts[i]
		tv := value.NewTuple(deptT)
		tv.Set("dname", value.NewStr(d.name))
		tv.Set("floor", value.NewInt(int64(d.floor)))
		tv.Set("budget", value.NewInt(int64(d.budget)))
		enc, err := codec.Encode(nil, tv)
		if err != nil {
			return nil, nil, err
		}
		deptObjs = append(deptObjs, exportObject{Extent: "Departments", OID: d.oid, Data: enc})
	}
	addEmp := func(e *emp) error {
		next++
		id := next
		refs := make([]value.Value, 0, len(e.kids))
		for _, k := range e.kids {
			next++
			kv := value.NewTuple(personT)
			kv.Set("name", value.NewStr(k.name))
			kv.Set("age", value.NewInt(int64(k.age)))
			enc, err := codec.Encode(nil, kv)
			if err != nil {
				return err
			}
			nursery = append(nursery, exportObject{OID: next, Owner: id, Data: enc})
			refs = append(refs, value.Ref{OID: next, Type: personT.Name})
		}
		tv := value.NewTuple(empT)
		tv.Set("name", value.NewStr(e.name))
		tv.Set("age", value.NewInt(int64(e.age)))
		tv.Set("kids", &value.Set{Elems: refs})
		tv.Set("salary", value.NewInt(int64(e.salary)))
		tv.Set("dept", value.Ref{OID: c.depts[e.dept].oid, Type: deptT.Name})
		enc, err := codec.Encode(nil, tv)
		if err != nil {
			return err
		}
		empObjs = append(empObjs, exportObject{Extent: "Employees", OID: id, Data: enc})
		return nil
	}
	for i := range c.base {
		if err := addEmp(&c.base[i]); err != nil {
			return nil, nil, err
		}
	}
	for s := range c.hot {
		for i := range c.hot[s] {
			if err := addEmp(&c.hot[s][i]); err != nil {
				return nil, nil, err
			}
		}
	}

	// Dump order: nursery components (extent ""), then extents by name.
	objs := append(append(nursery, deptObjs...), empObjs...)
	var out bytes.Buffer
	out.Grow(len(head) + len(tail) + 160*len(objs))
	out.Write(head)
	for _, o := range objs {
		ext := o.Extent
		if ext == "" {
			ext = "-"
		}
		fmt.Fprintf(&out, "OBJ %s %d %d %s\n", ext, o.OID, o.Owner, hex.EncodeToString(o.Data))
	}
	out.Write(tail)
	c.objects = len(objs)
	return out.Bytes(), objs, nil
}

// Index DDL every workload defines after Load.
var indexDDL = []string{
	`define index EmpSal on Employees (salary)`,
	`define index EmpName on Employees (name)`,
}

// int4 builds the engine value for an int4 slot.
func int4(v int) value.Value { return value.Int{K: types.KInt4, V: int64(v)} }
