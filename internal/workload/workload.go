// Package workload generates the synthetic company database used by the
// benchmark harness: the paper publishes no evaluation data, so the
// experiments in EXPERIMENTS.md run on a parameterized version of its own
// running example — Departments, Employees with reference-valued dept
// attributes and own-ref kids sets, plus singleton and array variables.
// Generation is deterministic under a seed.
package workload

import (
	"fmt"
	"math/rand"

	extra "repro"
)

// Params sizes the generated database.
type Params struct {
	Departments int
	Employees   int
	MaxKids     int // kids per employee, uniform in [0, MaxKids]
	Floors      int
	MaxSalary   int
	Seed        int64
}

// Company holds handles to the generated objects for later wiring.
type Company struct {
	Depts []extra.Obj
	Emps  []extra.Obj
}

// Schema is the DDL of the synthetic company database.
const Schema = `
	define type Department: ( dname: varchar, floor: int4, budget: int4 )
	define type Person: ( name: varchar, age: int4, kids: { own ref Person } )
	define type Employee inherits Person: ( salary: int4, dept: ref Department )
	create Departments : { own Department }
	create Employees : { own Employee }
	create StarEmployee : ref Employee
	create TopTen : [10] ref Employee
`

// Load creates the schema and fills it according to p.
func Load(db *extra.DB, p Params) (*Company, error) {
	if p.Departments <= 0 {
		p.Departments = 10
	}
	if p.Floors <= 0 {
		p.Floors = 5
	}
	if p.MaxSalary <= 0 {
		p.MaxSalary = 200000
	}
	if _, err := db.Exec(Schema); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	c := &Company{}
	for i := 0; i < p.Departments; i++ {
		d, err := db.Insert("Departments", extra.Attrs{
			"dname":  fmt.Sprintf("dept-%03d", i),
			"floor":  rng.Intn(p.Floors) + 1,
			"budget": rng.Intn(1000000),
		})
		if err != nil {
			return nil, err
		}
		c.Depts = append(c.Depts, d)
	}
	for i := 0; i < p.Employees; i++ {
		attrs := extra.Attrs{
			"name":   fmt.Sprintf("emp-%06d", i),
			"age":    20 + rng.Intn(45),
			"salary": rng.Intn(p.MaxSalary),
			"dept":   c.Depts[rng.Intn(len(c.Depts))],
		}
		if p.MaxKids > 0 {
			n := rng.Intn(p.MaxKids + 1)
			kids := make([]any, 0, n)
			for k := 0; k < n; k++ {
				kids = append(kids, extra.Attrs{
					"name": fmt.Sprintf("kid-%06d-%d", i, k),
					"age":  1 + rng.Intn(17),
				})
			}
			attrs["kids"] = kids
		}
		e, err := db.Insert("Employees", attrs)
		if err != nil {
			return nil, err
		}
		c.Emps = append(c.Emps, e)
	}
	return c, nil
}

// New opens a fresh in-memory database, loads the workload, and returns
// both.
func New(p Params) (*extra.DB, *Company, error) {
	db, err := extra.Open()
	if err != nil {
		return nil, nil, err
	}
	c, err := Load(db, p)
	if err != nil {
		db.Close()
		return nil, nil, err
	}
	return db, c, nil
}
