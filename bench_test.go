package extra_test

// The benchmark harness of EXPERIMENTS.md: the paper publishes no
// performance evaluation (it is a design paper), so these benchmarks
// characterize the design choices its sections argue for, on the paper's
// own running example scaled up by the workload generator. Every
// experiment row in EXPERIMENTS.md is regenerated either by one of these
// testing.B benchmarks or by cmd/extrabench (which prints the tables).

import (
	"fmt"
	"testing"

	extra "repro"
	"repro/internal/adt"
	"repro/internal/excess/parse"
	"repro/internal/workload"
)

func mustWorkload(b *testing.B, p workload.Params, pool int) *extra.DB {
	b.Helper()
	db, _, err := workload.New(p, pool)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func runQuery(b *testing.B, db *extra.DB, q string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// B1 — implicit join through a reference path vs the explicit join the
// same question needs in a flat formulation. The implicit join chases
// one ref per employee; the explicit join pairs employees with the
// (small) Departments extent and filters with is.
func BenchmarkImplicitJoinRefChase(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 1}, 4096)
	runQuery(b, db, `retrieve (E.name) from E in Employees where E.dept.floor = 2`)
}

func BenchmarkImplicitJoinExplicit(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 1}, 4096)
	runQuery(b, db, `retrieve (E.name) from E in Employees, D in Departments where E.dept is D and D.floor = 2`)
}

// B2 — nested-set query vs a flattened relational equivalent: counting
// kids per employee directly from the embedded own-ref set, vs joining a
// separate Children extent back to its parent.
func flattenKids(b *testing.B, db *extra.DB) {
	b.Helper()
	if _, err := db.Exec(`
		define type ChildRow: ( cname: varchar, cage: int4, parent: ref Employee )
		create Children : { own ChildRow }
	`); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`append to Children (cname = K.name, cage = K.age, parent = E) from E in Employees, K in E.kids`); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkNestedSetDirect(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 500, MaxKids: 4, Seed: 2}, 4096)
	runQuery(b, db, `retrieve (E.name, n = count(E.kids)) from E in Employees where count(E.kids) > 2`)
}

func BenchmarkNestedSetFlattened(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 500, MaxKids: 4, Seed: 2}, 4096)
	flattenKids(b, db)
	runQuery(b, db, `retrieve (E.name) from E in Employees, K in Children where K.parent is E`)
}

// B3 — access-method selection: heap scan vs B+-tree probe across
// selectivities. The crossover the paper's optimizer discussion
// assumes appears as the index advantage shrinking with selectivity.
func accessMethodBench(b *testing.B, index bool, maxSalary int) {
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 5000, MaxSalary: 100000, Seed: 3}, 8192)
	if index {
		if _, err := db.Exec(`define index emp_sal on Employees (salary)`); err != nil {
			b.Fatal(err)
		}
	}
	q := fmt.Sprintf(`retrieve (E.name) from E in Employees where E.salary < %d`, maxSalary)
	runQuery(b, db, q)
}

func BenchmarkAccessMethodScanSel1(b *testing.B)    { accessMethodBench(b, false, 1000) }
func BenchmarkAccessMethodIndexSel1(b *testing.B)   { accessMethodBench(b, true, 1000) }
func BenchmarkAccessMethodScanSel10(b *testing.B)   { accessMethodBench(b, false, 10000) }
func BenchmarkAccessMethodIndexSel10(b *testing.B)  { accessMethodBench(b, true, 10000) }
func BenchmarkAccessMethodScanSel50(b *testing.B)   { accessMethodBench(b, false, 50000) }
func BenchmarkAccessMethodIndexSel50(b *testing.B)  { accessMethodBench(b, true, 50000) }
func BenchmarkAccessMethodScanSel100(b *testing.B)  { accessMethodBench(b, false, 100001) }
func BenchmarkAccessMethodIndexSel100(b *testing.B) { accessMethodBench(b, true, 100001) }

// B4 — the rule-based optimizer against the naive plan (original
// variable order, no pushdown, no index selection) on a selective
// two-extent join.
func optimizerBench(b *testing.B, opt bool) {
	db := mustWorkload(b, workload.Params{Departments: 50, Employees: 2000, MaxSalary: 100000, Seed: 4}, 8192)
	if _, err := db.Exec(`define index emp_sal on Employees (salary)`); err != nil {
		b.Fatal(err)
	}
	if !opt {
		db.SetOptimizer(extra.OptimizerOptions{NoPushdown: true, NoIndexSelect: true, NoReorder: true})
	}
	runQuery(b, db, `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary < 1000 and E.dept is D and D.floor = 2`)
}

func BenchmarkOptimizerOn(b *testing.B)  { optimizerBench(b, true) }
func BenchmarkOptimizerOff(b *testing.B) { optimizerBench(b, false) }

// B5 — ADT operator dispatch against built-in arithmetic: the same
// component-wise sums through the Complex dbclass vs float8 columns.
func BenchmarkADTDispatchComplex(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 10, Seed: 5}, 1024)
	if _, err := db.Exec(`
		define type CRow: ( a: Complex, b: Complex )
		create CRows : { own CRow }
	`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(fmt.Sprintf(`append to CRows (a = complex(%d.0, 1.0), b = complex(2.0, %d.0))`, i, i)); err != nil {
			b.Fatal(err)
		}
	}
	runQuery(b, db, `retrieve (s = R.a + R.b) from R in CRows`)
}

func BenchmarkADTDispatchBuiltin(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 10, Seed: 5}, 1024)
	if _, err := db.Exec(`
		define type FRow: ( ax: float8, ay: float8, bx: float8, yy: float8 )
		create FRows : { own FRow }
	`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, err := db.Exec(fmt.Sprintf(`append to FRows (ax = %d.0, ay = 1.0, bx = 2.0, yy = %d.0)`, i, i)); err != nil {
			b.Fatal(err)
		}
	}
	runQuery(b, db, `retrieve (sx = R.ax + R.bx, sy = R.ay + R.yy) from R in FRows`)
}

// B6 — own (embedded) vs ref (chased) component access: the same
// department data reached as an embedded own tuple vs through a
// reference to an independent object.
func ownVsRef(b *testing.B, own bool) {
	db, err := extra.Open(extra.WithPoolSize(4096))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.MustExec(`define type DeptV: ( dname: varchar, floor: int4 )`)
	if own {
		db.MustExec(`define type EmpOwn: ( name: varchar, dept: own DeptV )
			create Emps : { own EmpOwn }`)
	} else {
		db.MustExec(`define type EmpRef: ( name: varchar, dept: ref DeptV )
			create DeptVs : { own DeptV }
			create Emps : { own EmpRef }`)
	}
	var depts []extra.Obj
	if !own {
		for i := 0; i < 20; i++ {
			d, err := db.Insert("DeptVs", extra.Attrs{"dname": fmt.Sprintf("d%d", i), "floor": i%5 + 1})
			if err != nil {
				b.Fatal(err)
			}
			depts = append(depts, d)
		}
	}
	for i := 0; i < 2000; i++ {
		attrs := extra.Attrs{"name": fmt.Sprintf("e%d", i)}
		if own {
			attrs["dept"] = extra.Attrs{"dname": fmt.Sprintf("d%d", i%20), "floor": i%5 + 1}
		} else {
			attrs["dept"] = depts[i%20]
		}
		if _, err := db.Insert("Emps", attrs); err != nil {
			b.Fatal(err)
		}
	}
	runQuery(b, db, `retrieve (E.name) from E in Emps where E.dept.floor = 2`)
}

func BenchmarkOwnVsRefOwn(b *testing.B) { ownVsRef(b, true) }
func BenchmarkOwnVsRefRef(b *testing.B) { ownVsRef(b, false) }

// B7 — aggregate partitioning: by-grouped average vs whole-set average
// vs over-deduplicated count.
func BenchmarkAggregateBy(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 7}, 4096)
	runQuery(b, db, `retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`)
}

func BenchmarkAggregateWhole(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 7}, 4096)
	runQuery(b, db, `retrieve (a = avg(Employees.salary))`)
}

func BenchmarkAggregateOver(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 7}, 4096)
	runQuery(b, db, `retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`)
}

// B8 — copy semantics: appending an employee's value (own, deep copy of
// a large object) vs appending a reference to it.
func copyBench(b *testing.B, ref bool) {
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 200, MaxKids: 8, Seed: 8}, 8192)
	if ref {
		db.MustExec(`create Picked : { ref Employee }`)
	} else {
		db.MustExec(`create Copies : { own Employee }`)
	}
	target := "Copies"
	if ref {
		target = "Picked"
	}
	q := fmt.Sprintf(`append to %s (E) from E in Employees where E.salary > 100000`, target)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCopySemanticsOwnCopy(b *testing.B)  { copyBench(b, false) }
func BenchmarkCopySemanticsRefShare(b *testing.B) { copyBench(b, true) }

// B9 — lattice depth: resolving an inherited attribute through an
// N-deep inheritance chain (resolution is precomputed per type, so depth
// should be flat at query time).
func latticeBench(b *testing.B, depth int) {
	db, err := extra.Open()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.MustExec(`define type L0: ( base: int4 )`)
	for i := 1; i <= depth; i++ {
		db.MustExec(fmt.Sprintf(`define type L%d inherits L%d: ( f%d: int4 )`, i, i-1, i))
	}
	db.MustExec(fmt.Sprintf(`create Leafs : { own L%d }`, depth))
	for i := 0; i < 500; i++ {
		if _, err := db.Insert("Leafs", extra.Attrs{"base": i}); err != nil {
			b.Fatal(err)
		}
	}
	runQuery(b, db, `retrieve (E.base) from E in Leafs where E.base < 50`)
}

func BenchmarkInheritanceDepth1(b *testing.B)  { latticeBench(b, 1) }
func BenchmarkInheritanceDepth4(b *testing.B)  { latticeBench(b, 4) }
func BenchmarkInheritanceDepth16(b *testing.B) { latticeBench(b, 16) }

// B10 — buffer pool: the same scan with the working set inside vs far
// beyond the pool, showing the hit-rate cliff.
func poolBench(b *testing.B, pages int) {
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 8000, MaxKids: 2, Seed: 10}, pages)
	db.ResetPoolStats()
	runQuery(b, db, `retrieve (n = count(Employees))`)
	b.ReportMetric(db.PoolStats().HitRate()*100, "hit%")
}

func BenchmarkBufferPoolLarge(b *testing.B) { poolBench(b, 8192) }
func BenchmarkBufferPoolSmall(b *testing.B) { poolBench(b, 16) }

// B4 ablations: each optimizer rule disabled alone, quantifying its
// individual contribution on the selective join.
func optimizerAblation(b *testing.B, opt extra.OptimizerOptions) {
	db := mustWorkload(b, workload.Params{Departments: 50, Employees: 2000, MaxSalary: 100000, Seed: 4}, 8192)
	if _, err := db.Exec(`define index emp_sal on Employees (salary)`); err != nil {
		b.Fatal(err)
	}
	db.SetOptimizer(opt)
	runQuery(b, db, `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary < 1000 and E.dept is D and D.floor = 2`)
}

func BenchmarkOptimizerNoPushdown(b *testing.B) {
	optimizerAblation(b, extra.OptimizerOptions{NoPushdown: true})
}

func BenchmarkOptimizerNoIndexSelect(b *testing.B) {
	optimizerAblation(b, extra.OptimizerOptions{NoIndexSelect: true})
}

func BenchmarkOptimizerNoReorder(b *testing.B) {
	optimizerAblation(b, extra.OptimizerOptions{NoReorder: true})
}

// B11 — join methods: the explicit equi-join answered by the hash-join
// access path vs the nested rescan, and the repeated ref-chase query, at
// 1k/10k/50k rows. The square nested-loop baselines beyond 1k are
// quadratic (minutes at 50k), so they only run in full mode; CI smoke
// uses -short.
func explicitJoinBench(b *testing.B, n int, hash bool) {
	db := mustWorkload(b, workload.Params{Departments: n, Employees: n, Seed: 11}, 16384)
	if !hash {
		db.SetOptimizer(extra.OptimizerOptions{NoHashJoin: true})
	}
	runQuery(b, db, `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`)
}

func BenchmarkExplicitJoinHash1k(b *testing.B)  { explicitJoinBench(b, 1000, true) }
func BenchmarkExplicitJoinHash10k(b *testing.B) { explicitJoinBench(b, 10000, true) }
func BenchmarkExplicitJoinHash50k(b *testing.B) { explicitJoinBench(b, 50000, true) }

func BenchmarkExplicitJoinNested1k(b *testing.B) { explicitJoinBench(b, 1000, false) }

func BenchmarkExplicitJoinNested10k(b *testing.B) {
	if testing.Short() {
		b.Skip("quadratic baseline; skipped in -short")
	}
	explicitJoinBench(b, 10000, false)
}

func BenchmarkExplicitJoinNested50k(b *testing.B) {
	if testing.Short() {
		b.Skip("quadratic baseline; skipped in -short")
	}
	explicitJoinBench(b, 50000, false)
}

func refChaseBench(b *testing.B, emps int) {
	db := mustWorkload(b, workload.Params{Departments: 100, Employees: emps, Floors: 5, Seed: 12}, 16384)
	runQuery(b, db, `retrieve (E.name) from E in Employees where E.dept.floor = 2`)
}

func BenchmarkRefChase1k(b *testing.B)  { refChaseBench(b, 1000) }
func BenchmarkRefChase10k(b *testing.B) { refChaseBench(b, 10000) }
func BenchmarkRefChase50k(b *testing.B) { refChaseBench(b, 50000) }

// Measures derived-attribute call overhead (body binding is memoized).
func BenchmarkFunctionCall(b *testing.B) {
	db, _, err := workload.New(workload.Params{Departments: 5, Employees: 500, Seed: 6}, 2048)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.MustExec(`define function Wealth (E: Employee) returns int4 as (E.salary * 12)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`retrieve (E.Wealth) from E in Employees`); err != nil {
			b.Fatal(err)
		}
	}
}

// Pipeline micro-benchmarks: per-stage costs of the compiler path.
func BenchmarkPipelineParse(b *testing.B) {
	src := `retrieve (E.name, sal = E.salary, n = count(E.kids)) from E in Employees, D in Departments where E.dept is D and D.floor = 2 and E.salary > 100`
	reg := adt.NewRegistry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parse.Statements(src, reg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineCheckAndPlan(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 10, Seed: 12}, 256)
	// Exec includes parse+check+plan+execute over a near-empty extent;
	// subtracting BenchmarkPipelineParse isolates the middle stages.
	q := `retrieve (E.name) from E in Employees, D in Departments where E.dept is D and D.floor = 2 and E.salary > 100`
	runQuery(b, db, q)
}

// B13 — the closure compiler vs the interpreting walker on an
// expression-heavy filter. The cross product evaluates the predicate
// once per (E, D) pair, so expression evaluation dominates the per-row
// scan work and the compiled/interpreted gap is the measurement.
func exprFilterBench(b *testing.B, interpret bool) {
	db := mustWorkload(b, workload.Params{Departments: 50, Employees: 2000, MaxSalary: 1000, Seed: 14}, 8192)
	if interpret {
		db.SetOptimizer(extra.OptimizerOptions{NoCompiledExprs: true})
	}
	runQuery(b, db, exprHeavyQuery)
}

func BenchmarkExprFilterCompiled(b *testing.B)    { exprFilterBench(b, false) }
func BenchmarkExprFilterInterpreted(b *testing.B) { exprFilterBench(b, true) }

// exprHeavyQuery is shared with extrabench's B13: a filter of ~60
// integer operators per evaluation, with one constant subexpression the
// compiler folds and the walker recomputes per row.
const exprHeavyQuery = `retrieve (n = count(E.name)) from E in Employees, D in Departments where
	(E.salary * D.floor + 7) % 97 + (E.salary * 3 + D.floor * 11) % 89 + (E.salary * 5 + 13) % 83
	+ (E.salary * 7 + D.floor * 17) % 79 + (E.salary * 11 + 19) % 73 + (E.salary * 13 + 23) % 71
	+ (E.salary * 17 + D.floor * 29) % 61 + (E.salary * 19 + 31) % 59 + (E.salary * 23 + 37) % 53
	+ (E.salary * 29 + D.floor * 41) % 47 + (E.salary * 31 + 43) % 43 + (E.salary * 37 + 47) % 41
	+ ((13 * 17 + 5) * 3 - 100) % 50 + (E.salary - 250) * (D.floor - 750) % 67
	+ (E.salary - 125) * (E.salary - 375) % 37 + (E.salary - 625) * (E.salary - 875) % 31 < 40`

// B12 — writer interference on the MVCC read path: the same reader
// query timed on a quiet database and with one session looping a bulk
// salary update the whole run. Snapshot reads pin a version during a
// short shared-lock window and execute lock-free, so the two per-op
// times should stay close; a statement-scoped reader lock would park
// each read behind a full bulk-update statement.
func writerInterferenceBench(b *testing.B, withWriter bool) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Floors: 5, Seed: 13}, 8192)
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	if _, err := db.Query(q); err != nil { // warm the pool and plan cache
		b.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	if withWriter {
		go func() {
			defer close(done)
			w := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Exec(`replace E (salary = E.salary + 1) from E in Employees where E.dept.floor = 2`); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	} else {
		close(done)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(stop)
	<-done
}

func BenchmarkWriterInterferenceQuiet(b *testing.B)      { writerInterferenceBench(b, false) }
func BenchmarkWriterInterferenceBulkWriter(b *testing.B) { writerInterferenceBench(b, true) }
