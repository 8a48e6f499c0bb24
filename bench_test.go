package extra_test

// The benchmark harness of EXPERIMENTS.md: the paper publishes no
// performance evaluation (it is a design paper), so these benchmarks
// characterize the design choices its sections argue for, on the paper's
// own running example scaled up by the workload generator. Every B-row
// of EXPERIMENTS.md is regenerated by one of these testing.B benchmarks
// (the F-rows by TestFigure1…7); each section there names its
// `go test -bench` command.

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	extra "repro"
	"repro/internal/adt"
	"repro/internal/algebra"
	"repro/internal/excess/parse"
	"repro/internal/excess/sema"
	"repro/internal/workload"
)

func mustWorkload(b *testing.B, p workload.Params) *extra.DB {
	b.Helper()
	db, _, err := workload.New(p)
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
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 1})
	runQuery(b, db, `retrieve (E.name) from E in Employees where E.dept.floor = 2`)
}

func BenchmarkImplicitJoinExplicit(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 1})
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
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 500, MaxKids: 4, Seed: 2})
	runQuery(b, db, `retrieve (E.name, n = count(E.kids)) from E in Employees where count(E.kids) > 2`)
}

func BenchmarkNestedSetFlattened(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 500, MaxKids: 4, Seed: 2})
	flattenKids(b, db)
	runQuery(b, db, `retrieve (E.name) from E in Employees, K in Children where K.parent is E`)
}

// B3 — access-method selection: heap scan vs B+-tree probe across
// selectivities. The crossover the paper's optimizer discussion
// assumes appears as the index advantage shrinking with selectivity.
func accessMethodBench(b *testing.B, index bool, maxSalary int) {
	db := mustWorkload(b, workload.Params{Departments: 10, Employees: 5000, MaxSalary: 100000, Seed: 3})
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

// runBaseline times src through the optimizer's plan rewritten by edit
// (extra.NaivePlan, extra.NestedRescan), checked once against the
// reference evaluator before the timer starts.
func runBaseline(b *testing.B, db *extra.DB, src string, edit func(sema.Query, *algebra.Plan)) {
	b.Helper()
	run, _, err := extra.BaselineQuery(db, src, edit)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// B4 — the rule-based optimizer against the naive plan (declaration
// variable order, every conjunct residual, heap scans only) on a
// selective two-extent join.
const optimizerQuery = `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary < 1000 and E.dept is D and D.floor = 2`

func optimizerBench(b *testing.B, opt bool) {
	db := mustWorkload(b, workload.Params{Departments: 50, Employees: 2000, MaxSalary: 100000, Seed: 4})
	if _, err := db.Exec(`define index emp_sal on Employees (salary)`); err != nil {
		b.Fatal(err)
	}
	if !opt {
		runBaseline(b, db, optimizerQuery, extra.NaivePlan)
		return
	}
	runQuery(b, db, optimizerQuery)
}

func BenchmarkOptimizerOn(b *testing.B)  { optimizerBench(b, true) }
func BenchmarkOptimizerOff(b *testing.B) { optimizerBench(b, false) }

// B5 — ADT operator dispatch against built-in arithmetic: the same
// component-wise sums through the Complex dbclass vs float8 columns.
func BenchmarkADTDispatchComplex(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 10, Seed: 5})
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
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 10, Seed: 5})
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
	db, err := extra.Open()
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
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 7})
	runQuery(b, db, `retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`)
}

func BenchmarkAggregateWhole(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 7})
	runQuery(b, db, `retrieve (a = avg(Employees.salary))`)
}

func BenchmarkAggregateOver(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Seed: 7})
	runQuery(b, db, `retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`)
}

// B8 — copy semantics: appending an employee's value (own, deep copy of
// a large object) vs appending a reference to it.
func copyBench(b *testing.B, ref bool) {
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 200, MaxKids: 8, Seed: 8})
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

// B11 — join methods: the explicit equi-join answered by the hash-join
// access path vs the nested rescan, and the repeated ref-chase query, at
// 1k/10k/50k rows. The square nested-loop baselines beyond 1k are
// quadratic (minutes at 50k), so they only run in full mode; CI smoke
// uses -short.
func explicitJoinBench(b *testing.B, n int, hash bool) {
	db := mustWorkload(b, workload.Params{Departments: n, Employees: n, Seed: 11})
	const q = `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`
	if !hash {
		runBaseline(b, db, q, extra.NestedRescan)
		return
	}
	runQuery(b, db, q)
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
	db := mustWorkload(b, workload.Params{Departments: 100, Employees: emps, Floors: 5, Seed: 12})
	runQuery(b, db, `retrieve (E.name) from E in Employees where E.dept.floor = 2`)
}

func BenchmarkRefChase1k(b *testing.B)  { refChaseBench(b, 1000) }
func BenchmarkRefChase10k(b *testing.B) { refChaseBench(b, 10000) }
func BenchmarkRefChase50k(b *testing.B) { refChaseBench(b, 50000) }

// Measures derived-attribute call overhead (body binding is memoized).
func BenchmarkFunctionCall(b *testing.B) {
	db, _, err := workload.New(workload.Params{Departments: 5, Employees: 500, Seed: 6})
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
	db := mustWorkload(b, workload.Params{Departments: 5, Employees: 10, Seed: 12})
	// Exec includes parse+check+plan+execute over a near-empty extent;
	// subtracting BenchmarkPipelineParse isolates the middle stages.
	q := `retrieve (E.name) from E in Employees, D in Departments where E.dept is D and D.floor = 2 and E.salary > 100`
	runQuery(b, db, q)
}

// B13 — the closure compiler on an expression-heavy filter. The cross
// product evaluates the predicate once per (E, D) pair, so expression
// evaluation dominates the per-row scan work. (Its interpreted twin went
// with the interpreting walker; EXPERIMENTS.md keeps the last ratio.)
func BenchmarkExprFilterCompiled(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 50, Employees: 2000, MaxSalary: 1000, Seed: 14})
	runQuery(b, db, exprHeavyQuery)
}

// exprHeavyQuery is a filter of ~60 integer operators per evaluation,
// with one constant subexpression the compiler folds.
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
// times and read percentiles should stay close; a statement-scoped
// reader lock would park each read behind a full bulk-update statement.
func writerInterferenceBench(b *testing.B, withWriter bool) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Floors: 5, Seed: 13})
	if _, err := db.Query(fig5Query); err != nil { // warm the pool and plan cache
		b.Fatal(err)
	}
	if withWriter {
		stop := make(chan struct{})
		done := make(chan struct{})
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
		// Cleanups run last-in first-out, so this one, registered after
		// mustWorkload's, stops the writer before the database closes,
		// even when the loop below ends in b.Fatal.
		b.Cleanup(func() {
			close(stop)
			<-done
		})
	}
	lats := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lats {
		start := time.Now()
		if _, err := db.Query(fig5Query); err != nil {
			b.Fatal(err)
		}
		lats[i] = time.Since(start)
	}
	b.StopTimer()
	slices.Sort(lats)
	b.ReportMetric(float64(lats[len(lats)/2]), "read_p50_ns")
	b.ReportMetric(float64(lats[len(lats)*99/100]), "read_p99_ns")
}

func BenchmarkWriterInterferenceQuiet(b *testing.B)      { writerInterferenceBench(b, false) }
func BenchmarkWriterInterferenceBulkWriter(b *testing.B) { writerInterferenceBench(b, true) }

// fig5Query is the Figure 5 implicit join: one ref chase per employee.
const fig5Query = `retrieve (E.name) from E in Employees where E.dept.floor = 2`

// B12 — parallel read throughput: the Figure 5 ref chase from concurrent
// sessions, each pinning its own snapshot and executing lock-free. Run
// with -cpu 1,4,8 for the ladder: ns/op should fall with the CPU count
// until the cores run out, and never rise.
func BenchmarkParallelRead(b *testing.B) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Floors: 5, Seed: 13})
	if _, err := db.Query(fig5Query); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := db.NewSession()
		for pb.Next() {
			if _, err := sess.Query(fig5Query); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// B13 — compile-once on a 5000-employee store: a repeated statement hits
// the plan cache and a prepared one keeps its plan, so neither spends
// anything in check or plan, while statements of a new shape each time
// pay both every time (a fresh literal alone does not: the cache keys
// an ad-hoc statement by its shape, literals lifted into slots). check_ns/op and plan_ns/op are phase-histogram deltas over
// the timed loop: 0 means the phase never ran, not that it was fast.
func compileOnceBench(b *testing.B, db *extra.DB, run func(i int) error) {
	if err := run(-1); err != nil { // the first run checks and plans
		b.Fatal(err)
	}
	phases := func() (check, plan float64) {
		h := db.MetricsSnapshot().Histograms
		return float64(h["phase.check"].SumNS), float64(h["phase.plan"].SumNS)
	}
	check0, plan0 := phases()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	check, plan := phases()
	b.ReportMetric((check-check0)/float64(b.N), "check_ns/op")
	b.ReportMetric((plan-plan0)/float64(b.N), "plan_ns/op")
}

var compileOnceStore = workload.Params{Departments: 20, Employees: 5000, MaxSalary: 1000, Seed: 14}

func BenchmarkCompileOnceRepeat(b *testing.B) {
	db := mustWorkload(b, compileOnceStore)
	compileOnceBench(b, db, func(int) error { _, err := db.Query(fig5Query); return err })
}

func BenchmarkCompileOnceUnique(b *testing.B) {
	db := mustWorkload(b, compileOnceStore)
	compileOnceBench(b, db, func(i int) error {
		_, err := db.Query(fmt.Sprintf(`retrieve (n%d = E.name) from E in Employees where E.dept.floor = 2 and E.salary < 100000`, i+1))
		return err
	})
}

func BenchmarkCompileOncePrepared(b *testing.B) {
	db := mustWorkload(b, compileOnceStore)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.dept.floor = $1`)
	if err != nil {
		b.Fatal(err)
	}
	compileOnceBench(b, db, func(int) error { _, err := st.Exec(2); return err })
}

// B17 — a keyed point lookup on an indexed name, three ways: prepared
// with the key in its text, prepared with the key bound to $1, and ad
// hoc with a different key each time. A $1 bounds the index probe like a
// literal does, so the prepared $n form runs within a small factor of
// the literal form; the ad-hoc form parses every time but, its key lifted
// into the shape's slot, plans and compiles once.
var keyedLookupStore = workload.Params{Departments: 20, Employees: 5000, MaxSalary: 1000, Seed: 17}

const keyedLookupSrc = `retrieve (E.name, E.salary, E.age) from E in Employees where E.name = `

func keyedLookupBench(b *testing.B, run func(db *extra.DB) func(i int) (*extra.Result, error)) {
	db := mustWorkload(b, keyedLookupStore)
	if _, err := db.Exec(`define index emp_name on Employees (name)`); err != nil {
		b.Fatal(err)
	}
	lookup := run(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lookup(i)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("lookup %d: %d rows, want 1", i, len(res.Rows))
		}
	}
}

func BenchmarkKeyedLookupLiteral(b *testing.B) {
	keyedLookupBench(b, func(db *extra.DB) func(int) (*extra.Result, error) {
		st, err := db.Prepare(keyedLookupSrc + `"emp-000123"`)
		if err != nil {
			b.Fatal(err)
		}
		return func(int) (*extra.Result, error) { return st.Exec() }
	})
}

func BenchmarkKeyedLookupParam(b *testing.B) {
	keyedLookupBench(b, func(db *extra.DB) func(int) (*extra.Result, error) {
		st, err := db.Prepare(keyedLookupSrc + `$1`)
		if err != nil {
			b.Fatal(err)
		}
		return func(int) (*extra.Result, error) { return st.Exec("emp-000123") }
	})
}

func BenchmarkKeyedLookupAdhoc(b *testing.B) {
	keyedLookupBench(b, func(db *extra.DB) func(int) (*extra.Result, error) {
		return func(i int) (*extra.Result, error) {
			return db.Query(fmt.Sprintf(`%s"emp-%06d"`, keyedLookupSrc, i%keyedLookupStore.Employees))
		}
	})
}

// B15 — tracing overhead on the Figure 5 ref chase: off (the default),
// sampled 1-in-100, and always on, where every retrieve also pays the
// EXPLAIN ANALYZE counters its operator spans report.
func tracingBench(b *testing.B, every int) {
	db := mustWorkload(b, workload.Params{Departments: 20, Employees: 2000, Floors: 5, Seed: 15})
	db.SetTraceSampling(every)
	runQuery(b, db, fig5Query)
}

func BenchmarkTracingOff(b *testing.B)        { tracingBench(b, 0) }
func BenchmarkTracingSampled100(b *testing.B) { tracingBench(b, 100) }
func BenchmarkTracingAlways(b *testing.B)     { tracingBench(b, 1) }

// B16 — group commit: acknowledged single-row prepared appends from 1, 4
// and 16 sessions under each WAL sync mode ("off" opens no WAL). "each"
// fsyncs once per commit; "group" folds every committer that arrived
// during the previous fsync into the next, so commits/fsync, counted by
// the log itself, should grow with the session count.
func BenchmarkGroupCommit(b *testing.B) {
	for _, mode := range []string{"each", "group", "none", "off"} {
		for _, sessions := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/sessions=%d", mode, sessions), func(b *testing.B) {
				groupCommitBench(b, mode, sessions)
			})
		}
	}
}

func groupCommitBench(b *testing.B, mode string, sessions int) {
	var opts []extra.Option
	if mode != "off" {
		sm, err := extra.ParseWALSyncMode(mode)
		if err != nil {
			b.Fatal(err)
		}
		opts = append(opts, extra.WithWAL(b.TempDir()), extra.WithWALSync(sm))
	}
	db, err := extra.Open(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	db.MustExec(`define type Row: ( name: varchar, v: int4 ) create Rows : { own Row }`)
	stmts := make([]*extra.Stmt, sessions)
	for g := range stmts {
		if stmts[g], err = db.NewSession().Prepare(`append to Rows (name = $1, v = $2)`); err != nil {
			b.Fatal(err)
		}
	}
	fsyncs := db.WALFsyncs()
	// Session g commits rows g, g+sessions, …; the workers only b.Error,
	// so nothing returns before wg.Wait and none outlives the database.
	var wg sync.WaitGroup
	b.ResetTimer()
	for g, st := range stmts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < b.N; i += sessions {
				if _, err := st.Exec(fmt.Sprintf("g%d-%d", g, i), i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if n := db.WALFsyncs() - fsyncs; n > 0 {
		b.ReportMetric(float64(b.N)/float64(n), "commits/fsync")
	}
}
