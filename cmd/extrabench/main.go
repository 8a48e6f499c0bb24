// Command extrabench regenerates every experiment in EXPERIMENTS.md: the
// functional reproductions of the paper's figures (F1–F7) and the
// performance characterization of its design choices (B1–B13, B15).
//
// Usage:
//
//	extrabench [-exp all|F1,...,B15] [-reps 20] [-par N] [-traceout out.json]
//
// Each experiment prints the table rows recorded in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	extra "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

var reps = flag.Int("reps", 20, "timing repetitions per measurement")

var par = flag.Int("par", 0,
	"B12: measure only this parallelism level (0 = the 1, 4, 8 ladder)")

var statsMode = flag.String("stats", "",
	`dump the metrics registry of each experiment's last database after its phase: "text" or "json"`)

var traceOut = flag.String("traceout", "",
	"B15: write the always-on pass's retained statement traces to this file as Chrome trace_event JSON")

// lastDB tracks the most recently opened database so -stats can dump
// its registry when the experiment finishes (counters stay readable
// after Close).
var lastDB *extra.DB

func track(db *extra.DB) *extra.DB {
	lastDB = db
	return db
}

func dumpStats(db *extra.DB) {
	switch *statsMode {
	case "json":
		raw, err := json.MarshalIndent(db.MetricsSnapshot(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "stats:", err)
			return
		}
		fmt.Println(string(raw))
	default:
		if err := db.MetricsSnapshot().WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "stats:", err)
		}
	}
}

type experiment struct {
	id    string
	title string
	run   func() error
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (F1..F7, B1..B13, B15) or all")
	flag.Parse()

	exps := []experiment{
		{"F1", "Figure 1: Person/Date schema, instances, first retrieves", figure1},
		{"F2", "Figure 2: multiple-inheritance lattice", figure2},
		{"F3", "Figure 3: conflict resolution by renaming", figure3},
		{"F4", "Figure 4: own / ref / own ref semantics", figure4},
		{"F5", "Figure 5: retrieval — implicit joins, nested sets, paths", figure5},
		{"F6", "Figure 6: aggregates, updates, quantification", figure6},
		{"F7", "Figure 7: Complex ADT dbclass and operators", figure7},
		{"B1", "implicit join vs explicit join", b1},
		{"B2", "nested set vs flattened join", b2},
		{"B3", "index vs heap scan across selectivities", b3},
		{"B4", "optimizer on vs off", b4},
		{"B5", "ADT dispatch vs built-in arithmetic", b5},
		{"B6", "own (embedded) vs ref (chased) access", b6},
		{"B7", "aggregate partitioning by / whole / over", b7},
		{"B8", "own copy vs ref share on append", b8},
		{"B9", "inheritance depth vs query cost", b9},
		{"B10", "buffer pool working-set cliff", b10},
		{"B11", "join methods: hash vs nested, ref chase", b11},
		{"B12", "parallel read throughput: sessions sharing the read lock", b12},
		{"B13", "compile-once: plan cache, prepared statements, compiled expressions", b13},
		{"B15", "tracing overhead: off vs sampled 1-in-100 vs always-on", b15},
		{"B16", "durability: group commit vs fsync-per-commit vs no WAL", b16},
	}
	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	for _, e := range exps {
		if !all && !want[e.id] {
			continue
		}
		fmt.Printf("== %s — %s\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		if *statsMode != "" && lastDB != nil {
			fmt.Printf("-- %s metrics\n", e.id)
			dumpStats(lastDB)
			lastDB = nil
		}
		fmt.Println()
	}
}

func open() *extra.DB {
	db, err := extra.Open(extra.WithPoolSize(8192))
	if err != nil {
		panic(err)
	}
	return track(db)
}

// openW opens a generated workload database, tracked for -stats.
func openW(p workload.Params, pool int) (*extra.DB, error) {
	db, _, err := workload.New(p, pool)
	if err != nil {
		return nil, err
	}
	return track(db), nil
}

// show runs a query and prints it with its result table.
func show(db *extra.DB, q string) error {
	res, err := db.Query(q)
	if err != nil {
		return fmt.Errorf("%s: %w", q, err)
	}
	fmt.Println("  " + q)
	for _, line := range strings.Split(strings.TrimRight(res.String(), "\n"), "\n") {
		fmt.Println("    " + line)
	}
	return nil
}

// timeQuery reports the median wall time of a query over reps runs.
func timeQuery(db *extra.DB, q string) (time.Duration, int, error) {
	var durs []time.Duration
	rows := 0
	for i := 0; i < *reps; i++ {
		start := time.Now()
		res, err := db.Query(q)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", q, err)
		}
		durs = append(durs, time.Since(start))
		rows = len(res.Rows)
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], rows, nil
}

func row(cols ...any) {
	fmt.Print("  ")
	for i, c := range cols {
		if i > 0 {
			fmt.Print("  ")
		}
		fmt.Printf("%-24v", c)
	}
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Figures

func figure1() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type Person:
		  ( name: char[20], ssnum: int4, birthday: Date, kids: { own ref Person } )
		define type Employee inherits Person: ( salary: int4 )
		create Employees : { own Employee }
		create StarEmployee : ref Employee
		create TopTen : [10] ref Employee
		create Today : Date
		set Today = date("12/07/1987")
		append to Employees (name = "Ann", ssnum = 1, salary = 90, birthday = date("01/15/1955"))
		append to Employees (name = "Ben", ssnum = 2, salary = 70, birthday = date("03/02/1960"))
		set StarEmployee = E from E in Employees where E.name = "Ann"
		set TopTen[1] = E from E in Employees where E.name = "Ann"
	`)
	for _, q := range []string{
		`retrieve (Today)`,
		`retrieve (StarEmployee.name, StarEmployee.salary)`,
		`retrieve (TopTen[1].name, TopTen[1].salary)`,
		`retrieve (age_days = Today - StarEmployee.birthday)`,
	} {
		if err := show(db, q); err != nil {
			return err
		}
	}
	return nil
}

func figure2() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type Person: ( name: varchar, age: int4 )
		define type Employee inherits Person: ( salary: int4 )
		define type Student inherits Person: ( gpa: float8 )
		define type StudentEmp inherits Employee, Student: ( hours: int4 )
		create StudentEmps : { own StudentEmp }
		append to StudentEmps (name = "Pat", age = 22, salary = 10, gpa = 3.5, hours = 20)
	`)
	tt, _ := db.Catalog().TupleType("StudentEmp")
	fmt.Println("  StudentEmp attributes (inherited along both lattice paths):")
	for _, a := range tt.Attrs() {
		fmt.Printf("    %-8s from %s\n", a.Name, tt.Origin(a.Name))
	}
	return show(db, `retrieve (S.name, S.gpa, S.salary) from S in StudentEmps`)
}

func figure3() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type Person: ( name: varchar )
		define type Department: ( dname: varchar )
		define type School: ( sname: varchar )
		define type Employee inherits Person: ( dept: ref Department )
		define type Student inherits Person: ( dept: ref School )
	`)
	_, err := db.Exec(`define type StudentEmp inherits Employee, Student: ( hours: int4 )`)
	fmt.Printf("  unresolved conflict rejected: %v\n", err)
	db.MustExec(`define type StudentEmp inherits Employee, Student with dept renamed school_dept: ( hours: int4 )`)
	tt, _ := db.Catalog().TupleType("StudentEmp")
	fmt.Printf("  resolved with rename: dept from %s, school_dept from %s\n",
		tt.Origin("dept"), tt.Origin("school_dept"))
	return nil
}

func figure4() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type Child: ( cname: varchar )
		define type CompParent: ( pname: varchar, kids: { own ref Child } )
		create CompParents : { own CompParent }
		append to CompParents (pname = "c1")
		append to CompParents (pname = "c2")
		append to P.kids (cname = "kid") from P in CompParents where P.pname = "c1"
	`)
	_, err := db.Exec(`append to P.kids (K) from P in CompParents, K in CompParents.kids where P.pname = "c2"`)
	fmt.Printf("  composite exclusivity enforced: %v\n", err)
	db.MustExec(`delete P from P in CompParents where P.pname = "c1"`)
	if err := show(db, `retrieve (n = count(CompParents.kids))`); err != nil {
		return err
	}
	fmt.Println("  (owned children destroyed with their parent)")
	return nil
}

func loadSmallCompany(db *extra.DB) {
	if _, err := workload.Load(db, workload.Params{Departments: 3, Employees: 12, MaxKids: 2, Floors: 2, MaxSalary: 100, Seed: 42}); err != nil {
		panic(err)
	}
}

func figure5() error {
	db := open()
	defer db.Close()
	loadSmallCompany(db)
	for _, q := range []string{
		`retrieve (E.name, E.salary) from E in Employees where E.dept.floor = 2`,
		`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
		`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D and E.salary > 80`,
	} {
		if err := show(db, q); err != nil {
			return err
		}
	}
	return nil
}

func figure6() error {
	db := open()
	defer db.Close()
	loadSmallCompany(db)
	db.MustExec(`range of AE is all Employees`)
	for _, q := range []string{
		`retrieve (total = sum(Employees.salary))`,
		`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
		`retrieve (distinct_depts = count(E.dept.dname over E.dept.dname)) from E in Employees`,
		`retrieve (D.dname) from D in Departments where AE.dept isnot D or AE.salary > 10`,
	} {
		if err := show(db, q); err != nil {
			return err
		}
	}
	db.MustExec(`replace E (salary = E.salary + 10) from E in Employees where E.dept.floor = 2`)
	return show(db, `retrieve (raised_total = sum(Employees.salary))`)
}

func figure7() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type CnumPair: ( val1: Complex, val2: Complex )
		create Pairs : { own CnumPair }
		append to Pairs (val1 = complex(1.0, 2.0), val2 = complex(3.0, -1.0))
	`)
	for _, q := range []string{
		`retrieve (s = P.val1 + P.val2) from P in Pairs`,
		`retrieve (s = Add(P.val1, P.val2)) from P in Pairs`,
		`retrieve (m = Magnitude(P.val1 * P.val2)) from P in Pairs`,
	} {
		if err := show(db, q); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Benchmarks

func b1() error {
	db, err := openW(workload.Params{Departments: 20, Employees: 2000, Seed: 1}, 8192)
	if err != nil {
		return err
	}
	defer db.Close()
	row("variant", "median", "rows")
	d, n, err := timeQuery(db, `retrieve (E.name) from E in Employees where E.dept.floor = 2`)
	if err != nil {
		return err
	}
	row("implicit (ref chase)", d, n)
	d, n, err = timeQuery(db, `retrieve (E.name) from E in Employees, D in Departments where E.dept is D and D.floor = 2`)
	if err != nil {
		return err
	}
	row("explicit join", d, n)
	return nil
}

func b2() error {
	db, err := openW(workload.Params{Departments: 10, Employees: 500, MaxKids: 4, Seed: 2}, 8192)
	if err != nil {
		return err
	}
	defer db.Close()
	db.MustExec(`
		define type ChildRow: ( cname: varchar, parent: ref Employee )
		create Children : { own ChildRow }
		append to Children (cname = K.name, parent = E) from E in Employees, K in E.kids
	`)
	row("variant", "median", "rows")
	d, n, err := timeQuery(db, `retrieve (E.name, n = count(E.kids)) from E in Employees`)
	if err != nil {
		return err
	}
	row("nested own-ref set", d, n)
	d, n, err = timeQuery(db, `retrieve (E.name) from E in Employees, K in Children where K.parent is E`)
	if err != nil {
		return err
	}
	row("flattened join", d, n)
	return nil
}

func b3() error {
	db, err := openW(workload.Params{Departments: 10, Employees: 5000, MaxSalary: 100000, Seed: 3}, 16384)
	if err != nil {
		return err
	}
	defer db.Close()
	row("selectivity", "heap scan", "index probe", "rows")
	for _, cut := range []int{1000, 10000, 50000, 100001} {
		q := fmt.Sprintf(`retrieve (E.name) from E in Employees where E.salary < %d`, cut)
		db.SetOptimizer(extra.OptimizerOptions{NoIndexSelect: true})
		scan, n, err := timeQuery(db, q)
		if err != nil {
			return err
		}
		db.SetOptimizer(extra.OptimizerOptions{})
		if _, ok := db.Catalog().Index("emp_sal"); !ok {
			db.MustExec(`define index emp_sal on Employees (salary)`)
		}
		probe, _, err := timeQuery(db, q)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("%d%%", cut/1000), scan, probe, n)
	}
	return nil
}

func b4() error {
	db, err := openW(workload.Params{Departments: 50, Employees: 2000, MaxSalary: 100000, Seed: 4}, 8192)
	if err != nil {
		return err
	}
	defer db.Close()
	db.MustExec(`define index emp_sal on Employees (salary)`)
	q := `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary < 1000 and E.dept is D and D.floor = 2`
	row("plan", "median", "rows")
	d, n, err := timeQuery(db, q)
	if err != nil {
		return err
	}
	row("optimized", d, n)
	db.SetOptimizer(extra.OptimizerOptions{NoPushdown: true, NoIndexSelect: true, NoReorder: true})
	d, _, err = timeQuery(db, q)
	if err != nil {
		return err
	}
	row("naive", d, n)
	return nil
}

func b5() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type CRow: ( a: Complex, b: Complex )
		define type FRow: ( ax: float8, bx: float8 )
		create CRows : { own CRow }
		create FRows : { own FRow }
	`)
	for i := 0; i < 500; i++ {
		db.MustExec(fmt.Sprintf(`append to CRows (a = complex(%d.0, 1.0), b = complex(2.0, %d.0))`, i, i))
		db.MustExec(fmt.Sprintf(`append to FRows (ax = %d.0, bx = 2.0)`, i))
	}
	row("variant", "median")
	d, _, err := timeQuery(db, `retrieve (s = R.a + R.b) from R in CRows`)
	if err != nil {
		return err
	}
	row("Complex ADT +", d)
	d, _, err = timeQuery(db, `retrieve (s = R.ax + R.bx) from R in FRows`)
	if err != nil {
		return err
	}
	row("float8 +", d)
	return nil
}

func b6() error {
	db := open()
	defer db.Close()
	db.MustExec(`
		define type DeptV: ( dname: varchar, floor: int4 )
		define type EmpOwn: ( name: varchar, dept: own DeptV )
		define type EmpRef: ( name: varchar, dept: ref DeptV )
		create DeptVs : { own DeptV }
		create EmpsOwn : { own EmpOwn }
		create EmpsRef : { own EmpRef }
	`)
	var depts []extra.Obj
	for i := 0; i < 20; i++ {
		d, err := db.Insert("DeptVs", extra.Attrs{"dname": fmt.Sprintf("d%d", i), "floor": i%5 + 1})
		if err != nil {
			return err
		}
		depts = append(depts, d)
	}
	for i := 0; i < 2000; i++ {
		if _, err := db.Insert("EmpsOwn", extra.Attrs{"name": fmt.Sprintf("e%d", i),
			"dept": extra.Attrs{"dname": fmt.Sprintf("d%d", i%20), "floor": i%5 + 1}}); err != nil {
			return err
		}
		if _, err := db.Insert("EmpsRef", extra.Attrs{"name": fmt.Sprintf("e%d", i), "dept": depts[i%20]}); err != nil {
			return err
		}
	}
	row("variant", "median", "rows")
	d, n, err := timeQuery(db, `retrieve (E.name) from E in EmpsOwn where E.dept.floor = 2`)
	if err != nil {
		return err
	}
	row("own (embedded)", d, n)
	d, n, err = timeQuery(db, `retrieve (E.name) from E in EmpsRef where E.dept.floor = 2`)
	if err != nil {
		return err
	}
	row("ref (chased)", d, n)
	return nil
}

func b7() error {
	db, err := openW(workload.Params{Departments: 20, Employees: 2000, Seed: 7}, 8192)
	if err != nil {
		return err
	}
	defer db.Close()
	row("aggregate", "median", "rows")
	for _, c := range []struct{ label, q string }{
		{"by floor", `retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`},
		{"whole extent", `retrieve (a = avg(Employees.salary))`},
		{"over dedup", `retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`},
	} {
		d, n, err := timeQuery(db, c.q)
		if err != nil {
			return err
		}
		row(c.label, d, n)
	}
	return nil
}

func b8() error {
	db, err := openW(workload.Params{Departments: 5, Employees: 200, MaxKids: 8, Seed: 8}, 16384)
	if err != nil {
		return err
	}
	defer db.Close()
	db.MustExec(`create Picked : { ref Employee }`)
	db.MustExec(`create Copies : { own Employee }`)
	row("variant", "median (append of ~100 objects)")
	for _, c := range []struct{ label, q string }{
		{"own (deep copy)", `append to Copies (E) from E in Employees where E.salary > 100000`},
		{"ref (share)", `append to Picked (E) from E in Employees where E.salary > 100000`},
	} {
		var durs []time.Duration
		for i := 0; i < *reps; i++ {
			start := time.Now()
			if _, err := db.Exec(c.q); err != nil {
				return err
			}
			durs = append(durs, time.Since(start))
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		row(c.label, durs[len(durs)/2])
	}
	return nil
}

func b9() error {
	row("lattice depth", "median")
	for _, depth := range []int{1, 4, 16} {
		db := open()
		db.MustExec(`define type L0: ( base: int4 )`)
		for i := 1; i <= depth; i++ {
			db.MustExec(fmt.Sprintf(`define type L%d inherits L%d: ( f%d: int4 )`, i, i-1, i))
		}
		db.MustExec(fmt.Sprintf(`create Leafs : { own L%d }`, depth))
		for i := 0; i < 500; i++ {
			if _, err := db.Insert("Leafs", extra.Attrs{"base": i}); err != nil {
				return err
			}
		}
		d, _, err := timeQuery(db, `retrieve (E.base) from E in Leafs where E.base < 50`)
		if err != nil {
			return err
		}
		row(depth, d)
		db.Close()
	}
	return nil
}

func b10() error {
	row("pool pages", "medium", "median scan", "hit rate")
	for _, medium := range []string{"memory", "file"} {
		for _, pages := range []int{16, 64, 256, 8192} {
			var opts []extra.Option
			if medium == "file" {
				f, err := os.CreateTemp("", "extra-pages-*.db")
				if err != nil {
					return err
				}
				path := f.Name()
				f.Close()
				defer os.Remove(path)
				opts = append(opts, extra.WithFileStore(path))
			}
			opts = append(opts, extra.WithPoolSize(pages))
			db, err := extra.Open(opts...)
			if err != nil {
				return err
			}
			track(db)
			if _, err := workload.Load(db, workload.Params{Departments: 10, Employees: 8000, MaxKids: 2, Seed: 10}); err != nil {
				db.Close()
				return err
			}
			db.ResetPoolStats()
			d, _, err := timeQuery(db, `retrieve (n = count(Employees))`)
			if err != nil {
				db.Close()
				return err
			}
			st := db.PoolStats()
			row(pages, medium, d, fmt.Sprintf("%.1f%%", st.HitRate()*100))
			db.Close()
		}
	}
	return nil
}

// benchRecord is one line of BENCH_joins.json: the machine-readable
// counterpart of the B11 table, consumed by CI trend tooling.
type benchRecord struct {
	Name string `json:"name"`
	NsOp int64  `json:"ns_per_op"`
	Rows int    `json:"rows"`
}

// timeQueryN is timeQuery with an explicit repetition count, for
// measurements (the quadratic nested-loop baseline) where the global
// -reps default would take minutes.
func timeQueryN(db *extra.DB, q string, n int) (time.Duration, int, error) {
	saved := *reps
	*reps = n
	defer func() { *reps = saved }()
	return timeQuery(db, q)
}

// b11 contrasts the two join access methods (hash vs nested iteration)
// and times the implicit-join ref chase, then writes BENCH_joins.json
// so CI can track the numbers without scraping the table. The
// nested-loop baseline is quadratic, so it runs at a reduced scale and
// repetition count; Go benchmarks in bench_test.go cover the larger
// scales.
func b11() error {
	row("benchmark", "median", "rows")
	var recs []benchRecord
	rec := func(name string, d time.Duration, rows int) {
		row(name, d, rows)
		recs = append(recs, benchRecord{Name: name, NsOp: d.Nanoseconds(), Rows: rows})
	}

	// Explicit equi-join: hash access path vs pure nested iteration.
	const joinN = 1000
	db, err := openW(workload.Params{Departments: joinN, Employees: joinN, Seed: 11}, 16384)
	if err != nil {
		return err
	}
	defer db.Close()
	joinQ := `retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D`
	d, rows, err := timeQuery(db, joinQ)
	if err != nil {
		return err
	}
	rec("ExplicitJoinHash1k", d, rows)
	db.SetOptimizer(extra.OptimizerOptions{NoHashJoin: true})
	if d, rows, err = timeQueryN(db, joinQ, 3); err != nil {
		return err
	}
	rec("ExplicitJoinNested1k", d, rows)

	// Implicit-join ref chase: one fetch from the snapshot per employee.
	dbr, err := openW(workload.Params{Departments: 100, Employees: 10000, Floors: 5, Seed: 12}, 16384)
	if err != nil {
		return err
	}
	defer dbr.Close()
	chaseQ := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	if d, rows, err = timeQuery(dbr, chaseQ); err != nil {
		return err
	}
	rec("RefChase10k", d, rows)

	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_joins.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_joins.json")
	return nil
}

// concRecord is one line of BENCH_concurrency.json: read throughput at
// one parallelism level. GOMAXPROCS is recorded because the speedup a
// run can show is bounded by the cores the scheduler may use — on a
// single-core host all levels collapse to lock-contention overhead.
type concRecord struct {
	Name        string  `json:"name"`
	Goroutines  int     `json:"goroutines"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Statements  int     `json:"statements"`
	TotalNs     int64   `json:"total_ns"`
	StmtsPerSec float64 `json:"stmts_per_sec"`
	Speedup     float64 `json:"speedup_vs_serial"`
	// Writer-interference columns (the MVCC oracle): per-statement read
	// latency percentiles measured with and without a concurrent bulk
	// updater. Under snapshot reads the two distributions should be
	// close; under the old statement RWMutex the p99 with a writer was
	// the writer's statement time.
	BulkWriter  bool  `json:"bulk_writer,omitempty"`
	WriterStmts int   `json:"writer_stmts,omitempty"`
	ReadP50Ns   int64 `json:"read_p50_ns,omitempty"`
	ReadP99Ns   int64 `json:"read_p99_ns,omitempty"`
}

// b12 measures read-statement throughput as goroutines are added, each
// with its own session, over the Figure 5 implicit-join workload. All
// statements are retrieves, so every goroutine holds the shared side of
// the statement lock: added goroutines should scale until the cores run
// out. Writes BENCH_concurrency.json for CI trend tooling.
func b12() error {
	db, err := openW(workload.Params{Departments: 20, Employees: 2000, Floors: 5, Seed: 13}, 8192)
	if err != nil {
		return err
	}
	defer db.Close()
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	if _, err := db.Query(q); err != nil { // warm the pool and plan path
		return err
	}

	levels := []int{1, 4, 8}
	if *par > 0 {
		levels = []int{*par}
	}
	perG := *reps * 5 // statements per goroutine; scale with -reps
	row("goroutines", "stmts", "elapsed", "stmts/sec", "speedup")
	var base float64
	var recs []concRecord
	for _, g := range levels {
		errc := make(chan error, g)
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < g; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess := db.NewSession()
				for j := 0; j < perG; j++ {
					if _, err := sess.Query(q); err != nil {
						errc <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		select {
		case err := <-errc:
			return err
		default:
		}
		total := g * perG
		rate := float64(total) / elapsed.Seconds()
		if base == 0 {
			base = rate
		}
		speedup := rate / base
		row(g, total, elapsed.Round(time.Microsecond), fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.2fx", speedup))
		recs = append(recs, concRecord{
			Name:        fmt.Sprintf("ParallelRead%dG", g),
			Goroutines:  g,
			Gomaxprocs:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
			Statements:  total,
			TotalNs:     elapsed.Nanoseconds(),
			StmtsPerSec: rate,
			Speedup:     speedup,
		})
	}
	// Writer interference: a fixed reader pool's per-statement latency
	// distribution, quiet vs with a bulk updater looping in the
	// background. Snapshot reads pin a version and execute lock-free, so
	// the writer should move the reader percentiles barely at all; a
	// statement-scoped reader lock would park every reader for a full
	// bulk-update statement and blow up the p99.
	readers := 4
	if *par > 0 {
		readers = *par
	}
	fmt.Println()
	row("bulk writer", "reads", "writer stmts", "read p50", "read p99", "reads/sec")
	for _, withWriter := range []bool{false, true} {
		rec, err := b12Interference(db, q, readers, perG, withWriter)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		row(withWriter, rec.Statements, rec.WriterStmts,
			time.Duration(rec.ReadP50Ns).Round(time.Microsecond),
			time.Duration(rec.ReadP99Ns).Round(time.Microsecond),
			fmt.Sprintf("%.0f", rec.StmtsPerSec))
	}

	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_concurrency.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_concurrency.json")
	return nil
}

// b12Interference measures one cell of the writer-interference table:
// readers reader goroutines each run perG statements of q, recording
// every statement's wall time; when withWriter is set, one session
// loops a bulk salary update the whole while.
func b12Interference(db *extra.DB, q string, readers, perG int, withWriter bool) (concRecord, error) {
	stop := make(chan struct{})
	werrc := make(chan error, 1)
	writerStmts := 0
	var wwg sync.WaitGroup
	if withWriter {
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			w := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Exec(`replace E (salary = E.salary + 1) from E in Employees where E.dept.floor = 2`); err != nil {
					werrc <- err
					return
				}
				writerStmts++
			}
		}()
	}

	var mu sync.Mutex
	var lats []time.Duration
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			mine := make([]time.Duration, 0, perG)
			for j := 0; j < perG; j++ {
				t0 := time.Now()
				if _, err := sess.Query(q); err != nil {
					errc <- err
					return
				}
				mine = append(mine, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	wwg.Wait()
	select {
	case err := <-errc:
		return concRecord{}, err
	case err := <-werrc:
		return concRecord{}, err
	default:
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	name := "ReaderLatencyQuiet"
	if withWriter {
		name = "ReaderLatencyBulkWriter"
	}
	return concRecord{
		Name:        name,
		Goroutines:  readers,
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Statements:  len(lats),
		TotalNs:     elapsed.Nanoseconds(),
		StmtsPerSec: float64(len(lats)) / elapsed.Seconds(),
		BulkWriter:  withWriter,
		WriterStmts: writerStmts,
		ReadP50Ns:   lats[len(lats)/2].Nanoseconds(),
		ReadP99Ns:   lats[len(lats)*99/100].Nanoseconds(),
	}, nil
}

// compileRecord is one line of BENCH_compile.json: the machine-readable
// counterpart of the B13 table. CheckNs/PlanNs are the total semantic
// analysis and planning time accumulated across the measurement's
// statements — the compile-once contract is that both stay ~0 for
// repeated statements (plan cache) and prepared executions, and grow
// linearly only when every statement is textually distinct.
type compileRecord struct {
	Name    string  `json:"name"`
	NsOp    int64   `json:"ns_per_op"`
	Rows    int     `json:"rows"`
	CheckNs uint64  `json:"check_ns_total"`
	PlanNs  uint64  `json:"plan_ns_total"`
	Speedup float64 `json:"speedup_vs_interpreted,omitempty"`
}

// b13 measures the compile-once plane: (1) repeated identical retrieves
// amortize parse/check/plan to a cache hit, while textually unique
// statements pay the full front end every time; (2) a prepared
// statement pins its plan and skips even the cache probe; (3) the
// closure compiler against the interpreting walker on an
// expression-heavy filter (the compiler also folds constant
// subexpressions the walker re-evaluates per row). Writes
// BENCH_compile.json for CI trend tooling.
func b13() error {
	db, err := openW(workload.Params{Departments: 20, Employees: 5000, MaxSalary: 1000, Seed: 14}, 16384)
	if err != nil {
		return err
	}
	defer db.Close()
	row("benchmark", "median", "rows", "check total", "plan total")
	var recs []compileRecord
	rec := func(name string, d time.Duration, rows int, checkNs, planNs uint64, speedup float64) {
		row(name, d, rows, time.Duration(checkNs), time.Duration(planNs))
		recs = append(recs, compileRecord{Name: name, NsOp: d.Nanoseconds(), Rows: rows,
			CheckNs: checkNs, PlanNs: planNs, Speedup: speedup})
	}
	phases := func() (check, plan uint64) {
		s := db.MetricsSnapshot()
		return s.Histograms["phase.check"].SumNS, s.Histograms["phase.plan"].SumNS
	}

	// Repeated statement: after the warm-up miss, every run is a plan
	// cache hit — the front end contributes zero time.
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	if _, err := db.Query(q); err != nil {
		return err
	}
	c0, p0 := phases()
	d, rows, err := timeQuery(db, q)
	if err != nil {
		return err
	}
	c1, p1 := phases()
	rec("RepeatCachedPlan", d, rows, c1-c0, p1-p0, 0)

	// Textually unique statements: every run misses and pays check+plan.
	var durs []time.Duration
	c0, p0 = phases()
	for i := 0; i < *reps; i++ {
		start := time.Now()
		res, err := db.Query(fmt.Sprintf(
			`retrieve (E.name) from E in Employees where E.dept.floor = 2 and E.salary < %d`, 100000+i))
		if err != nil {
			return err
		}
		durs = append(durs, time.Since(start))
		rows = len(res.Rows)
	}
	c1, p1 = phases()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	rec("UniqueColdPlan", durs[len(durs)/2], rows, c1-c0, p1-p0, 0)

	// Prepared statement: the pinned plan skips even the cache probe.
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.dept.floor = $1`)
	if err != nil {
		return err
	}
	defer st.Close()
	if _, err := st.Exec(2); err != nil { // first execution checks and plans
		return err
	}
	durs = durs[:0]
	c0, p0 = phases()
	for i := 0; i < *reps; i++ {
		start := time.Now()
		res, err := st.Exec(2)
		if err != nil {
			return err
		}
		durs = append(durs, time.Since(start))
		rows = len(res.Rows)
	}
	c1, p1 = phases()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	rec("PreparedExec", durs[len(durs)/2], rows, c1-c0, p1-p0, 0)

	// Expression-heavy filter: closure-compiled vs interpreted walker.
	// The cross product evaluates the filter once per (E, D) pair while
	// the per-row decode work stays per extent row, so the expression
	// engine dominates the measurement (the same shape as the
	// BenchmarkExprFilter pair in bench_test.go).
	xq := `retrieve (n = count(E.name)) from E in Employees, D in Departments where
		(E.salary * D.floor + 7) % 97 + (E.salary * 3 + D.floor * 11) % 89 + (E.salary * 5 + 13) % 83
		+ (E.salary * 7 + D.floor * 17) % 79 + (E.salary * 11 + 19) % 73 + (E.salary * 13 + 23) % 71
		+ (E.salary * 17 + D.floor * 29) % 61 + (E.salary * 19 + 31) % 59 + (E.salary * 23 + 37) % 53
		+ (E.salary * 29 + D.floor * 41) % 47 + (E.salary * 31 + 43) % 43 + (E.salary * 37 + 47) % 41
		+ ((13 * 17 + 5) * 3 - 100) % 50 + (E.salary - 250) * (D.floor - 750) % 67
		+ (E.salary - 125) * (E.salary - 375) % 37 + (E.salary - 625) * (E.salary - 875) % 31 < 40`
	dc, rows, err := timeQuery(db, xq)
	if err != nil {
		return err
	}
	db.SetOptimizer(extra.OptimizerOptions{NoCompiledExprs: true})
	di, _, err := timeQuery(db, xq)
	if err != nil {
		return err
	}
	db.SetOptimizer(extra.OptimizerOptions{})
	speedup := float64(di) / float64(dc)
	rec("ExprFilterCompiled", dc, rows, 0, 0, speedup)
	rec("ExprFilterInterpreted", di, rows, 0, 0, 0)
	fmt.Printf("  compiled speedup over interpreted: %.2fx\n", speedup)

	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_compile.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_compile.json")
	return nil
}

// obsRecord is one line of BENCH_observability.json: median statement
// latency under one tracing configuration, with its overhead relative
// to the tracing-off baseline. This is the enforcement artifact for the
// overhead contract in DESIGN.md §9 (disabled tracing must stay within
// noise of the untraced engine).
type obsRecord struct {
	Name        string  `json:"name"`
	Every       int     `json:"sample_every"`
	NsOp        int64   `json:"ns_per_op"`
	Rows        int     `json:"rows"`
	OverheadPct float64 `json:"overhead_pct_vs_off"`
}

// b15 measures the cost of statement tracing on the Figure 5
// implicit-join workload at three sampling rates: off (every=0, the
// production default), 1-in-100 (always-affordable ops setting), and
// always-on (every=1, the debugging setting — every retrieve also pays
// the EXPLAIN ANALYZE runtime counters that feed its operator spans).
// Writes BENCH_observability.json; with -traceout, also dumps the
// always-on pass's retained traces as Chrome trace_event JSON.
func b15() error {
	db, err := openW(workload.Params{Departments: 20, Employees: 2000, Floors: 5, Seed: 15}, 8192)
	if err != nil {
		return err
	}
	defer db.Close()
	q := `retrieve (E.name) from E in Employees where E.dept.floor = 2`
	if _, err := db.Query(q); err != nil { // warm the pool and plan path
		return err
	}

	configs := []struct {
		name  string
		every int
	}{
		{"TraceOff", 0},
		{"TraceSampled100", 100},
		{"TraceAlways", 1},
	}
	row("config", "every", "median", "rows", "overhead")
	var recs []obsRecord
	var base time.Duration
	for _, c := range configs {
		db.SetTraceSampling(c.every)
		d, rows, err := timeQuery(db, q)
		if err != nil {
			return err
		}
		if base == 0 {
			base = d
		}
		overhead := (float64(d)/float64(base) - 1) * 100
		row(c.name, c.every, d, rows, fmt.Sprintf("%+.1f%%", overhead))
		recs = append(recs, obsRecord{
			Name: c.name, Every: c.every, NsOp: d.Nanoseconds(),
			Rows: rows, OverheadPct: overhead,
		})
	}
	db.SetTraceSampling(0)

	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_observability.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_observability.json")

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, db.Traces()...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("  wrote", *traceOut)
	}
	return nil
}

// duraRecord is one line of BENCH_durability.json: commit throughput for
// one (sync mode, sessions) cell of the group-commit matrix.
type duraRecord struct {
	Name       string  `json:"name"`
	SyncMode   string  `json:"sync_mode"`
	Sessions   int     `json:"sessions"`
	Gomaxprocs int     `json:"gomaxprocs"`
	Commits    int     `json:"commits"`
	TotalNs    int64   `json:"total_ns"`
	CommitsSec float64 `json:"commits_per_sec"`
	VsEach     float64 `json:"speedup_vs_each"`
	Fsyncs     uint64  `json:"fsyncs"`
	PerFsync   float64 `json:"commits_per_fsync"`
}

// b16 measures acknowledged-commit throughput under the three WAL sync
// modes at 1, 4 and 16 concurrent sessions, each session running
// single-row prepared appends. "each" fsyncs once per commit and is the
// classical lower bound; "group" batches every committer that arrived
// while the previous fsync was in flight into one write+fsync, so its
// advantage grows with concurrency; "none" (no wait) bounds what the
// lock path alone would allow. A no-WAL column isolates the logging
// overhead itself. Writes BENCH_durability.json for CI trend tooling.
func b16() error {
	perSession := *reps * 5
	levels := []int{1, 4, 16}
	if *par > 0 {
		levels = []int{*par}
	}
	modes := []string{"each", "group", "none", "off"}
	row("sessions", "mode", "commits", "elapsed", "commits/sec", "vs each", "batching")
	var recs []duraRecord
	for _, sessions := range levels {
		var eachRate float64
		for _, mode := range modes {
			dir, err := os.MkdirTemp("", "extra-b16-*")
			if err != nil {
				return err
			}
			opts := []extra.Option{extra.WithPoolSize(4096)}
			if mode != "off" {
				sm, err := extra.ParseWALSyncMode(mode)
				if err != nil {
					return err
				}
				opts = append(opts, extra.WithWAL(dir), extra.WithWALSync(sm))
			}
			db, err := extra.Open(opts...)
			if err != nil {
				return err
			}
			track(db)
			if _, err := db.Exec(`
				define type B16Row: ( name: varchar, v: int4 )
				create B16Rows : { own B16Row }
			`); err != nil {
				db.Close()
				return err
			}
			elapsed, err := b16Cell(db, sessions, perSession)
			fsyncs := db.WALFsyncs()
			db.Close()
			os.RemoveAll(dir)
			if err != nil {
				return err
			}
			commits := sessions * perSession
			rate := float64(commits) / elapsed.Seconds()
			if mode == "each" {
				eachRate = rate
			}
			vs := rate / eachRate
			perFsync := 0.0
			if fsyncs > 0 {
				perFsync = float64(commits) / float64(fsyncs)
			}
			row(sessions, mode, commits, elapsed.Round(time.Microsecond),
				fmt.Sprintf("%.0f", rate), fmt.Sprintf("%.2fx", vs),
				fmt.Sprintf("%.1f c/fsync", perFsync))
			recs = append(recs, duraRecord{
				Name:       fmt.Sprintf("Commit%s%dS", strings.ToUpper(mode[:1])+mode[1:], sessions),
				SyncMode:   mode,
				Sessions:   sessions,
				Gomaxprocs: runtime.GOMAXPROCS(0),
				Commits:    commits,
				TotalNs:    elapsed.Nanoseconds(),
				CommitsSec: rate,
				VsEach:     vs,
				Fsyncs:     fsyncs,
				PerFsync:   perFsync,
			})
		}
	}
	raw, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_durability.json", append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_durability.json")
	return nil
}

// b16Cell runs one cell: sessions goroutines, each committing perSession
// acknowledged single-row appends through its own prepared statement.
func b16Cell(db *extra.DB, sessions, perSession int) (time.Duration, error) {
	errc := make(chan error, sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			st, err := sess.Prepare(`append to B16Rows (name = $1, v = $2)`)
			if err != nil {
				errc <- err
				return
			}
			for i := 0; i < perSession; i++ {
				if _, err := st.Exec(fmt.Sprintf("g%d-%d", g, i), i); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return 0, err
	default:
	}
	return elapsed, nil
}
