package extra

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/oid"
	"repro/internal/value"
)

// The concurrency tests exercise snapshot reads, the commit lock and
// the per-statement executor state: many sessions running the paper's
// figure queries at once must behave exactly like one session running
// them in order, and a writer mixed in must never expose a torn tuple
// or lose an update. Run with -race; the CI stress job does.

// figureQueries is a read-only slice of the Figure 1-7 retrievals (see
// figures_test.go for the serial versions with expected answers). Every
// query here is classified read-only by sema.ReadOnly, so under the
// differential test all eight goroutines read snapshots at once.
var figureQueries = []string{
	// Figure 1: ADT attribute retrieval.
	`retrieve (t = Today)`,
	`retrieve (m = month(Today))`,
	// Figure 5: implicit join through a reference path.
	`retrieve (E.name) from E in Employees where E.dept.floor = 2`,
	// Figure 5: nested set with a path-correlated implicit variable.
	`retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2`,
	// Figure 5: explicit join between two extents.
	`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 80 and D.floor = E.dept.floor`,
	// Figure 5: identity join on references.
	`retrieve (A.name, B.name) from A in Employees, B in Employees where A.dept is B.dept and A.name != B.name`,
	// Figure 6: aggregates — whole-extent, grouped, over-dedup, per-binding.
	`retrieve (s = sum(Employees.salary))`,
	`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
	`retrieve (n = count(E.dept.dname over E.dept.dname)) from E in Employees`,
	`retrieve (E.name, n = count(E.kids)) from E in Employees where count(E.kids) >= 1`,
	// Figure 6: universal quantification (needs the per-session EV range).
	`retrieve (D.dname) from D in Departments where EV.dept isnot D or EV.salary > 60`,
	// Figure 7: ADT member functions in all three invocation syntaxes.
	`retrieve (s = P.val1 + P.val2) from P in Pairs`,
	`retrieve (s = Add(P.val1, P.val2)) from P in Pairs`,
	`retrieve (m = Magnitude(P.val1 * P.val2)) from P in Pairs`,
}

// loadFigureDB loads the company schema plus the Figure 1 Date variable
// and the Figure 7 Complex pairs so every query in figureQueries has
// data behind it.
func loadFigureDB(t *testing.T) *DB {
	t.Helper()
	db := mustOpen(t)
	loadCompany(t, db)
	db.MustExec(`create Today : Date`)
	db.MustExec(`set Today = date("12/07/1987")`)
	db.MustExec(`
		define type CnumPair: ( val1: Complex, val2: Complex )
		create Pairs : { own CnumPair }
	`)
	db.MustExec(`append to Pairs (val1 = complex(1.0, 2.0), val2 = complex(3.0, -1.0))`)
	return db
}

// TestConcurrentFigureQueriesMatchSerial runs every figure query from 8
// goroutines, each with its own session, and requires every result to
// be byte-identical to the serial answer. This is the differential
// check for the shared read path: the per-statement State split means
// no goroutine can observe another's snapshot, parameters or stats.
func TestConcurrentFigureQueriesMatchSerial(t *testing.T) {
	db := loadFigureDB(t)

	// Serial reference answers, one session, queries in order.
	ref := db.NewSession()
	ref.MustExec(`range of EV is all Employees`)
	want := make([]string, len(figureQueries))
	for i, q := range figureQueries {
		want[i] = ref.MustQuery(q).String()
	}

	const goroutines = 8
	const rounds = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			if _, err := sess.Exec(`range of EV is all Employees`); err != nil {
				t.Errorf("goroutine %d: range decl: %v", g, err)
				return
			}
			for r := 0; r < rounds; r++ {
				// Stagger the starting query so goroutines collide on
				// different statements each round.
				for i := range figureQueries {
					q := figureQueries[(i+g)%len(figureQueries)]
					res, err := sess.Query(q)
					if err != nil {
						t.Errorf("goroutine %d: %s: %v", g, q, err)
						return
					}
					if got := res.String(); got != want[(i+g)%len(figureQueries)] {
						t.Errorf("goroutine %d round %d: %s:\ngot  %q\nwant %q",
							g, r, q, got, want[(i+g)%len(figureQueries)])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentReadersWithWriter mixes one writing session with
// several reading sessions. The writer appends employees whose age
// always equals their salary; a read that ever sees the two fields
// disagree has observed a torn tuple. Readers also track the employee
// count, which must be non-decreasing (appends only) — a decrease
// would mean a statement ran against a half-applied write. Finally the
// total count must equal initial + writes: a lost append (or a commit
// that failed to publish one) would show up as a shortfall.
func TestConcurrentReadersWithWriter(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	const initial = 4 // loadCompany's employees
	const writes = 60
	const readers = 6

	var wg sync.WaitGroup
	wdone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(wdone)
		w := db.NewSession()
		for i := 0; i < writes; i++ {
			v := 1000 + i
			src := fmt.Sprintf(
				`append to Employees (name = "W%d", age = %d, salary = %d)`, i, v, v)
			if _, err := w.Exec(src); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			lastW, lastN := 0, 0
			finishing := false
			for {
				res, err := sess.Query(
					`retrieve (E.name, E.age, E.salary) from E in Employees where E.age >= 1000`)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				for _, row := range res.Rows {
					if row[1].String() != row[2].String() {
						t.Errorf("reader %d: torn tuple %v: age %s != salary %s",
							g, row[0], row[1], row[2])
						return
					}
				}
				if len(res.Rows) < lastW {
					t.Errorf("reader %d: writer rows went backwards: %d -> %d", g, lastW, len(res.Rows))
					return
				}
				lastW = len(res.Rows)
				cnt, err := sess.Query(`retrieve (n = count(Employees))`)
				if err != nil {
					t.Errorf("reader %d: count: %v", g, err)
					return
				}
				n := 0
				fmt.Sscanf(cnt.Rows[0][0].String(), "%d", &n)
				if n < lastN {
					t.Errorf("reader %d: employee count went backwards: %d -> %d", g, lastN, n)
					return
				}
				lastN = n
				if finishing {
					return
				}
				// One more full read after the writer finishes, so every
				// reader observes the final state at least once.
				select {
				case <-wdone:
					finishing = true
				default:
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	res := db.MustQuery(`retrieve (n = count(Employees))`)
	if got := res.Rows[0][0].String(); got != itoa(initial+writes) {
		t.Fatalf("lost update: final count %s, want %d", got, initial+writes)
	}
}

// TestMetricsSnapshotConsistentMidStatement samples MetricsSnapshot and
// PoolStats continuously while sessions execute: every counter must be
// monotonic between snapshots (single-pass atomic reads can lag but
// never tear or decrease), and pool.hits+pool.misses in a snapshot must
// never exceed what a direct PoolStats taken afterwards reports.
func TestMetricsSnapshotConsistentMidStatement(t *testing.T) {
	db := loadFigureDB(t)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			for {
				select {
				case <-done:
					return
				default:
				}
				q := figureQueries[2+(g%4)] // plain retrieves, no ranges needed
				if _, err := sess.Query(q); err != nil {
					t.Errorf("sampler workload: %v", err)
					return
				}
			}
		}(g)
	}

	prev := db.MetricsSnapshot()
	for i := 0; i < 200; i++ {
		s := db.MetricsSnapshot()
		for name, v := range prev.Counters {
			if cur, ok := s.Counters[name]; ok && cur < v {
				t.Fatalf("counter %s went backwards: %d -> %d", name, v, cur)
			}
		}
		ps := db.PoolStats()
		if s.Counters["pool.hits"] > ps.Hits || s.Counters["pool.misses"] > ps.Misses {
			t.Fatalf("snapshot pool counters lead the pool: snapshot (%d,%d) vs direct (%d,%d)",
				s.Counters["pool.hits"], s.Counters["pool.misses"], ps.Hits, ps.Misses)
		}
		prev = s
	}
	close(done)
	wg.Wait()
}

// TestSlowQuerySessionAttribution checks that the slow-query ring tags
// entries with the id of the session that ran them.
func TestSlowQuerySessionAttribution(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	db.SetSlowQueryThreshold(1) // 1ns: log everything

	a, b := db.NewSession(), db.NewSession()
	a.MustQuery(`retrieve (E.name) from E in Employees`)
	b.MustQuery(`retrieve (D.dname) from D in Departments`)

	seen := map[int64]bool{}
	for _, e := range db.SlowQueries() {
		seen[e.Session] = true
	}
	if !seen[a.ID()] || !seen[b.ID()] {
		t.Fatalf("slow log missing session ids %d/%d: %+v", a.ID(), b.ID(), db.SlowQueries())
	}
}

// The MVCC tests below pin down the snapshot contract introduced by the
// copy-on-write versioned store: a pinned snapshot is immutable, the
// published version only moves forward, a reader never waits behind the
// commit lock, and every mutation statement becomes visible atomically.

// empNames collects the Employees names visible in a snapshot.
func empNames(t *testing.T, sn interface {
	ScanExtent(string, func(oid.OID, *value.Tuple) error) error
}) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := sn.ScanExtent("Employees", func(_ oid.OID, tv *value.Tuple) error {
		names[strings.Trim(tv.Get("name").String(), `"`)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestConcurrentSnapshotPinnedReaderIsolation is the version-pinning
// half of the snapshot contract: a reader pinned to version N must
// never see version N+1's writes, no matter how many commits publish
// while it holds the snapshot.
func TestConcurrentSnapshotPinnedReaderIsolation(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)

	pinned := db.store.Snapshot()
	v0 := pinned.Version()
	n0, err := pinned.ExtentLen("Employees")
	if err != nil {
		t.Fatal(err)
	}

	// Publish two newer versions: an append and a bulk replace.
	db.MustExec(`append to Employees (name = "Pinned", age = 1, salary = 1)`)
	db.MustExec(`replace E (salary = E.salary + 5) from E in Employees where E.name = "Ann"`)

	live := db.store.Snapshot()
	if live.Version() <= v0 {
		t.Fatalf("commit did not advance the published version: %d -> %d", v0, live.Version())
	}
	if pinned.Version() != v0 {
		t.Fatalf("pinned snapshot's version changed: %d -> %d", v0, pinned.Version())
	}
	if n, _ := pinned.ExtentLen("Employees"); n != n0 {
		t.Fatalf("pinned snapshot grew: %d -> %d employees", n0, n)
	}
	if empNames(t, pinned)["Pinned"] {
		t.Fatal("pinned snapshot at version N sees version N+1's append")
	}
	if !empNames(t, live)["Pinned"] {
		t.Fatal("live snapshot missing the committed append")
	}
	// The engine's read path serves the live version.
	res := db.MustQuery(`retrieve (E.name) from E in Employees where E.name = "Pinned"`)
	if len(res.Rows) != 1 {
		t.Fatalf("query on the live snapshot returned %d rows, want 1", len(res.Rows))
	}
}

// TestConcurrentSnapshotVersionMonotonic samples the published snapshot
// while a writer commits: versions must never decrease, the employee
// count must never shrink (appends only), and re-reading a snapshot
// must be repeatable — the immutability half of the contract.
func TestConcurrentSnapshotVersionMonotonic(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		w := db.NewSession()
		for i := 0; i < 60; i++ {
			if _, err := w.Exec(fmt.Sprintf(
				`append to Employees (name = "M%d", age = 20, salary = 30)`, i)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var lastV uint64
			lastN := 0
			for {
				sn := db.store.Snapshot()
				if sn.Version() < lastV {
					t.Errorf("sampler %d: version went backwards: %d -> %d", g, lastV, sn.Version())
					return
				}
				lastV = sn.Version()
				n1, err := sn.ExtentLen("Employees")
				if err != nil {
					t.Errorf("sampler %d: %v", g, err)
					return
				}
				n2, _ := sn.ExtentLen("Employees")
				if n1 != n2 {
					t.Errorf("sampler %d: snapshot not repeatable: %d then %d", g, n1, n2)
					return
				}
				if n1 < lastN {
					t.Errorf("sampler %d: extent shrank under appends: %d -> %d", g, lastN, n1)
					return
				}
				lastN = n1
				select {
				case <-done:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentReaderUnblockedByCommitLock is the issue's oracle: a
// read statement must complete while a write batch is mid-flight. The
// test holds the commit lock itself — the exact state a bulk update is
// in between its first mutation and its commit — and requires a
// concurrent Query to finish anyway. Under the old design the reader
// parked on the statement RWMutex until the writer finished.
func TestConcurrentReaderUnblockedByCommitLock(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)

	db.wmu.Lock() // a write batch is mid-flight and stays mid-flight
	res := make(chan error, 1)
	go func() {
		_, err := db.Query(`retrieve (E.name) from E in Employees where E.dept.floor = 2`)
		res <- err
	}()
	select {
	case err := <-res:
		if err != nil {
			t.Errorf("reader failed under commit lock: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Error("reader blocked behind the commit lock: snapshot reads are not lock-free")
	}
	db.wmu.Unlock()
}

// TestConcurrentBulkReplaceAtomicVisibility: a bulk replace rewrites
// every employee's salary to the same generation value; a reader that
// ever sees two distinct salaries has observed a half-applied batch.
// The generation sum must also be non-decreasing — a reader served by a
// snapshot older than one it already saw would violate monotonicity.
func TestConcurrentBulkReplaceAtomicVisibility(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	const emps = 4 // loadCompany's employees
	db.MustExec(`replace E (salary = 1000) from E in Employees`)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		w := db.NewSession()
		for g := 1; g <= 40; g++ {
			if _, err := w.Exec(fmt.Sprintf(
				`replace E (salary = %d) from E in Employees`, 1000+g)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			lastSum := 0
			for {
				res, err := sess.Query(
					`retrieve (d = count(E.salary over E.salary), s = sum(E.salary)) from E in Employees`)
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if got := res.Rows[0][0].String(); got != "1" {
					t.Errorf("reader %d: saw %s distinct salaries mid-replace: torn batch", g, got)
					return
				}
				sum := 0
				fmt.Sscanf(res.Rows[0][1].String(), "%d", &sum)
				if sum%emps != 0 {
					t.Errorf("reader %d: salary sum %d not a whole generation", g, sum)
					return
				}
				if sum < lastSum {
					t.Errorf("reader %d: generation went backwards: %d -> %d", g, lastSum, sum)
					return
				}
				lastSum = sum
				select {
				case <-done:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentDumpDuringWrites: Dump pins one snapshot and streams
// from it, so a dump taken mid-workload must load back as a consistent
// point in time — every invariant the writer maintains holds, and the
// writer's appends appear as a strict prefix (nothing torn, nothing
// skipped). The loaded copy must also pass its own consistency check.
func TestConcurrentDumpDuringWrites(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	const writes = 40

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		w := db.NewSession()
		for i := 0; i < writes; i++ {
			v := 1000 + i
			if _, err := w.Exec(fmt.Sprintf(
				`append to Employees (name = "W%d", age = %d, salary = %d)`, i, v, v)); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	var dumps []*bytes.Buffer
	for {
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatalf("dump during writes: %v", err)
		}
		dumps = append(dumps, &buf)
		select {
		case <-done:
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}
	wg.Wait()
	// One more after the writer is done, so the final state is covered.
	var final bytes.Buffer
	if err := db.Dump(&final); err != nil {
		t.Fatal(err)
	}
	dumps = append(dumps, &final)

	sawPartial := false
	for di, buf := range dumps {
		nb := mustOpen(t)
		if err := nb.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("dump %d does not load: %v", di, err)
		}
		if probs := nb.CheckConsistency(); len(probs) != 0 {
			t.Fatalf("dump %d inconsistent after load: %v", di, probs)
		}
		res := nb.MustQuery(`retrieve (E.name, E.age, E.salary) from E in Employees where E.age >= 1000`)
		n := len(res.Rows)
		if n > 0 && n < writes {
			sawPartial = true
		}
		seen := map[string]bool{}
		for _, row := range res.Rows {
			if row[1].String() != row[2].String() {
				t.Fatalf("dump %d: torn tuple %v: age %s != salary %s", di, row[0], row[1], row[2])
			}
			seen[strings.Trim(row[0].String(), `"`)] = true
		}
		// A consistent point in time holds exactly the first n appends.
		for i := 0; i < n; i++ {
			if !seen[fmt.Sprintf("W%d", i)] {
				t.Fatalf("dump %d: %d writer rows but W%d missing: not a prefix", di, n, i)
			}
		}
	}
	if n := len(dumps); n < 2 {
		t.Fatalf("only %d dumps taken", n)
	}
	_ = sawPartial // mid-flight dumps are timing-dependent; the final dump always checks writes
}

// TestConcurrentDDLWithPreparedExec: prepared statements revalidate
// against the version of the catalog their snapshot carries. DDL
// churning the catalog from one session while another hammers a
// prepared Exec must never produce an error or a stale answer.
func TestConcurrentDDLWithPreparedExec(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	st, err := db.Prepare(`retrieve (E.name) from E in Employees where E.salary > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := st.MustExec(80).String()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		ddl := db.NewSession()
		for i := 0; i < 12; i++ {
			if _, err := ddl.Exec(fmt.Sprintf(`define index ddl_ix%d on Employees (salary)`, i)); err != nil {
				t.Errorf("ddl: %v", err)
				return
			}
			if _, err := ddl.Exec(fmt.Sprintf("create DDLTmp%d : int4", i)); err != nil {
				t.Errorf("ddl create: %v", err)
				return
			}
			if _, err := ddl.Exec(fmt.Sprintf("drop DDLTmp%d", i)); err != nil {
				t.Errorf("ddl drop: %v", err)
				return
			}
		}
	}()

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				res, err := st.Exec(80)
				if err != nil {
					t.Errorf("prepared exec %d: %v", g, err)
					return
				}
				if got := res.String(); got != want {
					t.Errorf("prepared exec %d: answer changed under DDL:\ngot  %q\nwant %q", g, got, want)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSessionsShareOneProgram runs two sessions over the same
// cached statements at the same time — joins, an unnest, a grouped
// aggregate, a universal quantifier and a function call, ad hoc and
// prepared — so both execute one shared, immutable compiled program at
// once (run it under -race). Each must see the serial answers, and the
// statements compile once between them: per-run state lives in the run,
// never in the program.
func TestConcurrentSessionsShareOneProgram(t *testing.T) {
	db := loadFigureDB(t)
	db.MustExec(`
		define function SameFloor (E: Employee) returns { ref Employee } as
		  retrieve (X) from X in Employees where X.dept.floor = E.dept.floor
	`)
	queries := []string{
		`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.dept is D and E.salary > 50`,
		`retrieve (E.name, D.dname) from E in Employees, D in Departments where E.salary > 50 and D.floor = E.dept.floor`,
		`retrieve (E.name, K.name) from E in Employees, K in E.kids where K.age < 10`,
		`retrieve (f = E.dept.floor, a = avg(E.salary by E.dept.floor)) from E in Employees`,
		`retrieve (D.dname) from D in Departments where EV.dept isnot D or EV.salary > 60`,
		`retrieve (E.name, n = count(SameFloor(E))) from E in Employees`,
	}
	const prepared = `retrieve (E.name, E.dept.dname) from E in Employees where E.salary > $1`
	sessions := []*Session{db.NewSession(), db.NewSession()}
	stmts := make([]*Stmt, len(sessions))
	var want []string
	for i, s := range sessions {
		s.MustExec(`range of EV is all Employees`)
		st, err := s.Prepare(prepared)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		stmts[i] = st
		if i == 0 {
			for _, q := range queries {
				want = append(want, s.MustQuery(q).String())
			}
			want = append(want, st.MustExec(60).String())
		}
	}
	compiled := db.MetricsSnapshot().Counters["expr.compile.count"]

	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *Session) {
			defer wg.Done()
			for r := 0; r < 25; r++ {
				for qi, q := range queries {
					res, err := s.Query(q)
					if err != nil {
						t.Errorf("session %d: %s: %v", i, q, err)
						return
					}
					if got := res.String(); got != want[qi] {
						t.Errorf("session %d round %d: %s:\ngot  %q\nwant %q", i, r, q, got, want[qi])
						return
					}
				}
				res, err := stmts[i].Exec(60)
				if err != nil {
					t.Errorf("session %d: prepared: %v", i, err)
					return
				}
				if got := res.String(); got != want[len(queries)] {
					t.Errorf("session %d round %d: prepared:\ngot  %q\nwant %q", i, r, got, want[len(queries)])
					return
				}
			}
		}(i, s)
	}
	wg.Wait()
	s := db.MetricsSnapshot()
	if got := s.Counters["expr.compile.count"]; got != compiled {
		t.Errorf("expr.compile.count moved from %d to %d while the sessions ran cached statements", compiled, got)
	}
	if got := s.Counters["plan.cache.misses"]; got != uint64(len(queries)+1) {
		t.Errorf("plan.cache.misses = %d, want %d: the sessions did not share the cached programs", got, len(queries)+1)
	}
}

// TestProcedureBodyReadsItsOwnWrites: a write statement reads the
// store's frozen view, and a procedure call freezes a fresh one before
// each body statement. So each run of a body sees what the runs before
// it wrote (Bonus runs once per second-floor department, and Ann gains
// twice), and a body statement sees what the statements before it wrote
// (Hire's replace finds the employee its append created). Readers see
// one publication per call: a reader that pins its snapshot while the
// call is stopped between its two body statements sees the state before
// the call, and one that pins after sees the state after it.
func TestProcedureBodyReadsItsOwnWrites(t *testing.T) {
	db := mustOpen(t)
	loadCompany(t, db)
	entered, release := defineHold(t, db)
	db.MustExec(`
		define procedure Bonus (who: varchar, amount: int4) as
		  replace E (salary = E.salary + amount) from E in Employees where E.name = who
		define procedure Hire (who: varchar, pay: int4) as
		  append to Employees (name = who, age = 20, salary = 0);
		  replace E (salary = pay) from E in Employees where E.name = who and hold(E.age) > 0
	`)
	db.MustExec(`execute Bonus ("Ann", 10) from D in Departments where D.floor = 2`)
	if res := db.MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Ann"`); res.Rows[0][0].String() != "110" {
		t.Fatalf("Ann's salary after two runs of Bonus: %v, want 110", res.Rows[0][0])
	}

	zed := func() string {
		res := db.NewSession().MustQuery(`retrieve (E.salary) from E in Employees where E.name = "Zed"`)
		var out []string
		for _, row := range res.Rows {
			out = append(out, row[0].String())
		}
		return strings.Join(out, ",")
	}
	done := make(chan error, 1)
	go func() {
		_, err := db.NewSession().Exec(`execute Hire ("Zed", 77)`)
		done <- err
	}()
	<-entered // Hire's append has run; its replace is mid-scan
	if got := zed(); got != "" {
		t.Errorf("a reader pinned during the call sees Zed with salary %s, want no Zed", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := zed(); got != "77" {
		t.Errorf("after the call Zed's salary reads %q, want 77", got)
	}
}
