package extra

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

// sweepRows is the number of steps each failing write of the failure
// sweep can fail at.
const sweepRows = 12

// sweepDB builds the database the failure sweep runs on. People holds
// p00..p11 at ages 0..11 in scan order, "top" at age 100 and "blk" at
// age 300, under a unique index on age; Src holds s00..s11 at ages
// 0..11. Step(n)'s body is 12 appends whose j-th adds age 300-n+j, so
// its n-th statement is the first to collide (with "blk"). Dups holds
// 13 rows; its attribute a<k> is the row's position, except at position
// k+1, which repeats row 0's. bob holds select on People.
func sweepDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`
		define type Person: ( name: varchar, age: int4 )
		create People : { own Person }
		create Src : { own Person }
		define unique index uage on People (age)
	`)
	attrs := make([]string, sweepRows)
	for k := range attrs {
		attrs[k] = fmt.Sprintf("a%d: int4", k)
	}
	db.MustExec(`define type Dup: ( ` + strings.Join(attrs, ", ") + ` )
		create Dups : { own Dup }`)
	for i := 0; i < sweepRows; i++ {
		db.MustExec(fmt.Sprintf(`append to People (name = "p%02d", age = %d)`, i, i))
		db.MustExec(fmt.Sprintf(`append to Src (name = "s%02d", age = %d)`, i, i))
	}
	db.MustExec(`append to People (name = "top", age = 100)
		append to People (name = "blk", age = 300)`)
	for j := 0; j <= sweepRows; j++ {
		vals := make([]string, sweepRows)
		for k := range vals {
			v := j
			if j == k+1 {
				v = 0
			}
			vals[k] = fmt.Sprintf("a%d = %d", k, v)
		}
		db.MustExec(`append to Dups (` + strings.Join(vals, ", ") + `)`)
	}
	body := make([]string, sweepRows)
	for j := range body {
		body[j] = fmt.Sprintf(`append to People (name = "e", age = 300 - n + %d)`, j)
	}
	db.MustExec(`define procedure Step (n: int4) as ` + strings.Join(body, "; "))
	if err := db.CreateUser("bob"); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`grant select on People to bob`)
	return db
}

// published is what a failed write must leave as it was.
type published struct {
	ver, catVer, lsn uint64
	dump             string
	grants           []string
}

func publishedOf(t *testing.T, db *DB) published {
	t.Helper()
	lsn, _ := db.WALStats()
	return published{
		ver:    db.store.Snapshot().Version(),
		catVer: db.Catalog().Version(),
		lsn:    lsn,
		dump:   dumpOf(t, db),
		grants: db.Grants("People"),
	}
}

// requireUnchanged fails the test unless err is a failure and db
// published and logged nothing.
func requireUnchanged(t *testing.T, db *DB, want published, what string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: succeeded, want a failure", what)
	}
	got := publishedOf(t, db)
	switch {
	case got.ver != want.ver:
		t.Fatalf("%s (%v): published a snapshot: version %d -> %d", what, err, want.ver, got.ver)
	case got.catVer != want.catVer:
		t.Fatalf("%s (%v): published a catalog: version %d -> %d", what, err, want.catVer, got.catVer)
	case got.lsn != want.lsn:
		t.Fatalf("%s (%v): logged: next LSN %d -> %d", what, err, want.lsn, got.lsn)
	case got.dump != want.dump:
		t.Fatalf("%s (%v): dump changed", what, err)
	case !slices.Equal(got.grants, want.grants):
		t.Fatalf("%s (%v): grants %v -> %v", what, err, want.grants, got.grants)
	}
	mustConsistent(t, db)
}

// TestFailureSweep makes each kind of write fail at each of its steps —
// a unique-key collision in the k-th row of a replace and of an append
// ... from, the k-th body statement of an execute, a unique index over
// a duplicate at scan position k, a failed Go-API insert and grant
// edits, and, under a WAL, an oversize record — and requires that each
// failure publishes and logs nothing: the published versions, the dump,
// the grants and the next LSN are as they were, and the store is
// consistent. A failed write leaves no trace for the writes after it
// either: the same successful tail gives this database and a twin that
// never failed byte-identical dumps, OIDs included, and under a WAL
// both recover to that dump.
func TestFailureSweep(t *testing.T) {
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", logged), func(t *testing.T) {
			var dirs [2]string
			open := func(i int) *DB {
				if !logged {
					return sweepDB(t)
				}
				dirs[i] = t.TempDir()
				return sweepDB(t, WithWAL(dirs[i]), WithWALSync(WALSyncNone))
			}
			db, twin := open(0), open(1)
			defer db.Close()
			defer twin.Close()
			want := publishedOf(t, db)
			for k := 0; k < sweepRows; k++ {
				for _, src := range []string{
					fmt.Sprintf(`replace P (age = P.age + %d) from P in People where P.age < 100`, 100-k),
					fmt.Sprintf(`append to People (name = S.name, age = S.age + %d) from S in Src`, 100-k),
					fmt.Sprintf(`execute Step (%d)`, k),
					fmt.Sprintf(`define unique index ux on Dups (a%d)`, k),
				} {
					_, err := db.Exec(src)
					requireUnchanged(t, db, want, src, err)
				}
			}
			_, err := db.Insert("People", Attrs{"name": "api", "age": 100})
			requireUnchanged(t, db, want, "Insert", err)
			requireUnchanged(t, db, want, "CreateUser", db.CreateUser("bob"))
			if err := db.CreateUser("carol"); err != nil {
				t.Fatal(err)
			}
			if err := twin.CreateUser("carol"); err != nil {
				t.Fatal(err)
			}
			want = publishedOf(t, db)
			_, err = db.Exec(`grant update on People to carol, nobody`)
			requireUnchanged(t, db, want, "grant", err)
			if logged {
				st, err := db.Prepare(`append to People (name = $1, age = 999)`)
				if err != nil {
					t.Fatal(err)
				}
				_, err = st.Exec(strings.Repeat("x", wal.MaxRecord+1))
				if !errors.Is(err, wal.ErrTooLarge) {
					t.Fatalf("oversize statement: err = %v, want wal.ErrTooLarge", err)
				}
				requireUnchanged(t, db, want, "oversize statement", err)
				st.Close()
			}

			const tail = `append to People (name = "tail", age = 500)
				execute Step (12)
				define index ut on Dups (a0)`
			db.MustExec(tail)
			twin.MustExec(tail)
			got, exp := dumpOf(t, db), dumpOf(t, twin)
			if got != exp {
				t.Fatalf("after the failures the tail differs from the twin's:\n%s", firstDumpDiff(exp, got))
			}
			if !logged {
				return
			}
			for i, d := range []*DB{db, twin} {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				re := reopenWAL(t, dirs[i])
				mustConsistent(t, re)
				if after := dumpOf(t, re); after != exp {
					t.Fatalf("db %d recovered a different dump:\n%s", i, firstDumpDiff(exp, after))
				}
				re.Close()
			}
		})
	}
}

// TestLoadFailureSweep fails a Load at each of its data lines in turn:
// each failure leaves the target fresh and logs nothing, and the good
// dump then loads to the dump a twin loads at once, recovered alike
// under a WAL.
func TestLoadFailureSweep(t *testing.T) {
	src := sweepDB(t)
	good := dumpOf(t, src)
	src.Close()
	lines := strings.Split(good, "\n")
	var data []int // the dump's data lines
	for i, l := range lines {
		if strings.HasPrefix(l, "OBJ ") || strings.HasPrefix(l, "ELEM ") || strings.HasPrefix(l, "VAR ") {
			data = append(data, i)
		}
	}
	if len(data) < sweepRows {
		t.Fatalf("the dump has %d data lines", len(data))
	}
	for _, logged := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", logged), func(t *testing.T) {
			var dirs [2]string
			open := func(i int) *DB {
				var opts []Option
				if logged {
					dirs[i] = t.TempDir()
					opts = []Option{WithWAL(dirs[i]), WithWALSync(WALSyncNone)}
				}
				db, err := Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db, twin := open(0), open(1)
			defer db.Close()
			defer twin.Close()
			want := publishedOf(t, db)
			for k := 0; k < sweepRows; k++ {
				bad := slices.Clone(lines)
				l := bad[data[k]]
				bad[data[k]] = l[:strings.LastIndex(l, " ")+1] + "ff" // a value tag the codec rejects
				err := db.Load(strings.NewReader(strings.Join(bad, "\n")))
				var le *LoadError
				if !errors.As(err, &le) || le.Line != data[k]+1 {
					t.Fatalf("Load failing at data line %d: err = %v, want a *LoadError at line %d", k, err, data[k]+1)
				}
				requireUnchanged(t, db, want, fmt.Sprintf("Load failing at data line %d", k), err)
			}
			for _, d := range []*DB{db, twin} {
				if err := d.Load(strings.NewReader(good)); err != nil {
					t.Fatal(err)
				}
			}
			if got := dumpOf(t, db); got != good || dumpOf(t, twin) != good {
				t.Fatalf("the good dump did not load as itself after the failures:\n%s", firstDumpDiff(good, got))
			}
			if !logged {
				return
			}
			for i, d := range []*DB{db, twin} {
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				re := reopenWAL(t, dirs[i])
				if after := dumpOf(t, re); after != good {
					t.Fatalf("db %d recovered a different dump:\n%s", i, firstDumpDiff(good, after))
				}
				re.Close()
			}
		})
	}
}

// firstDumpDiff quotes the first line at which two dumps differ.
func firstDumpDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(equal)"
}

// TestAbortNeverReusesCatalogVersion: an aborted window's catalog
// versions are never those of a later catalog. A procedure defines an
// index and a function, runs a retrieve that calls Twos — whose body is
// bound and planned under the window's catalog, probing the new index —
// and fails. A later DDL statement that edits the catalog as many times
// as the window did must not bring back the window's version: the
// retrieve must bind Twos' body again (plan.cache.misses moves) and
// return the reference evaluator's rows, not probe an index that does
// not exist.
func TestAbortNeverReusesCatalogVersion(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`
		define type Person: ( name: varchar, age: int4 )
		create People : { own Person }
		define unique index pname on People (name)
		define function Twos () returns { ref Person } as
		  retrieve (X) from X in People where X.age = 2
	`)
	for i := 0; i < sweepRows; i++ {
		db.MustExec(fmt.Sprintf(`append to People (name = "p%02d", age = %d)`, i, i%4))
	}
	const query = `retrieve (P.name, n = count(Twos())) from P in People where P.age = 2`
	db.MustQuery(query)
	db.MustExec(`define procedure DI () as define index page on People (age)`)
	db.MustExec(`define procedure DF () as define function G (a: int4) returns int4 as (a + 1)`)
	db.MustExec(`define procedure Win () as execute DI (); execute DF ();
		retrieve (P.name, n = count(Twos())) from P in People where P.age = 2;
		append to People (name = "p03", age = 9)`)
	catVer := db.Catalog().Version()
	if _, err := db.Exec(`execute Win ()`); err == nil {
		t.Fatal("the window's failing append succeeded")
	}
	if v := db.Catalog().Version(); v != catVer {
		t.Fatalf("the failed window published a catalog: version %d -> %d", catVer, v)
	}
	db.MustExec(`create Other : { own Person } key (name)`)
	misses := db.MetricsSnapshot().Counters["plan.cache.misses"]
	res, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	want, err := OracleRows(db, query)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffRows(query, CanonRows(res), want); err != nil {
		t.Fatal(err)
	}
	if got := db.MetricsSnapshot().Counters["plan.cache.misses"]; got == misses {
		t.Fatal("the retrieve after the DDL was served from the plan cache")
	}
	if _, err := db.Query(`retrieve (n = G(1))`); err == nil {
		t.Fatal("the aborted window's function G is callable")
	}
}

// TestReplayFailureFailsOpen: only writes that published are logged,
// so a logged record that fails to replay fails Open, naming the
// record's LSN and kind.
func TestReplayFailureFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncEach})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(&wal.Record{Kind: wal.RecordStmt, User: "dba", Src: `append to Nowhere (name = "x", age = 1)`})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(WithWAL(dir))
	if err == nil {
		db2.Close()
		t.Fatal("Open replayed a failing record")
	}
	if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("lsn %d", lsn)) || !strings.Contains(msg, "statement record") {
		t.Fatalf("Open's error %q names neither lsn %d nor the record kind", msg, lsn)
	}
}

// TestFailedExecuteDropsItsRangeDecl: a range declaration a failing
// procedure body made is dropped with the rest of the statement, so
// the session reads as a replay of the log, which holds no record of
// the failed execute, will.
func TestFailedExecuteDropsItsRangeDecl(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	db.MustExec(`define unique index pname on People (name)
		append to People (name = "ann", age = 1)`)
	db.MustExec(`define procedure Decl () as range of X is People; append to People (name = "ann", age = 2)`)
	if _, err := db.Exec(`execute Decl ()`); err == nil {
		t.Fatal("the procedure's duplicate append succeeded")
	}
	if _, err := db.Query(`retrieve (X.name)`); err == nil {
		t.Fatal("the failed execute's range declaration survived it")
	}
	db2 := reopenWAL(t, dir)
	defer db2.Close()
	if _, err := db2.Query(`retrieve (X.name)`); err == nil {
		t.Fatal("recovery declared the failed execute's range")
	}
}

// TestAbortUnderConcurrentReaders: aborts re-clone the index trees
// from the published snapshot that readers are probing, and put the
// working state back while they scan it; the readers must keep seeing
// the published rows, with no data race.
func TestAbortUnderConcurrentReaders(t *testing.T) {
	db := sweepDB(t)
	defer db.Close()
	const probe = `retrieve (P.name) from P in People where P.age = 5`
	want := CanonRows(db.MustQuery(probe))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query(probe)
				if err != nil {
					t.Error(err)
					return
				}
				if got := CanonRows(res); !slices.Equal(got, want) {
					t.Errorf("a reader saw %v, want %v", got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(fmt.Sprintf(`replace P (age = P.age + %d) from P in People where P.age < 100`, 100-i%sweepRows)); err == nil {
			t.Error("a colliding replace succeeded")
			break
		}
	}
	close(stop)
	wg.Wait()
}
