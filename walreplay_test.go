package extra

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// replaySchema is a schema with every kind of data a commit logs:
// object extents with own-ref components and references, a ref set, a
// value set and a singleton that owns a component.
var replaySchema = []string{
	`define type Dept: ( dname: varchar )`,
	`define type Kid: ( kname: varchar )`,
	`define type Emp: ( name: varchar, age: int4, dept: ref Dept, kids: { own ref Kid } )`,
	`create Depts : { own Dept }`,
	`create Emps : { own Emp }`,
	`create Stars : { ref Emp }`,
	`create Ages : { int4 }`,
	`create Pet : own ref Kid`,
	`define procedure Hire (n: varchar, a: int4) as append to Emps (name = n, age = a); append to Ages (a)`,
}

// TestWALReplayRunsNoWrite: a log of 10 000 mixed writes — ad-hoc,
// prepared and procedure appends, replaces, deletes, element-set and
// singleton writes, Go-API inserts and reference writes — recovers to
// the same dump, byte for byte, without running a DML statement: only
// the schema's texts are parsed again.
func TestWALReplayRunsNoWrite(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncNone))
	if err != nil {
		t.Fatal(err)
	}
	for _, ddl := range replaySchema {
		db.MustExec(ddl)
	}
	var depts []Obj
	for i := 0; i < 4; i++ {
		d, err := db.Insert("Depts", Attrs{"dname": fmt.Sprintf("d%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		depts = append(depts, d)
	}
	app, err := db.Prepare(`append to Emps (name = $1, age = $2)`)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var emps []Obj
	n := 0
	name := func() string { return fmt.Sprintf("e%05d", rng.Intn(n+1)) }
	for w := 0; w < 10000; w++ {
		var err error
		switch w % 10 {
		case 0, 1:
			_, err = app.Exec(fmt.Sprintf("e%05d", n), rng.Intn(60))
			n++
		case 2:
			_, err = db.Exec(fmt.Sprintf(`append to Emps (name = "e%05d", age = %d)`, n, rng.Intn(60)))
			n++
		case 3:
			_, err = db.Exec(fmt.Sprintf(`replace E (age = E.age + 1) from E in Emps where E.name = "%s"`, name()))
		case 4:
			_, err = db.Exec(fmt.Sprintf(`delete E from E in Emps where E.name = "%s"`, name()))
		case 5:
			_, err = db.Exec(fmt.Sprintf(`execute Hire ("e%05d", %d)`, n, rng.Intn(60)))
			n++
		case 6:
			var e Obj
			e, err = db.Insert("Emps", Attrs{"name": fmt.Sprintf("e%05d", n), "age": rng.Intn(60), "dept": depts[rng.Intn(len(depts))]})
			emps = append(emps, e)
			n++
		case 7:
			if e := emps[rng.Intn(len(emps))]; db.store.Exists(e.id) {
				err = db.SetRef(e, "dept", depts[rng.Intn(len(depts))])
			}
		case 8:
			src := []string{
				`append to E.kids (kname = "k") from E in Emps where E.name = "%s"`,
				`append to Stars (E) from E in Emps where E.name = "%s"`,
				`delete S from S in Stars where S.name = "%s"`,
			}[rng.Intn(3)]
			_, err = db.Exec(fmt.Sprintf(src, name()))
		default:
			src := []string{
				fmt.Sprintf(`delete A from A in Ages where A = %d`, rng.Intn(60)),
				fmt.Sprintf(`append to Ages (%d)`, rng.Intn(60)),
				fmt.Sprintf(`set Pet = Kid(kname = "pet%d")`, w),
			}[rng.Intn(3)]
			_, err = db.Exec(src)
		}
		if err != nil {
			t.Fatalf("write %d: %v", w, err)
		}
	}
	mustConsistent(t, db)
	want, lastOID := dumpOf(t, db), db.store.Snapshot().LastOID()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	m := db2.MetricsSnapshot()
	if got := m.Counters["parse.full"]; got != uint64(len(replaySchema)) {
		t.Errorf("recovery parsed %d texts, want the schema's %d", got, len(replaySchema))
	}
	for _, kind := range []string{"append", "replace", "delete", "set", "execute", "retrieve"} {
		if got := m.Counters["stmt."+kind]; got != 0 {
			t.Errorf("recovery ran %d %s statements", got, kind)
		}
	}
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\n%s", firstDumpDiff(want, got))
	}
	if got := db2.store.Snapshot().LastOID(); got != lastOID {
		t.Fatalf("recovery's last OID is %d, want %d", got, lastOID)
	}
	// The recovered database allocates the OIDs the original would have.
	db2.MustExec(`append to Emps (name = "after", age = 1)`)
	db3 := reopenWAL(t, dir)
	defer db3.Close()
	if got, want := dumpOf(t, db3), dumpOf(t, db2); got != want {
		t.Fatalf("dump after a post-recovery write differs:\n%s", firstDumpDiff(want, got))
	}
}

// segmentPath returns the log's last segment file.
func segmentPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segment in %s: %v", dir, err)
	}
	return segs[len(segs)-1]
}

// cutAfterFirstFrame truncates the segment to its first off bytes plus
// the one frame that starts there, and returns how many frames followed
// that one.
func cutAfterFirstFrame(t *testing.T, path string, off int) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	end := off + 8 + int(binary.BigEndian.Uint32(raw[off:]))
	rest := 0
	for p := end; p < len(raw); p += 8 + int(binary.BigEndian.Uint32(raw[p:])) {
		rest++
	}
	if err := os.Truncate(path, int64(end)); err != nil {
		t.Fatal(err)
	}
	return rest
}

// TestWALTornGroupRecoversNothing: a write logged as several records is
// recovered whole or not at all. The log is cut after the first record
// of a multi-record Load, and after the first record of a multi-record
// commit; each reopens without any part of that write, and appends
// after it.
func TestWALTornGroupRecoversNothing(t *testing.T) {
	old := loadChunkBytes
	loadChunkBytes = 256
	defer func() { loadChunkBytes = old }()

	src, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	src.MustExec(walTestSchema)
	for i := 0; i < 30; i++ {
		src.MustExec(fmt.Sprintf(`append to People (name = "p%02d", age = %d)`, i, i))
	}
	dump := dumpOf(t, src)
	src.Close()

	t.Run("load", func(t *testing.T) {
		dir := t.TempDir()
		db := reopenWAL(t, dir)
		if err := db.Load(strings.NewReader(dump)); err != nil {
			t.Fatal(err)
		}
		db.Close()
		if rest := cutAfterFirstFrame(t, segmentPath(t, dir), 0); rest < 2 {
			t.Fatalf("the load logged %d records after its first", rest)
		}
		db2 := reopenWAL(t, dir)
		if len(db2.Catalog().VarNames()) != 0 {
			t.Fatal("recovery applied part of a torn load")
		}
		if next, _ := db2.WALStats(); next != 1 {
			t.Fatalf("the torn load's records stayed in the log: next LSN %d", next)
		}
		if err := db2.Load(strings.NewReader(dump)); err != nil {
			t.Fatal(err)
		}
		db2.Close()
		db3 := reopenWAL(t, dir)
		defer db3.Close()
		if got := dumpOf(t, db3); got != dump {
			t.Fatalf("the load after the torn one recovered differently:\n%s", firstDumpDiff(dump, got))
		}
	})

	t.Run("commit", func(t *testing.T) {
		dir := t.TempDir()
		db := reopenWAL(t, dir)
		if err := db.Load(strings.NewReader(dump)); err != nil {
			t.Fatal(err)
		}
		before := dumpOf(t, db)
		seg := segmentPath(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		db.MustExec(`replace P (age = P.age + 100) from P in People`)
		db.Close()
		if rest := cutAfterFirstFrame(t, seg, int(fi.Size())); rest < 2 {
			t.Fatalf("the replace logged %d records after its first", rest)
		}
		db2 := reopenWAL(t, dir)
		defer db2.Close()
		if got := dumpOf(t, db2); got != before {
			t.Fatalf("recovery applied part of a torn commit:\n%s", firstDumpDiff(before, got))
		}
		db2.MustExec(`append to People (name = "after", age = 1)`)
		want := dumpOf(t, db2)
		db3 := reopenWAL(t, dir)
		defer db3.Close()
		if got := dumpOf(t, db3); got != want {
			t.Fatalf("the write after the torn commit recovered differently:\n%s", firstDumpDiff(want, got))
		}
	})
}

// TestWALProcedureSchemaRecovers: a commit that runs schema statements
// between its data writes — a procedure body that appends to an extent
// and drops it, one that drops, re-creates and appends to it, one that
// materializes a retrieve into — recovers byte for byte, from the log
// alone and through a checkpoint.
func TestWALProcedureSchemaRecovers(t *testing.T) {
	dir := t.TempDir()
	db := reopenWAL(t, dir)
	db.MustExec(walTestSchema)
	db.MustExec(`create Tmp : { own Person }`)
	db.MustExec(`append to Tmp (name = "t0", age = 1)`)
	// A body continues with DML and execute only: the schema statements
	// run in procedures of their own.
	db.MustExec(`define procedure Dropper () as drop Tmp`)
	db.MustExec(`define procedure Maker () as create Tmp : { own Person }`)
	db.MustExec(`define procedure AppDrop () as append to Tmp (name = "t1", age = 2); append to People (name = "kept", age = 3); execute Dropper ()`)
	db.MustExec(`define procedure DropMake () as execute Dropper (); execute Maker (); append to Tmp (name = "t2", age = 4); append to People (name = "p2", age = 5)`)
	db.MustExec(`define procedure Mat (a: int4) as append to People (name = "p3", age = a); retrieve into Olds (P.name) from P in People where P.age > 2; append to People (name = "p4", age = a)`)
	db.MustExec(`execute AppDrop ()`)
	db.MustExec(`create Tmp : { own Person }`)
	db.MustExec(`execute DropMake ()`)
	db.MustExec(`execute Mat (9)`)
	// A commit that allocates an OID and keeps nothing of it.
	db.MustExec(`define procedure Churn () as append to People (name = "tmp", age = 0); delete P from P in People where P.name = "tmp"`)
	db.MustExec(`execute Churn ()`)
	want, lastOID := dumpOf(t, db), db.store.Snapshot().LastOID()

	db2 := reopenWAL(t, dir)
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\n%s", firstDumpDiff(want, got))
	}
	if got := db2.store.Snapshot().LastOID(); got != lastOID {
		t.Fatalf("recovery's last OID is %d, want %d", got, lastOID)
	}
	// The newest object is deleted before the checkpoint: its OID is
	// still never handed out again.
	db2.MustExec(`append to People (name = "gone", age = 1)`)
	db2.MustExec(`delete P from P in People where P.name = "gone"`)
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db3 := reopenWAL(t, dir)
	if got, want := db3.store.Snapshot().LastOID(), db2.store.Snapshot().LastOID(); got != want {
		t.Fatalf("checkpoint recovery's last OID is %d, want %d", got, want)
	}
	db3.MustExec(`execute DropMake ()`)
	want = dumpOf(t, db3)
	db4 := reopenWAL(t, dir)
	defer db4.Close()
	if got := dumpOf(t, db4); got != want {
		t.Fatalf("dump after checkpoint recovery differs:\n%s", firstDumpDiff(want, got))
	}
}

// TestWALRangeDeclLogsNothing: a range declaration is read-classified:
// it runs while another writer holds the commit lock, and logs nothing.
func TestWALRangeDeclLogsNothing(t *testing.T) {
	db := reopenWAL(t, t.TempDir())
	defer db.Close()
	db.MustExec(walTestSchema)
	s := db.NewSession()
	next, _ := db.WALStats()
	done := make(chan error, 1)
	db.wmu.Lock()
	go func() {
		_, err := s.Exec(`range of P is People`)
		done <- err
	}()
	select {
	case err := <-done:
		db.wmu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		db.wmu.Unlock()
		t.Fatal("range of waited for the commit lock")
	}
	if n, _ := db.WALStats(); n != next {
		t.Fatalf("range of was logged: next LSN %d -> %d", next, n)
	}
	if _, err := s.Exec(`range of Q is Nowhere`); err == nil {
		t.Fatal("a range over no extent was declared")
	}
	if r := s.MustQuery(`retrieve (P.name)`); len(r.Rows) != 0 {
		t.Fatalf("the declared range read %d rows", len(r.Rows))
	}
}

// TestWALElemSetWriteLogsBoundedRecord: one append to, and one delete
// from, a 10 000-element ref set each log one record of one line, and
// the set recovers as it was.
func TestWALElemSetWriteLogsBoundedRecord(t *testing.T) {
	src, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	src.MustExec(walTestSchema)
	src.MustExec(`create Fans : { ref Person }`)
	for i := 0; i < 10000; i++ {
		if _, err := src.Insert("People", Attrs{"name": fmt.Sprintf("p%05d", i), "age": i % 90}); err != nil {
			t.Fatal(err)
		}
	}
	src.MustExec(`append to Fans (P) from P in People`)
	dump := dumpOf(t, src)
	src.Close()

	dir := t.TempDir()
	db := reopenWAL(t, dir)
	if err := db.Load(strings.NewReader(dump)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{
		`append to Fans (P) from P in People where P.name = "p04242"`,
		`delete F from F in Fans where F.name = "p00007"`,
	} {
		before := db.MetricsSnapshot().Counters
		db.MustExec(w)
		after := db.MetricsSnapshot().Counters
		recs, b := after["wal.append.records"]-before["wal.append.records"], after["wal.append.bytes"]-before["wal.append.bytes"]
		t.Logf("%s: %d record, %d bytes", w, recs, b)
		if recs != 1 || b > 100 {
			t.Errorf("%s logged %d records of %d bytes, want one line", w, recs, b)
		}
	}
	want := dumpOf(t, db)
	db2 := reopenWAL(t, dir)
	defer db2.Close()
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\n%s", firstDumpDiff(want, got))
	}
}

// TestWALFunctionOverSessionRangeRefused: a function body is schema and
// sees no session's range declarations, so a function defined through
// one is refused, and the dump and the checkpoint stay loadable.
func TestWALFunctionOverSessionRangeRefused(t *testing.T) {
	dir := t.TempDir()
	db := reopenWAL(t, dir)
	defer db.Close()
	db.MustExec(walTestSchema)
	db.MustExec(`append to People (name = "ann", age = 40)`)
	db.MustExec(`range of P is People`)
	_, err := db.Exec(`define function Olds () returns {Person} as retrieve (P) where P.age > 0`)
	if err == nil || !strings.Contains(err.Error(), "unknown name P") {
		t.Fatalf("define over a session range: err = %v, want unknown name P", err)
	}
	for _, name := range db.Catalog().FunctionNames() {
		t.Fatalf("the refused define left function %s", name)
	}
	dump := dumpOf(t, db)
	fresh, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.Load(strings.NewReader(dump)); err != nil {
		t.Fatalf("Load of the dump: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db2 := reopenWAL(t, dir)
	defer db2.Close()
	if got := dumpOf(t, db2); got != dump {
		t.Fatalf("dump after checkpoint recovery differs:\n%s", firstDumpDiff(dump, got))
	}
}

// TestSetRefChecksItsTarget: SetRef refuses a non-reference attribute, a
// target of another type than the attribute refers to, and a target
// that is not live; each refusal publishes nothing.
func TestSetRefChecksItsTarget(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`
		define type Dept: ( dname: varchar )
		define type Emp: ( name: varchar, dept: ref Dept )
		create Depts : { own Dept }
		create Emps : { own Emp }
	`)
	d, err := db.Insert("Depts", Attrs{"dname": "toy"})
	if err != nil {
		t.Fatal(err)
	}
	alice, err := db.Insert("Emps", Attrs{"name": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	bob, err := db.Insert("Emps", Attrs{"name": "bob"})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := db.Insert("Depts", Attrs{"dname": "gone"})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`delete D from D in Depts where D.dname = "gone"`)
	for _, c := range []struct {
		name   string
		attr   string
		target Obj
	}{
		{"an Emp in a ref Dept", "dept", bob},
		{"a ref in a varchar", "name", d},
		{"a deleted target", "dept", gone},
	} {
		before := dumpOf(t, db)
		ver := db.store.Version()
		if err := db.SetRef(alice, c.attr, c.target); err == nil {
			t.Errorf("SetRef of %s succeeded", c.name)
		}
		if db.store.Version() != ver || dumpOf(t, db) != before {
			t.Errorf("the refused SetRef of %s published", c.name)
		}
	}
	if err := db.SetRef(alice, "dept", d); err != nil {
		t.Fatal(err)
	}
	mustConsistent(t, db)
	r := db.MustQuery(`retrieve (E.dept.dname) from E in Emps where E.name = "alice"`)
	if len(r.Rows) != 1 || r.Rows[0][0].String() != `"toy"` {
		t.Fatalf("the good SetRef reads %v", r.Rows)
	}
}
