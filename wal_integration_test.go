package extra

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

// dumpOf renders the database to its canonical byte-stable dump.
func dumpOf(t *testing.T, db *DB) string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return buf.String()
}

// mustConsistent fails the test if the store fsck reports violations.
func mustConsistent(t *testing.T, db *DB) {
	t.Helper()
	if v := db.CheckConsistency(); v != nil {
		t.Fatalf("CheckConsistency: %v", v)
	}
}

// reopenWAL abandons db (no Close — simulating a crash after the last
// acknowledged commit) and opens a fresh DB over the same log.
func reopenWAL(t *testing.T, dir string, opts ...Option) *DB {
	t.Helper()
	db2, err := Open(append([]Option{WithWAL(dir), WithWALSync(WALSyncEach)}, opts...)...)
	if err != nil {
		t.Fatalf("reopen with WAL: %v", err)
	}
	return db2
}

const walTestSchema = `
	define type Person: ( name: varchar, age: int4 )
	create People : { own Person }
`

func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	for i := 0; i < 20; i++ {
		db.MustExec(fmt.Sprintf(`append to People (name = "p%02d", age = %d)`, i, 20+i))
	}
	db.MustExec(`delete P from P in People where P.age < 25`)
	db.MustExec(`replace P (age = P.age + 1) from P in People where P.age > 30`)
	db.MustExec(`retrieve into Elders (P.name) from P in People where P.age > 33`)
	db.MustExec(`define index byage on People (age)`)
	want := dumpOf(t, db)
	// No Close: the process "crashes" here. Every statement above was
	// acknowledged, so every one must survive.

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	// The recovered database keeps working and logging.
	db2.MustExec(`append to People (name = "post", age = 99)`)
	db3 := reopenWAL(t, dir)
	defer db3.Close()
	r := db3.MustQuery(`retrieve (P.name) from P in People where P.age = 99`)
	if len(r.Rows) != 1 {
		t.Fatalf("post-recovery append lost: %d rows", len(r.Rows))
	}
}

func TestWALRecoveryAfterCleanClose(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	db.MustExec(`append to People (name = "a", age = 1)`)
	want := dumpOf(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2 := reopenWAL(t, dir)
	defer db2.Close()
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after clean close + recovery differs")
	}
}

func TestWALBatchPartialFailureKeepsCommittedPrefix(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	// Second statement of the batch fails; the first committed and was
	// acknowledged into the log before the error surfaced.
	_, execErr := db.Exec(`
		append to People (name = "kept", age = 1)
		append to Nonexistent (name = "lost", age = 2)
	`)
	if execErr == nil {
		t.Fatal("batch over a missing extent succeeded")
	}
	want := dumpOf(t, db)

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	r := db2.MustQuery(`retrieve (P.name) from P in People where P.name = "kept"`)
	if len(r.Rows) != 1 {
		t.Fatalf("committed first statement lost after recovery")
	}
}

// TestWALFailedStatementPublishesNothing: a multi-row append that hits
// a unique violation part-way publishes and logs nothing — not the rows
// before the violation either — and recovery reproduces the database
// without it.
func TestWALFailedStatementPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	db.MustExec(`define unique index uq on People (name)`)
	db.MustExec(`append to People (name = "dup", age = 1)`)
	db.MustExec(`
		create Src : { own Person }
		append to Src (name = "fresh", age = 2)
		append to Src (name = "dup", age = 3)
	`)
	want := dumpOf(t, db)
	next, _ := db.WALStats()
	if _, err := db.Exec(`append to People (name = S.name, age = S.age) from S in Src`); err == nil {
		t.Fatal("append over a unique violation succeeded")
	}
	if got := dumpOf(t, db); got != want {
		t.Fatalf("the failed append published:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if n, _ := db.WALStats(); n != next {
		t.Fatalf("the failed append was logged: next LSN %d -> %d", next, n)
	}

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestRecoveryReplaySealsTraces: recovery applies what each commit
// published and runs no statement through the pipeline, so a recovery
// with sampling on begins no trace, and leaves none open.
func TestRecoveryReplaySealsTraces(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	db.MustExec(`append to People (name = "ann", age = 31)`)
	want := dumpOf(t, db)

	db2 := reopenWAL(t, dir, WithTracing(1, 16))
	defer db2.Close()
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if s := db2.Tracer().Stats(); s.TracesStarted != 0 {
		t.Errorf("replay began %d traces; it runs no statement", s.TracesStarted)
	}
	requireSealed(t, db2, "after recovery replay")
}

func TestWALPreparedStatementParamsReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	st, err := db.Prepare(`append to People (name = $1, age = $2)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		st.MustExec(fmt.Sprintf("param-%d", i), 30+i)
	}
	want := dumpOf(t, db)

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestWALInsertAndSetRefReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
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
	e, err := db.Insert("Emps", Attrs{"name": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetRef(e, "dept", d); err != nil {
		t.Fatal(err)
	}
	e2, err := db.Insert("Emps", Attrs{"name": "bob", "dept": d})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetRef(e2, "dept", Obj{}); err != nil { // null it back out
		t.Fatal(err)
	}
	want := dumpOf(t, db)

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	r := db2.MustQuery(`retrieve (E.name, E.dept.dname) from E in Emps where E.name = "alice"`)
	if len(r.Rows) != 1 {
		t.Fatalf("reference lost after recovery: %v", r)
	}
}

func TestWALSessionRangeDeclsReplayPerSession(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	s1, s2 := db.NewSession(), db.NewSession()
	// Each session declares the same range name over different state;
	// replay must keep the declarations separate or s2's retrieve-into
	// replays against the wrong extent and materializes the wrong rows.
	s1.MustExec(`create Others : { own Person }`)
	db.MustExec(`append to People (name = "in-people", age = 1)`)
	s1.MustExec(`append to Others (name = "in-others", age = 2)`)
	s1.MustExec(`range of P is People`)
	s2.MustExec(`range of P is Others`)
	s1.MustExec(`retrieve into FromS1 (P.name)`)
	s2.MustExec(`retrieve into FromS2 (P.name)`)
	want := dumpOf(t, db)

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestWALCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	for i := 0; i < 10; i++ {
		db.MustExec(fmt.Sprintf(`append to People (name = "pre%02d", age = %d)`, i, i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	for i := 0; i < 5; i++ {
		db.MustExec(fmt.Sprintf(`append to People (name = "post%02d", age = %d)`, i, 50+i))
	}
	want := dumpOf(t, db)

	// Recovery = checkpoint restore + replay of the 5 post-checkpoint
	// records.
	db2 := reopenWAL(t, dir)
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after checkpoint recovery differs:\nwant:\n%s\ngot:\n%s", want, got)
	}
	// Checkpoint again with nothing after it: recovery from dump alone.
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("second Checkpoint: %v", err)
	}
	db3 := reopenWAL(t, dir)
	defer db3.Close()
	if got := dumpOf(t, db3); got != want {
		t.Fatalf("dump after second checkpoint differs")
	}
	// New writes after a checkpoint-only log must also survive.
	db3.MustExec(`append to People (name = "tail", age = 77)`)
	want3 := dumpOf(t, db3)
	db4 := reopenWAL(t, dir)
	defer db4.Close()
	if got := dumpOf(t, db4); got != want3 {
		t.Fatalf("dump after post-checkpoint write differs")
	}
}

func TestWALGroupCommitConcurrentSessions(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir)) // default sync mode: group commit
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(walTestSchema)
	const sessions, per = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := db.NewSession()
			st, err := s.Prepare(`append to People (name = $1, age = $2)`)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < per; i++ {
				if _, err := st.Exec(fmt.Sprintf("s%d-%02d", g, i), i); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	r := db2.MustQuery(`retrieve (n = count(People))`)
	if got := fmt.Sprint(r.Rows[0][0]); got != fmt.Sprint(sessions*per) {
		t.Fatalf("recovered %s people, want %d", got, sessions*per)
	}
}

// TestWALRecoveryProperty is the recover(replay(W)) ≡ W property test:
// random statement workloads (appends, deletes, replaces, retrieve-into,
// range declarations, occasional erred statements and checkpoints) must
// recover to a byte-identical dump, OIDs included.
func TestWALRecoveryProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(walTestSchema)
			sess := []*Session{db.NewSession(), db.NewSession()}
			n := 0
			for i := 0; i < 60; i++ {
				s := sess[rng.Intn(len(sess))]
				switch k := rng.Intn(10); {
				case k < 4:
					s.MustExec(fmt.Sprintf(`append to People (name = "n%04d", age = %d)`, n, rng.Intn(80)))
					n++
				case k < 5:
					s.MustExec(fmt.Sprintf(`delete P from P in People where P.age = %d`, rng.Intn(80)))
				case k < 6:
					s.MustExec(fmt.Sprintf(`replace P (age = P.age + 1) from P in People where P.age < %d`, rng.Intn(40)))
				case k < 7:
					s.MustExec(fmt.Sprintf(`range of R%d is People`, rng.Intn(3)))
				case k < 8:
					s.MustExec(fmt.Sprintf(`retrieve into V%02d (P.name) from P in People where P.age > %d`, i, rng.Intn(80)))
				case k < 9:
					// A failing statement: logged only if it had effects.
					s.Exec(`append to Missing (name = "x", age = 0)`) //nolint:errcheck
				default:
					if err := db.Checkpoint(); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
				}
			}
			want := dumpOf(t, db)
			db2 := reopenWAL(t, dir)
			defer db2.Close()
			mustConsistent(t, db2)
			// The log holds what each commit published, OIDs included, so
			// the recovered dump is the same bytes, across checkpoints too.
			if got := dumpOf(t, db2); got != want {
				t.Fatalf("seed %d: dump after recovery differs:\nwant:\n%s\ngot:\n%s", seed, want, got)
			}
		})
	}
}

func TestWALSyncModeFlagParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want WALSyncMode
		ok   bool
	}{
		{"", WALSyncGroup, true},
		{"group", WALSyncGroup, true},
		{"each", WALSyncEach, true},
		{"none", WALSyncNone, true},
		{"bogus", 0, false},
	} {
		got, err := ParseWALSyncMode(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Fatalf("ParseWALSyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}

func TestDumpFileAtomicReplace(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(walTestSchema)
	db.MustExec(`append to People (name = "v1", age = 1)`)
	path := filepath.Join(t.TempDir(), "dump.xd")
	if err := db.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	good, _ := os.ReadFile(path)

	// A failing dump (closed database) must leave the previous dump
	// byte-identical, not truncated in place.
	db2, _ := Open()
	db2.Close()
	if err := db2.DumpFile(path); err == nil {
		t.Fatal("DumpFile on closed DB succeeded")
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(good, after) {
		t.Fatal("failed DumpFile clobbered the previous dump")
	}
	// No temp litter.
	ents, _ := os.ReadDir(filepath.Dir(path))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// onceReader is a Load source that counts the bytes read from it and
// fails the test if Load seeks it: Load reads its source once.
type onceReader struct {
	t *testing.T
	r io.Reader
	n int
}

func (o *onceReader) Read(p []byte) (int, error) {
	n, err := o.r.Read(p)
	o.n += n
	return n, err
}

func (o *onceReader) Seek(int64, int) (int64, error) {
	o.t.Error("Load seeked its source")
	return 0, errors.New("no seeking")
}

// TestLoadIsAtomic: a dump with one bad data line fails Load with a
// *LoadError naming a line, whatever kind of record the line is,
// publishes nothing and logs nothing, and leaves the target fresh, so
// the good dump loads into it after. Load reads its source once, seeking
// nowhere.
func TestLoadIsAtomic(t *testing.T) {
	src, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.MustExec(walTestSchema)
	src.MustExec(`create Fans : { ref Person }
		create Star : ref Person`)
	src.MustExec(`append to People (name = "a", age = 1)`)
	src.MustExec(`append to Fans (P) from P in People`)
	src.MustExec(`set Star = P from P in People`)
	var good bytes.Buffer
	if err := src.Dump(&good); err != nil {
		t.Fatal(err)
	}
	// badPayload gives the first line that starts with prefix a payload
	// the codec rejects (value tag 255).
	badPayload := func(prefix string) func(string) string {
		return func(dump string) string {
			lines := strings.Split(dump, "\n")
			for i, l := range lines {
				if strings.HasPrefix(l, prefix) {
					lines[i] = l[:strings.LastIndex(l, " ")+1] + "ff"
					break
				}
			}
			return strings.Join(lines, "\n")
		}
	}
	for _, c := range []struct {
		name    string
		corrupt func(string) string
	}{
		{"OBJ extent", func(d string) string { return strings.Replace(d, "OBJ People", "OBJ Peoples", 1) }},
		{"OBJ twice", func(d string) string {
			l := d[strings.Index(d, "OBJ People"):]
			l = l[:strings.Index(l, "\n")+1]
			return strings.Replace(d, l, l+l, 1)
		}},
		{"OBJ payload", badPayload("OBJ People ")},
		{"ELEM payload", badPayload("ELEM Fans ")},
		{"VAR payload", badPayload("VAR Star ")},
	} {
		bad := c.corrupt(good.String())
		if bad == good.String() {
			t.Fatalf("%s: test corruption did not apply", c.name)
		}
		dst, err := Open(WithWAL(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		next, _ := dst.WALStats()
		src := &onceReader{t: t, r: strings.NewReader(bad)}
		loadErr := dst.Load(src)
		var le *LoadError
		if loadErr == nil {
			t.Errorf("%s: Load of corrupt dump succeeded", c.name)
		} else if !errors.As(loadErr, &le) {
			t.Errorf("%s: Load error is %T (%v), want *LoadError", c.name, loadErr, loadErr)
		} else if le.Line <= 0 {
			t.Errorf("%s: LoadError.Line = %d", c.name, le.Line)
		}
		if src.n > len(bad) {
			t.Errorf("%s: Load read %d bytes of a %d-byte dump", c.name, src.n, len(bad))
		}
		if n, _ := dst.WALStats(); n != next {
			t.Errorf("%s: the failed Load was logged: next LSN %d -> %d", c.name, next, n)
		}
		// Untouched: still fresh, so a good load goes through.
		src = &onceReader{t: t, r: bytes.NewReader(good.Bytes())}
		if err := dst.Load(src); err != nil {
			t.Fatalf("%s: Load after failed load: %v", c.name, err)
		}
		if src.n != good.Len() {
			t.Errorf("%s: Load read %d bytes of a %d-byte dump", c.name, src.n, good.Len())
		}
		r := dst.MustQuery(`retrieve (P.name) from P in People`)
		if len(r.Rows) != 1 {
			t.Errorf("%s: loaded %d rows, want 1", c.name, len(r.Rows))
		}
		dst.Close()
	}
}

// A bulk Load's --data section is chunked into bounded WAL records, so
// an arbitrarily large dump can never produce a record the next
// recovery would reject as tail garbage; every chunk replays on
// reopen.
func TestWALLoadChunksDataSections(t *testing.T) {
	old := loadChunkBytes
	loadChunkBytes = 256
	defer func() { loadChunkBytes = old }()

	src, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.MustExec(walTestSchema)
	for i := 0; i < 30; i++ {
		src.MustExec(fmt.Sprintf(`append to People (name = "p%02d", age = %d)`, i, 20+i))
	}
	var dump bytes.Buffer
	if err := src.Dump(&dump); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(bytes.NewReader(dump.Bytes())); err != nil {
		t.Fatalf("Load: %v", err)
	}
	want := dumpOf(t, db)
	// The dump's 2 DDL statements log one record each; well above 3
	// records total proves the data section split into several chunks.
	if next, _ := db.WALStats(); next-1 < 5 {
		t.Fatalf("only %d wal records logged; data section did not chunk", next-1)
	}
	// No Close: the process "crashes" after the acknowledged Load.

	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if got := dumpOf(t, db2); got != want {
		t.Fatalf("dump after chunked-load recovery differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// A statement whose WAL record would exceed wal.MaxRecord is refused: it
// is aborted before it publishes, so an unloggable mutation is never
// applied or acknowledged.
func TestWALOversizeStatementRefusedBeforeMutation(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(walTestSchema)
	st, err := db.Prepare(`append to People (name = $1, age = 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(strings.Repeat("x", wal.MaxRecord+1)); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("oversize exec: err = %v, want wal.ErrTooLarge", err)
	}
	if r := db.MustQuery(`retrieve (P.name) from P in People`); len(r.Rows) != 0 {
		t.Fatalf("refused statement left %d rows behind", len(r.Rows))
	}
	// The refusal poisons nothing: the next write commits and recovers.
	db.MustExec(`append to People (name = "ok", age = 2)`)
	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	if r := db2.MustQuery(`retrieve (P.name) from P in People`); len(r.Rows) != 1 {
		t.Fatalf("recovered %d rows, want 1", len(r.Rows))
	}
}

// SetRef checks its target before it writes: a forged handle, whose
// type name is not its object's type (here one longer than
// wal.MaxRecord), is refused and the write aborted, so neither the
// store nor the log ever holds the forged reference.
func TestWALOversizeSetRefRefusedBeforeMutation(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(WithWAL(dir), WithWALSync(WALSyncEach))
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
	e, err := db.Insert("Emps", Attrs{"name": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	forged := Obj{id: d.id, typ: strings.Repeat("x", wal.MaxRecord+1)}
	before := db.store.Version()
	next, _ := db.WALStats()
	if err := db.SetRef(e, "dept", forged); err == nil {
		t.Fatal("SetRef with a forged target handle succeeded")
	}
	if n, _ := db.WALStats(); n != next {
		t.Fatalf("the refused SetRef was logged: next LSN %d -> %d", next, n)
	}
	if got := db.store.Version(); got != before {
		t.Fatalf("refused SetRef published store state: version %d -> %d", before, got)
	}
	// The refusal poisons nothing: the real reference still wires up and
	// survives recovery.
	if err := db.SetRef(e, "dept", d); err != nil {
		t.Fatal(err)
	}
	db2 := reopenWAL(t, dir)
	defer db2.Close()
	mustConsistent(t, db2)
	r := db2.MustQuery(`retrieve (E.name, E.dept.dname) from E in Emps where E.name = "alice"`)
	if len(r.Rows) != 1 {
		t.Fatalf("reference lost after recovery: %v", r)
	}
}

// Every write path refuses a closed database before it mutates: a Go-API
// write or a Load after Close returns errDBClosed and publishes
// nothing, with or without a WAL.
func TestWriteAfterCloseRefused(t *testing.T) {
	const schema = `
		define type Person: ( name: varchar, mentor: ref Person )
		create People : { own Person }`
	src, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.MustExec(schema)
	src.MustExec(`append to People (name = "a")`)
	dump := dumpOf(t, src)

	writes := []struct {
		name string
		run  func(db *DB, p Obj) error
	}{
		{"Insert", func(db *DB, _ Obj) error {
			_, err := db.Insert("People", Attrs{"name": "late"})
			return err
		}},
		{"SetRef", func(db *DB, p Obj) error { return db.SetRef(p, "mentor", p) }},
		{"CreateUser", func(db *DB, _ Obj) error { return db.CreateUser("late") }},
		{"Load", func(db *DB, _ Obj) error { return db.Load(strings.NewReader(dump)) }},
	}
	for _, withWAL := range []bool{false, true} {
		for _, w := range writes {
			t.Run(fmt.Sprintf("%s/wal=%v", w.name, withWAL), func(t *testing.T) {
				var opts []Option
				if withWAL {
					opts = append(opts, WithWAL(t.TempDir()), WithWALSync(WALSyncEach))
				}
				db, err := Open(opts...)
				if err != nil {
					t.Fatal(err)
				}
				var p Obj
				if w.name != "Load" { // Load wants a fresh database
					db.MustExec(schema)
					if p, err = db.Insert("People", Attrs{"name": "m"}); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				before := db.store.Snapshot().Version()
				if err := w.run(db, p); !errors.Is(err, errDBClosed) {
					t.Fatalf("%s after Close: err = %v, want errDBClosed", w.name, err)
				}
				if got := db.store.Snapshot().Version(); got != before {
					t.Fatalf("%s after Close published: snapshot version %d -> %d", w.name, before, got)
				}
			})
		}
	}
}
