package extra

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/excess/ast"
	"repro/internal/object"
	"repro/internal/oid"
	"repro/internal/types"
	"repro/internal/wal"
)

// Dump writes a snapshot of the database — schema DDL, every object with
// its identity and ownership, element-set memberships, variable values,
// and index definitions — as a line-oriented text stream that Load can
// replay into a fresh database. Authorization state (users, groups,
// grants) is session configuration and is not dumped.
//
// A dump is a read statement: it pins the store's published snapshot,
// whose catalog the schema sections are rendered from, so the DDL text
// and the exported data agree on one version. Writers keep committing
// while the dump streams out, and the dump observes none of them — the
// output is the single version pinned at the start, byte-stable no
// matter how slow w is.
//
// extra:output
// extra:snapshot
func (db *DB) Dump(w io.Writer) error {
	if db.closed.Load() {
		return errDBClosed
	}
	snap := db.store.Snapshot()
	cat := snap.Catalog()
	var ddl []string
	for _, name := range cat.EnumNames() {
		e, _ := cat.EnumType(name)
		ddl = append(ddl, fmt.Sprintf("define enum %s : ( %s )", e.Name, strings.Join(e.Labels, ", ")))
	}
	for _, tt := range typesInDependencyOrder(cat) {
		ddl = append(ddl, strings.ReplaceAll(tt.DDL(), "\n", " "))
	}
	// Element-set and scalar variables are exported one by one below;
	// object sets are covered wholesale by ExportObjects.
	type varRec struct {
		name  string
		elems bool
	}
	var vars []varRec
	for _, name := range cat.VarNames() {
		v, _ := cat.Var(name)
		var b strings.Builder
		fmt.Fprintf(&b, "create %s : %s", v.Name, v.Comp.String())
		for _, ix := range cat.IndexesOn(name) {
			if len(ix.KeyPaths) == 0 {
				continue
			}
			attrs := make([]string, len(ix.KeyPaths))
			for i, p := range ix.KeyPaths {
				attrs[i] = strings.Join(p, ".")
			}
			fmt.Fprintf(&b, " key (%s)", strings.Join(attrs, ", "))
		}
		ddl = append(ddl, b.String())
		switch {
		case v.IsObjectSet():
		case v.IsRefSet() || v.IsValueSet():
			vars = append(vars, varRec{name: name, elems: true})
		default:
			vars = append(vars, varRec{name: name})
		}
	}
	for _, name := range cat.FunctionNames() {
		for _, fn := range cat.Functions(name) {
			ddl = append(ddl, renderFunction(fn))
		}
	}
	for _, name := range cat.ProcedureNames() {
		p, _ := cat.Procedure(name)
		ddl = append(ddl, renderProcedure(p))
	}
	var ixLines []string
	for _, name := range cat.IndexNames() {
		ix, _ := cat.Index(name)
		if len(ix.KeyPaths) > 0 {
			continue // key constraints are dumped with their create statement
		}
		uq := ""
		if ix.Unique {
			uq = "unique "
		}
		ixLines = append(ixLines, fmt.Sprintf("define %sindex %s on %s (%s)", uq, ix.Name, ix.Extent, strings.Join(ix.Path, ".")))
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "#extra-dump v1")
	// Schema: enums, tuple types (dependency order), creates, functions,
	// procedures. Indexes come after the data so restore backfills them.
	fmt.Fprintln(bw, "--ddl")
	for _, l := range ddl {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintln(bw, "--data")
	objs, err := snap.ExportObjects()
	if err != nil {
		return err
	}
	for _, o := range objs {
		ext := o.Extent
		if ext == "" {
			ext = "-"
		}
		fmt.Fprintf(bw, "OBJ %s %d %d %s\n", ext, o.OID, o.Owner, hex.EncodeToString(o.Data))
	}
	for _, vr := range vars {
		if vr.elems {
			elems, err := snap.ExportElems(vr.name)
			if err != nil {
				return err
			}
			for _, e := range elems {
				fmt.Fprintf(bw, "ELEM %s %s\n", vr.name, hex.EncodeToString(e))
			}
		} else {
			data, err := snap.ExportVar(vr.name)
			if err != nil {
				return err
			}
			fmt.Fprintf(bw, "VAR %s %s\n", vr.name, hex.EncodeToString(data))
		}
	}
	fmt.Fprintln(bw, "--indexes")
	for _, l := range ixLines {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintln(bw, "--end")
	return bw.Flush()
}

// DumpFile writes a snapshot to a file, atomically: the stream goes to
// a temp file in the target's directory, is fsynced, and renamed over
// the target — a crash mid-dump leaves the previous dump intact.
func (db *DB) DumpFile(path string) error {
	return writeFileAtomic(path, func(f *os.File) error { return db.Dump(f) })
}

// writeFileAtomic writes a file via fn with crash-safe replace
// semantics: temp file in the same directory, fsync, atomic rename,
// directory sync. Either the old content or the complete new content
// survives a crash, never a prefix.
func writeFileAtomic(path string, fn func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := fn(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		tmp = nil
		os.Remove(name)
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	// Make the rename itself durable (best-effort: some filesystems
	// reject directory fsync).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// LoadError reports where a Load stream failed; the database was left
// unchanged.
type LoadError struct {
	Line int   // 1-based line of the dump stream
	Err  error // what went wrong there
}

func (e *LoadError) Error() string { return fmt.Sprintf("dump line %d: %v", e.Line, e.Err) }
func (e *LoadError) Unwrap() error { return e.Err }

// Load replays a Dump stream into this database, which must be freshly
// opened (empty catalog). Objects keep their identities; references
// across extents therefore survive the round trip.
//
// Load is all-or-nothing: the stream is first staged into a scratch
// database (sharing this database's ADT registry), and only a stream
// that restores cleanly there is applied here — a bad dump leaves the
// database unchanged and returns a *LoadError locating the first bad
// line. The engine itself has no statement rollback, so the validation
// pass is what provides the atomicity; its price is reading the dump
// twice and briefly holding a second (scratch) copy of the restored
// data. When r seeks (a file, LoadFile's path), both passes stream
// from it directly; otherwise the dump text is buffered in memory to
// be replayable.
func (db *DB) Load(r io.Reader) error {
	if cat := db.Catalog(); len(cat.VarNames()) != 0 || len(cat.TupleTypeNames()) != 0 {
		return fmt.Errorf("Load requires a fresh database")
	}
	stage, rewind, err := loadPasses(r)
	if err != nil {
		return err
	}
	scratch, err := open(config{traceCap: 1}, db.reg)
	if err != nil {
		return fmt.Errorf("load staging: %w", err)
	}
	stageErr := scratch.loadStream(stage)
	scratch.Close()
	if stageErr != nil {
		return stageErr
	}
	second, err := rewind()
	if err != nil {
		return err
	}
	return db.loadStream(second)
}

// loadPasses turns a dump source into two readable passes: seekable
// sources rewind in place, anything else is buffered once.
func loadPasses(r io.Reader) (first io.Reader, rewind func() (io.Reader, error), err error) {
	if s, ok := r.(io.ReadSeeker); ok {
		start, err := s.Seek(0, io.SeekCurrent)
		if err == nil {
			return s, func() (io.Reader, error) {
				if _, err := s.Seek(start, io.SeekStart); err != nil {
					return nil, fmt.Errorf("load: rewind for second pass: %w", err)
				}
				return s, nil
			}, nil
		}
		// A Seeker that cannot report its position (unseekable file like
		// a pipe) falls through to buffering.
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	return bytes.NewReader(raw), func() (io.Reader, error) { return bytes.NewReader(raw), nil }, nil
}

// loadChunkBytes caps the joined text of one restored --data chunk —
// one commit, one WAL record — comfortably below wal.MaxRecord so a
// bulk Load of any size stays recoverable. A var so tests can shrink
// it.
var loadChunkBytes = wal.MaxRecord / 4

// loadStream replays a dump stream directly into the database with no
// staging pass — the shared worker under Load (which validates first)
// and WAL checkpoint restore (whose input is trusted: it was written
// atomically by Checkpoint).
func (db *DB) loadStream(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	section := ""
	lineNo := 0
	var data []dataLine
	dataBytes := 0
	var lastLSN uint64
	flush := func() error {
		lsn, err := db.restoreData(data)
		if lsn > lastLSN {
			lastLSN = lsn
		}
		data = nil
		dataBytes = 0
		return err
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "--"):
			// Leaving the data section flushes its records in one
			// critical section, before the index DDL that backfills from
			// them.
			if section == "--data" {
				if err := flush(); err != nil {
					return err
				}
			}
			section = line
			continue
		}
		switch section {
		case "--ddl", "--indexes":
			if _, err := db.Exec(line); err != nil {
				return &LoadError{Line: lineNo, Err: err}
			}
		case "--data":
			// Flush before the chunk would outgrow the cap, so a chunk
			// exceeds it only when a single line does (and restoreData
			// refuses that before applying anything).
			if dataBytes > 0 && dataBytes+len(line)+1 > loadChunkBytes {
				if err := flush(); err != nil {
					return err
				}
			}
			data = append(data, dataLine{no: lineNo, text: line})
			dataBytes += len(line) + 1
		default:
			return &LoadError{Line: lineNo, Err: fmt.Errorf("content outside a section")}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := db.waitDurable(lastLSN); err != nil {
		return err
	}
	return sc.Err()
}

// dataLine is one --data record with its source line (for errors).
type dataLine struct {
	no   int
	text string
}

// restoreData replays one chunk of --data records (loadStream caps
// chunks at loadChunkBytes) through publish, in one write-lock critical
// section with a single snapshot at the end, so a concurrent reader sees
// each chunk atomically. The chunk is one WAL record (replay stops at
// the same first bad line the original run did). It is built even
// without a WAL, so Load's staging pass — a WAL-less scratch database —
// refuses an oversize chunk exactly where the durable pass would. The
// returned LSN is 0 when nothing was logged, and the caller awaits
// durability outside the lock.
//
// extra:acquires db.wmu.W
func (db *DB) restoreData(lines []dataLine) (uint64, error) {
	if len(lines) == 0 {
		return 0, nil
	}
	texts := make([]string, len(lines))
	for i, l := range lines {
		texts[i] = l.text
	}
	rec := &wal.Record{Kind: wal.RecordLoad, User: "dba", Src: strings.Join(texts, "\n")}
	db.wmu.Lock()
	defer db.wmu.Unlock()
	lsn, err := db.publish(rec, nil, func() error {
		for _, l := range lines {
			if err := db.loadDataLine(l.text); err != nil {
				return &LoadError{Line: l.no, Err: err}
			}
		}
		return nil
	})
	if errors.Is(err, wal.ErrTooLarge) {
		err = &LoadError{Line: lines[0].no, Err: err}
	}
	return lsn, err
}

// LoadFile replays a snapshot file.
func (db *DB) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return db.Load(f)
}

// loadDataLine restores one OBJ/ELEM/VAR record into the live store;
// the caller (restoreData) holds the write lock for the whole section
// and commits once at the end.
//
// extra:requires db.wmu.W
func (db *DB) loadDataLine(line string) error {
	fields := strings.SplitN(line, " ", 5)
	switch fields[0] {
	case "OBJ":
		if len(fields) != 5 {
			return fmt.Errorf("malformed OBJ line")
		}
		ext := ""
		if fields[1] != "-" {
			ext = db.varName(fields[1])
		}
		id, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return err
		}
		owner, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil {
			return err
		}
		data, err := hex.DecodeString(fields[4])
		if err != nil {
			return err
		}
		return db.store.RestoreObject(object.ExportObject{
			Extent: ext, OID: oid.OID(id), Owner: oid.OID(owner), Data: data,
		})
	case "ELEM":
		if len(fields) != 3 {
			return fmt.Errorf("malformed ELEM line")
		}
		data, err := hex.DecodeString(fields[2])
		if err != nil {
			return err
		}
		return db.store.RestoreElem(db.varName(fields[1]), data)
	case "VAR":
		if len(fields) != 3 {
			return fmt.Errorf("malformed VAR line")
		}
		data, err := hex.DecodeString(fields[2])
		if err != nil {
			return err
		}
		return db.store.RestoreVar(db.varName(fields[1]), data)
	}
	return fmt.Errorf("unknown data record %q", fields[0])
}

// varName returns the working catalog's own copy of a variable name read
// from a data line. The store keeps the name it is given — in every
// object's directory entry, and from there in the snapshot — and a field
// of the line is a substring that would pin the whole hex line for as
// long as the object lives. An unknown name is returned as given; the
// restore rejects it.
func (db *DB) varName(name string) string {
	if v, ok := db.store.Catalog().Var(name); ok {
		return v.Name
	}
	return name
}

// typesInDependencyOrder sorts schema types so that supertypes and
// attribute-referenced types precede their dependents.
func typesInDependencyOrder(cat *catalog.Catalog) []*types.TupleType {
	names := cat.TupleTypeNames()
	placed := map[string]bool{}
	var out []*types.TupleType
	var place func(tt *types.TupleType)
	place = func(tt *types.TupleType) {
		if placed[tt.Name] {
			return
		}
		placed[tt.Name] = true // mark first: self-references are fine
		for _, s := range tt.Supers {
			place(s.Type)
		}
		for _, a := range tt.Attrs() {
			for _, dep := range tupleDeps(a.Comp.Type) {
				if dep.Name != tt.Name {
					place(dep)
				}
			}
		}
		out = append(out, tt)
	}
	for _, n := range names {
		if tt, ok := cat.TupleType(n); ok {
			place(tt)
		}
	}
	return out
}

func tupleDeps(t types.Type) []*types.TupleType {
	switch x := t.(type) {
	case *types.TupleType:
		return []*types.TupleType{x}
	case *types.Ref:
		return []*types.TupleType{x.Target}
	case *types.Set:
		return tupleDeps(x.Elem.Type)
	case *types.Array:
		return tupleDeps(x.Elem.Type)
	}
	return nil
}

// renderFunction prints a function definition back to DDL.
func renderFunction(fn *catalog.Function) string {
	var b strings.Builder
	b.WriteString("define ")
	if fn.Late {
		b.WriteString("late ")
	}
	b.WriteString("function " + fn.Name + " (")
	for i, p := range fn.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Name + ": " + p.Type.String())
	}
	b.WriteString(") returns " + fn.Returns.String())
	if !fn.HasBody() {
		return "declare" + strings.TrimPrefix(b.String(), "define")
	}
	b.WriteString(" as ")
	if fn.Query != nil {
		b.WriteString(ast.Print(fn.Query))
	} else {
		b.WriteString("(")
		var eb strings.Builder
		printExprTo(&eb, fn.Expr)
		b.WriteString(eb.String())
		b.WriteString(")")
	}
	return b.String()
}

// printExprTo renders an expression via the AST printer (wrapped in a
// throwaway retrieve to reuse Print).
func printExprTo(b *strings.Builder, e ast.Expr) {
	s := ast.Print(&ast.Retrieve{Targets: []ast.Target{{Expr: e}}})
	s = strings.TrimPrefix(s, "retrieve (")
	s = strings.TrimSuffix(s, ")")
	b.WriteString(s)
}

func renderProcedure(p *catalog.Procedure) string {
	var b strings.Builder
	b.WriteString("define procedure " + p.Name + " (")
	for i, prm := range p.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(prm.Name + ": " + prm.Type.String())
	}
	b.WriteString(") as ")
	for i, st := range p.Body {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(ast.Print(st))
	}
	return b.String()
}
