package extra

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
		ddl = append(ddl, typeDDL(tt))
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
		ddl = append(ddl, createDDL(cat, v))
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
	var line []byte
	top := oid.Nil
	for _, o := range objs {
		line = append(hex.AppendEncode(object.AppendObjHead(line[:0], o.Extent, o.OID, o.Owner), o.Data), '\n')
		bw.Write(line)
		top = max(top, o.OID)
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
	if last := snap.LastOID(); last > top {
		// OIDs the store handed out and no longer holds are never handed
		// out again (oid.Generator).
		fmt.Fprintf(bw, "OIDS %d\n", last)
	}
	fmt.Fprintln(bw, "--indexes")
	for _, l := range ixLines {
		fmt.Fprintln(bw, l)
	}
	fmt.Fprintln(bw, "--end")
	return bw.Flush()
}

// typeDDL renders a tuple type's definition as one line.
func typeDDL(tt *types.TupleType) string { return strings.ReplaceAll(tt.DDL(), "\n", " ") }

// createDDL renders the create statement of a variable, with its key
// constraints.
func createDDL(cat *catalog.Catalog, v *catalog.Variable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "create %s : %s", v.Name, v.Comp.String())
	for _, ix := range cat.IndexesOn(v.Name) {
		if len(ix.KeyPaths) == 0 {
			continue
		}
		attrs := make([]string, len(ix.KeyPaths))
		for i, p := range ix.KeyPaths {
			attrs[i] = strings.Join(p, ".")
		}
		fmt.Fprintf(&b, " key (%s)", strings.Join(attrs, ", "))
	}
	return b.String()
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

// LoadError reports where a Load stream failed: the line and what went
// wrong there. The failed Load published nothing.
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
// Load is one write: it reads the stream once, applying every line to
// the working store under one hold of the commit lock, and publishes
// once, at the end. A bad stream publishes nothing and returns a
// *LoadError locating the first bad line. With a WAL the load is
// logged as the lines it read, in one group (applyDump).
//
// extra:acquires db.wmu.W
func (db *DB) Load(r io.Reader) error {
	return db.apiWrite()(func() error { return db.applyDump(r) })
}

// loadChunkBytes caps the joined text of the data lines one WAL record
// holds, comfortably below wal.MaxRecord, so a bulk Load or a large
// commit stays recoverable. A var so tests can shrink it.
var loadChunkBytes = wal.MaxRecord / 4

// applyDump applies a dump stream to the working store. Under a WAL it
// logs the stream's lines as it reads them: each DDL statement's text as
// a record of its own, and the data lines in records of at most
// loadChunkBytes. A DDL line is one schema statement, run through the
// default session's statement dispatch, so each reads the view of the
// lines before it.
//
// extra:requires db.wmu.W
func (db *DB) applyDump(r io.Reader) error {
	if cat := db.store.Catalog(); len(cat.VarNames()) != 0 || len(cat.TupleTypeNames()) != 0 {
		return fmt.Errorf("Load requires a fresh database")
	}
	e := &db.edit
	e.base = nil // logged as read, not diffed
	var c stmtCall
	c.open(db.def)
	defer c.es.Release()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	section := ""
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "--"):
			section = line
			continue
		}
		var err error
		switch section {
		case "--ddl", "--indexes":
			if err = db.def.runSchema(&c, line); err == nil && e.on {
				e.stmt(c.user, line)
			}
		case "--data":
			var payload []byte
			if payload, err = db.store.ApplyLine(line, true); err == nil && e.on {
				err = e.loaded(line, payload)
			}
		default:
			err = fmt.Errorf("content outside a section")
		}
		if err != nil {
			return &LoadError{Line: lineNo, Err: err}
		}
	}
	return sc.Err()
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
