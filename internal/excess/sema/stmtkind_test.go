package sema_test

import (
	goast "go/ast"
	"go/parser"
	"go/token"
	"testing"

	"repro/internal/excess/ast"
	"repro/internal/excess/sema"
	"repro/internal/lint"
)

// stmtValues maps every ast.Statement implementation to a zero-ish
// instance. The test below proves this table complete against the ast
// package's source, so adding a statement type without extending the
// classifications here is a test failure, not a silent gap.
var stmtValues = map[string]ast.Statement{
	"Retrieve":        &ast.Retrieve{},
	"Append":          &ast.Append{},
	"Delete":          &ast.Delete{},
	"Replace":         &ast.Replace{},
	"SetStmt":         &ast.SetStmt{},
	"Execute":         &ast.Execute{},
	"DefineType":      &ast.DefineType{},
	"DefineEnum":      &ast.DefineEnum{},
	"DefineFunction":  &ast.DefineFunction{},
	"DefineProcedure": &ast.DefineProcedure{},
	"DefineIndex":     &ast.DefineIndex{},
	"Create":          &ast.Create{},
	"Drop":            &ast.Drop{},
	"RangeDecl":       &ast.RangeDecl{},
	"Grant":           &ast.Grant{},
	"Revoke":          &ast.Revoke{},
}

// stmtImplementors parses the ast package's source and returns the
// receiver type names of every stmt() method — the authoritative list
// of Statement implementations.
func stmtImplementors(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../ast", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse ../ast: %v", err)
	}
	out := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*goast.FuncDecl)
				if !ok || fd.Name.Name != "stmt" || fd.Recv == nil || len(fd.Recv.List) == 0 {
					continue
				}
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*goast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*goast.Ident); ok {
					out[id.Name] = true
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("found no stmt() implementations in ../ast")
	}
	return out
}

// TestStatementClassificationExhaustive proves the three statement
// classifications cannot drift apart: the ast package's Statement
// implementations, sema.KindOf/ReadOnly, and the extravet dispatch
// table lint.StmtClass all cover exactly the same set of types.
func TestStatementClassificationExhaustive(t *testing.T) {
	impls := stmtImplementors(t)

	for name := range impls {
		if _, ok := stmtValues[name]; !ok {
			t.Errorf("ast.%s implements Statement but is missing from this test's table", name)
		}
		if _, ok := lint.StmtClass[name]; !ok {
			t.Errorf("ast.%s implements Statement but is not classified in lint.StmtClass", name)
		}
	}
	for name := range stmtValues {
		if !impls[name] {
			t.Errorf("%s is in the test table but does not implement ast.Statement", name)
		}
	}
	for name := range lint.StmtClass {
		if !impls[name] {
			t.Errorf("%s is classified in lint.StmtClass but does not implement ast.Statement", name)
		}
	}

	// The static table and the runtime classifier must agree on every
	// statement kind.
	kinds := map[string]bool{}
	for _, kind := range sema.Kinds {
		kinds[kind] = true
	}
	if !kinds[sema.KindOf(nil)] {
		t.Errorf("sema.Kinds lacks KindOf's fallback %q", sema.KindOf(nil))
	}
	for name, st := range stmtValues {
		kind := sema.KindOf(st)
		if kind == "other" {
			t.Errorf("sema.KindOf(*ast.%s) = %q: every statement kind needs a metrics name", name, kind)
		}
		if !kinds[kind] {
			t.Errorf("sema.KindOf(*ast.%s) = %q is not in sema.Kinds: the database layer has no counter for it", name, kind)
		}
		switch lint.StmtClass[name] {
		case "write":
			if sema.ReadOnly(st) {
				t.Errorf("lint.StmtClass marks %s write but sema.ReadOnly accepts it", name)
			}
		case "read":
			if !sema.ReadOnly(st) {
				t.Errorf("lint.StmtClass marks %s read but sema.ReadOnly refuses it", name)
			}
		case "mixed":
			if !sema.ReadOnly(st) {
				t.Errorf("%s is mixed: its zero value (no into clause) must be read-only", name)
			}
		default:
			t.Errorf("lint.StmtClass[%s] = %q is neither read, write nor mixed", name, lint.StmtClass[name])
		}
	}

	// The one mixed statement: retrieve flips to a write when it has an
	// into clause — the exact dynamic check the dispatcher locks by.
	if sema.ReadOnly(&ast.Retrieve{Into: "Target"}) {
		t.Error("retrieve into must not be read-only")
	}
}
