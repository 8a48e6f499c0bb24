package sema

import "repro/internal/excess/ast"

// Kinds lists every name KindOf returns, so the database layer can
// resolve its per-kind counters once instead of per statement.
var Kinds = []string{
	"retrieve", "append", "delete", "replace", "set", "execute",
	"define", "create", "drop", "range", "grant", "other",
}

// KindOf names a statement for per-kind accounting (the database
// layer's stmt.retrieve, stmt.append, ... metric counters).
func KindOf(st ast.Statement) string {
	switch st.(type) {
	case *ast.Retrieve:
		return "retrieve"
	case *ast.Append:
		return "append"
	case *ast.Delete:
		return "delete"
	case *ast.Replace:
		return "replace"
	case *ast.SetStmt:
		return "set"
	case *ast.Execute:
		return "execute"
	case *ast.DefineType, *ast.DefineEnum, *ast.DefineFunction,
		*ast.DefineProcedure, *ast.DefineIndex:
		return "define"
	case *ast.Create:
		return "create"
	case *ast.Drop:
		return "drop"
	case *ast.RangeDecl:
		return "range"
	case *ast.Grant, *ast.Revoke:
		return "grant"
	}
	return "other"
}

// ReadOnly reports whether a statement only reads engine state, which
// is what lets the database layer run it on a pinned snapshot without
// its commit lock. A retrieve without an into clause qualifies, and so
// does a range declaration, which checks against the catalog and writes
// only its session's range table. Retrieve into materializes a new
// database variable, the QUEL update statements and DDL mutate the
// store or catalog, grant/revoke write the authorization tables, and
// execute runs an arbitrary procedure body.
func ReadOnly(st ast.Statement) bool {
	switch st := st.(type) {
	case *ast.Retrieve:
		return st.Into == ""
	case *ast.RangeDecl:
		return true
	}
	return false
}
