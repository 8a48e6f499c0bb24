package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WalCheck mechanizes the WAL publication contract (DESIGN.md §13):
// every path that publishes store state must reach the log, so no
// acknowledged write is invisible to recovery. (A write that fails
// before it publishes is aborted, Store.Abort, and logs nothing.)
//
// Two annotations carry the contract across the call graph:
//
//   - "// extra:mutates" marks a publication point: a function that
//     mutates store state and publishes it with Store.Commit (the
//     atomic snapshot swap). Every direct caller of Commit must carry
//     the annotation — that is how new write paths opt in.
//   - "// extra:logs" marks the WAL plumbing: a function that sizes or
//     appends a record (logRecords, wal.Log.Append).
//
// The analyzer then checks, per publication point:
//
//  1. coverage — a function calling Commit without extra:mutates is
//     reported at the Commit call;
//  2. reach — an extra:mutates function must transitively call an
//     extra:logs function, so the publication cannot silently skip the
//     log;
//  3. hygiene — a stale extra:mutates (never reaches Commit) or
//     extra:logs (never sizes a record) annotation is itself an error,
//     so the vocabulary cannot rot.
var WalCheck = &Analyzer{
	Name: "walcheck",
	Doc:  "store publications must be annotated and must reach a WAL append",
	Run:  runWalCheck,
}

func runWalCheck(pass *Pass) {
	prog := pass.Prog
	stores := storeTypes(prog)
	if len(stores) == 0 {
		return
	}
	funcs := prog.Funcs()
	graph := prog.CallGraph()

	directCommit := map[*types.Func][]token.Pos{}
	for obj, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		if pos := commitCalls(fi, stores); len(pos) > 0 {
			directCommit[obj] = pos
		}
	}
	commits := Transitive(graph, func(f *types.Func) bool { return len(directCommit[f]) > 0 })
	logs := Transitive(graph, func(f *types.Func) bool {
		fi := funcs[f]
		return fi != nil && fi.Ann.Logs
	})
	// sizes: the function (or something it calls) compares a record
	// against wal.MaxRecord or measures it with PayloadSize.
	sizes := Transitive(graph, func(f *types.Func) bool {
		fi := funcs[f]
		return fi != nil && fi.Decl.Body != nil && sizesRecord(fi)
	})

	for obj, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		// (1) coverage: publication points must be annotated.
		if pos := directCommit[obj]; len(pos) > 0 && !fi.Ann.Mutates {
			pass.Reportf(pos[0], "%s publishes store state with Commit but is not annotated extra:mutates; walcheck cannot verify that it reaches the log", obj.Name())
		}
		// (3) hygiene: extra:logs must actually size or append a record —
		// a direct MaxRecord/PayloadSize mention somewhere below it, or a
		// delegation to other extra:logs plumbing. (logs[obj] is useless
		// here: Transitive seeds include themselves.)
		if fi.Ann.Logs && !sizes[obj] && !delegatesToLogs(fi, funcs, obj) {
			pass.Reportf(fi.Decl.Pos(), "%s is annotated extra:logs but never sizes a record against MaxRecord/PayloadSize nor reaches WAL plumbing; drop or fix the annotation", obj.Name())
		}
		if !fi.Ann.Mutates {
			continue
		}
		// (3) hygiene: extra:mutates must actually publish.
		if !commits[obj] {
			pass.Reportf(fi.Decl.Pos(), "%s is annotated extra:mutates but never reaches Store.Commit; drop or fix the annotation", obj.Name())
			continue
		}
		// (2) reach: the publication must be able to hit the log.
		if !logs[obj] {
			pass.Reportf(fi.Decl.Pos(), "%s publishes store state but never reaches a WAL append (no transitive call to an extra:logs function); when WAL is configured this mutation would be unrecoverable", obj.Name())
		}
	}
}

// delegatesToLogs reports whether a body calls a different function
// that is itself annotated extra:logs (the logRecords→Append shape).
func delegatesToLogs(fi *FuncInfo, funcs map[*types.Func]*FuncInfo, self *types.Func) bool {
	info := fi.Pkg.Info
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := StaticCallee(info, call); f != nil && f != self {
			if ci := funcs[f]; ci != nil && ci.Ann.Logs {
				found = true
			}
		}
		return true
	})
	return found
}

// commitCalls returns the positions where a function body calls a
// method named Commit on a store-typed receiver chain.
func commitCalls(fi *FuncInfo, stores map[*types.Named]bool) []token.Pos {
	info := fi.Pkg.Info
	var out []token.Pos
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Commit" {
			return true
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal &&
			isStoreType(s.Recv(), stores) {
			out = append(out, call.Pos())
		}
		return true
	})
	return out
}

// sizesRecord reports whether a body sizes a record directly: a use of
// a constant named MaxRecord, or a call to a function or method named
// PayloadSize.
func sizesRecord(fi *FuncInfo) bool {
	info := fi.Pkg.Info
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if _, isConst := info.Uses[x].(*types.Const); isConst && x.Name == "MaxRecord" {
				found = true
			}
		case *ast.CallExpr:
			if f := StaticCallee(info, x); f != nil && f.Name() == "PayloadSize" {
				found = true
			}
		}
		return !found
	})
	return found
}
