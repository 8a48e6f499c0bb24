package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// VerBump enforces the version contract of snapshot publication: every
// mutation of stored object/tuple state must be paired with a bump of
// Store.Version, because Commit stamps each published snapshot with that
// counter and a snapshot's version is how a statement trace and a test
// name the state a reader saw. A mutation that skips the bump lets two
// different states share one version with no error anywhere.
//
// The analyzer discovers "version-bearing stores" structurally: a named
// struct type with a bump() method or an atomic version field. It then
// computes two whole-program facts over the call graph:
//
//   - mutates: the function writes store state directly — an assignment
//     or delete through a store-rooted selector chain (s.omap[id] = x,
//     delete(s.vars, n)), a mutating method call (Insert, Update,
//     Delete, Set, DropAll) on a store-rooted receiver, or a write
//     through a local that aliases store state (info, ok := s.omap[id];
//     info.owner = ...) — or calls something that does;
//   - bumps: the function calls bump()/version.Add on a store, is
//     annotated "// extra:bumps", or calls something that does.
//
// Every exported function that transitively mutates must transitively
// bump. Unexported helpers may rely on their callers (claim/createOwned
// bump at the Internalize entry point), but an exported entry point
// with no bump anywhere below it is exactly the Release-style bug this
// analyzer exists to catch. Writes to a store constructed locally in
// the same function (constructors) are exempt: nothing can have observed
// a version of a store that has not escaped yet.
var VerBump = &Analyzer{
	Name: "verbump",
	Doc:  "exported functions that mutate store state must bump Store.Version",
	Run:  runVerBump,
}

// mutatingMethods are method names that mutate their receiver when the
// receiver chain is rooted in a store (heap-file Insert/Update/Delete,
// tuple Set, DropAll).
var mutatingMethods = map[string]bool{
	"Insert": true, "Update": true, "Delete": true, "Set": true, "DropAll": true,
}

func runVerBump(pass *Pass) {
	prog := pass.Prog
	stores := storeTypes(prog)
	if len(stores) == 0 {
		return
	}
	funcs := prog.Funcs()

	directMut := map[*types.Func]bool{}
	directBump := map[*types.Func]bool{}
	for obj, fi := range funcs {
		if fi.Ann.Bumps {
			directBump[obj] = true
		}
		if fi.Decl.Body == nil {
			continue
		}
		mut, bump := scanStoreAccess(fi, stores)
		if len(mut) > 0 {
			directMut[obj] = true
		}
		if bump {
			directBump[obj] = true
		}
	}

	graph := prog.CallGraph()
	mutates := Transitive(graph, func(f *types.Func) bool { return directMut[f] })
	bumps := Transitive(graph, func(f *types.Func) bool { return directBump[f] })

	for obj, fi := range funcs {
		if !obj.Exported() || !mutates[obj] || bumps[obj] {
			continue
		}
		pass.Reportf(fi.Decl.Pos(), "exported %s mutates store state but never bumps Store.Version, so two store states can publish under one version; add a bump() call or annotate the true bump site with extra:bumps", obj.Name())
	}
}

// storeTypes finds named struct types that carry a version counter: a
// bump() method, or a field named version with a sync/atomic type.
func storeTypes(prog *Program) map[*types.Named]bool {
	set := map[*types.Named]bool{}
	for obj := range prog.Funcs() {
		if obj.Name() != "bump" {
			continue
		}
		sig := obj.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		if n := namedOf(sig.Recv().Type()); n != nil {
			set[n] = true
		}
	}
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := n.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() != "version" {
					continue
				}
				if fn := namedOf(f.Type()); fn != nil && fn.Obj().Pkg() != nil && fn.Obj().Pkg().Path() == "sync/atomic" {
					set[n] = true
				}
			}
		}
	}
	return set
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func isStoreType(t types.Type, stores map[*types.Named]bool) bool {
	if t == nil {
		return false
	}
	n := namedOf(t)
	return n != nil && stores[n]
}

// scanStoreAccess walks one function body and reports the positions
// where it directly mutates store state and whether it directly bumps a
// store version. Locals that alias store internals (lookups from store
// maps, s := db.store rebindings) are tracked so writes through them
// count; stores constructed locally are exempt.
func scanStoreAccess(fi *FuncInfo, stores map[*types.Named]bool) (mutates []token.Pos, bumps bool) {
	info := fi.Pkg.Info

	local := map[types.Object]bool{}   // defined in this body, not store-derived
	derived := map[types.Object]bool{} // aliases store state

	// storeRooted reports whether the selector/index chain of e passes
	// through store state that did not originate in this function: a
	// store-typed prefix rooted outside the body, or a derived local.
	var storeRooted func(e ast.Expr) bool
	storeRooted = func(e ast.Expr) bool {
		for {
			e = ast.Unparen(e)
			switch x := e.(type) {
			case *ast.Ident:
				obj := objOf(info, x)
				if obj == nil {
					return false
				}
				if derived[obj] {
					return true
				}
				return isStoreType(obj.Type(), stores) && !local[obj]
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return false
			}
		}
	}

	markDefined := func(e ast.Expr, rhs ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		if rhs != nil && storeRooted(rhs) {
			// Aliases store state only when the binding shares memory
			// with the store: a pointer, a map, a slice, or the store
			// itself. Value copies are the caller's own.
			switch obj.Type().Underlying().(type) {
			case *types.Pointer, *types.Map, *types.Slice:
				derived[obj] = true
				return
			default:
				if isStoreType(obj.Type(), stores) {
					derived[obj] = true
					return
				}
			}
		}
		local[obj] = true
	}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				for i, lhs := range x.Lhs {
					var rhs ast.Expr
					if len(x.Rhs) == len(x.Lhs) {
						rhs = x.Rhs[i]
					} else if len(x.Rhs) == 1 && i == 0 {
						rhs = x.Rhs[0] // v, ok := m[k]
					}
					markDefined(lhs, rhs)
				}
				return true
			}
			for _, lhs := range x.Lhs {
				if _, isIdent := ast.Unparen(lhs).(*ast.Ident); isIdent {
					continue // rebinding a local, not a store write
				}
				if storeRooted(lhs) {
					mutates = append(mutates, lhs.Pos())
				}
			}
		case *ast.RangeStmt:
			if x.Tok == token.DEFINE {
				markDefined(x.Key, nil)
				markDefined(x.Value, x.X)
			}
		case *ast.IncDecStmt:
			if _, isIdent := ast.Unparen(x.X).(*ast.Ident); !isIdent && storeRooted(x.X) {
				mutates = append(mutates, x.Pos())
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "delete" && len(x.Args) > 0 {
				if storeRooted(x.Args[0]) {
					mutates = append(mutates, x.Pos())
				}
				return true
			}
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "bump":
				if storeRooted(sel.X) {
					bumps = true
				}
			case "Add", "Store", "Swap", "CompareAndSwap":
				// s.version.Add(1) — the atomic counter on a store.
				if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok &&
					inner.Sel.Name == "version" && storeRooted(inner.X) {
					bumps = true
				}
			default:
				if mutatingMethods[sel.Sel.Name] && storeRooted(sel.X) {
					// Only method calls (field-val receivers), not calls
					// to store-typed function fields.
					if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
						mutates = append(mutates, x.Pos())
					}
				}
			}
		}
		return true
	})
	return mutates, bumps
}
