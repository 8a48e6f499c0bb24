package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapCheck mechanizes the MVCC pinned-read contract (DESIGN.md §12):
// a read statement binds an immutable snapshot — data, catalog and
// grants — and executes lock-free against it. Nothing reachable from
// that execution may mutate the store or the catalog, serialize on the
// commit lock, or read the live store (whose extents and working
// catalog a concurrent writer is editing) instead of the bound
// snapshot.
//
// "// extra:snapshot" marks the roots: the functions that pin a
// snapshot (the State.BindSnapshot consumers plus Dump, which pins via
// Store.Snapshot directly). The analyzer floods the static call graph
// from those roots and reports, at the offending call or acquisition:
//
//   - any acquisition of the commit lock db.wmu;
//   - any call into write context: a callee whose requires, acquires
//     or holds annotation names that lock (publish, the one
//     publication point, requires it) — such callees are boundaries,
//     reported at the edge and not descended into;
//   - any direct mutation of a store, the catalog and the grant table
//     included (scanStoreAccess);
//   - any call to a live-store method other than the versioned
//     allowlist (Snapshot, Version): an un-versioned read of
//     live state from snapshot context is exactly the stale-read bug
//     MVCC exists to prevent. The working catalog is reached only
//     through such a method (Store.Catalog), so a read of it is caught
//     here too; the frozen catalog comes from Snapshot.Catalog.
//
// Two hygiene rules keep the annotation honest: every function that
// calls BindSnapshot must carry extra:snapshot (so new read paths
// cannot dodge the check), and every extra:snapshot function must
// actually bind or take a snapshot.
var SnapCheck = &Analyzer{
	Name: "snapcheck",
	Doc:  "code reachable from a pinned-read window must not mutate, lock for write, or read the live store",
	Run:  runSnapCheck,
}

// snapForbidden maps lock names to the weakest acquisition mode that is
// illegal from snapshot context. The names follow the engine's
// extra:lock vocabulary: db.wmu is the commit lock, and any acquisition
// serializes reads behind writers.
var snapForbidden = map[string]int{
	"db.wmu": modeR,
}

// snapStoreAllow are live-store methods legal from snapshot context:
// taking the snapshot itself, and reading the published snapshot's
// version.
var snapStoreAllow = map[string]bool{
	"Snapshot": true, "Version": true,
}

func runSnapCheck(pass *Pass) {
	prog := pass.Prog
	stores := storeTypes(prog)
	snapStores := snapshottableStores(prog, stores)
	lt := buildLockTable(prog)
	funcs := prog.Funcs()

	// annForbidden reports whether a function's lock annotations place
	// it in write context (and names the first offending annotation).
	annForbidden := func(fi *FuncInfo) (string, bool) {
		for _, group := range [][]string{fi.Ann.Requires, fi.Ann.Acquires, fi.Ann.Holds} {
			for _, ref := range group {
				lock, mode, ok := parseLockRef(ref)
				if !ok {
					continue
				}
				if min, bad := snapForbidden[lock]; bad && mode >= min {
					return lock + "." + modeName(mode), true
				}
			}
		}
		return "", false
	}

	// Hygiene: BindSnapshot callers must be annotated roots, and roots
	// must actually pin.
	for obj, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		bindPos, snapPos := pinCalls(fi, stores)
		if obj.Name() != "BindSnapshot" && bindPos.IsValid() && !fi.Ann.Snapshot {
			pass.Reportf(bindPos, "%s binds a snapshot but is not annotated extra:snapshot; snapcheck verifies the pinned-read contract from annotated roots", obj.Name())
		}
		if fi.Ann.Snapshot && !bindPos.IsValid() && !snapPos.IsValid() {
			pass.Reportf(fi.Decl.Pos(), "%s is annotated extra:snapshot but never binds or takes a store snapshot; drop or fix the annotation", obj.Name())
		}
	}

	// Flood from the roots. Boundaries (write-context callees) stop the
	// walk; the edge into them is the violation.
	var queue []*types.Func
	visited := map[*types.Func]bool{}
	enqueue := func(f *types.Func) {
		if f != nil && !visited[f] {
			visited[f] = true
			queue = append(queue, f)
		}
	}
	for obj, fi := range funcs {
		if fi.Ann.Snapshot {
			enqueue(obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		fi := funcs[obj]
		if fi == nil || fi.Decl.Body == nil {
			continue
		}
		info := fi.Pkg.Info

		// Direct mutations inside snapshot context.
		if mut := scanStoreAccess(fi, stores); len(mut) > 0 {
			pass.Reportf(mut[0], "%s mutates store state in snapshot context; pinned reads must leave the store untouched", obj.Name())
		}

		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Direct forbidden-lock acquisition.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if lock, isLock := resolveLockExpr(lt, info, sel.X); isLock {
					mode := modeNone
					switch sel.Sel.Name {
					case "Lock", "TryLock":
						mode = modeW
					case "RLock", "TryRLock":
						mode = modeR
					}
					if min, bad := snapForbidden[lock]; bad && mode >= min && mode != modeNone {
						pass.Reportf(call.Pos(), "%s acquires %s.%s in snapshot context; pinned reads execute lock-free against the bound snapshot", obj.Name(), lock, modeName(mode))
					}
					return true
				}
			}
			callee := StaticCallee(info, call)
			if callee == nil {
				return true
			}
			if ci := funcs[callee]; ci != nil {
				if ref, bad := annForbidden(ci); bad {
					pass.Reportf(call.Pos(), "%s calls %s from snapshot context, which needs %s; write context is unreachable from a pinned read", obj.Name(), callee.Name(), ref)
					return true // boundary: do not descend
				}
			}
			// Live-store reads outside the versioned allowlist. Only
			// stores that offer snapshots count: the catalog a pinned
			// read holds is its snapshot's own, frozen one.
			if recv := callee.Type().(*types.Signature).Recv(); recv != nil &&
				isStoreType(recv.Type(), snapStores) && !snapStoreAllow[callee.Name()] {
				pass.Reportf(call.Pos(), "%s calls (%s).%s on the live store from snapshot context; read through the pinned Snapshot instead", obj.Name(), recv.Type().String(), callee.Name())
				return true
			}
			enqueue(callee)
			return true
		})
	}
}

// snapshottableStores narrows the store set to the types that expose a
// Snapshot method — the only stores the "read through the pinned
// Snapshot" rule can meaningfully apply to.
func snapshottableStores(prog *Program, stores map[*types.Named]bool) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	for obj := range prog.Funcs() {
		if obj.Name() != "Snapshot" {
			continue
		}
		sig := obj.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		if n := namedOf(sig.Recv().Type()); n != nil && stores[n] {
			out[n] = true
		}
	}
	return out
}

// pinCalls returns the position of the first BindSnapshot call and the
// first Snapshot-method call on a store in a body (NoPos when absent).
func pinCalls(fi *FuncInfo, stores map[*types.Named]bool) (bind, snap token.Pos) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := StaticCallee(info, call)
		if callee == nil {
			return true
		}
		switch callee.Name() {
		case "BindSnapshot":
			if !bind.IsValid() {
				bind = call.Pos()
			}
		case "Snapshot":
			if recv := callee.Type().(*types.Signature).Recv(); recv != nil && isStoreType(recv.Type(), stores) {
				if !snap.IsValid() {
					snap = call.Pos()
				}
			}
		}
		return true
	})
	return bind, snap
}

// storeTypes finds the stores: the named types that publish state (a
// Commit method: the object store) or count their edits (a bump method:
// the catalog and its grant table).
func storeTypes(prog *Program) map[*types.Named]bool {
	set := map[*types.Named]bool{}
	for obj := range prog.Funcs() {
		sig := obj.Type().(*types.Signature)
		if sig.Recv() == nil || (obj.Name() != "Commit" && obj.Name() != "bump") {
			continue
		}
		if n := namedOf(sig.Recv().Type()); n != nil {
			set[n] = true
		}
	}
	return set
}

// mutatingMethods are method names that mutate their receiver when the
// receiver chain is rooted in a store (heap-file Insert/Update/Delete,
// tuple Set, DropAll).
var mutatingMethods = map[string]bool{
	"Insert": true, "Update": true, "Delete": true, "Set": true, "DropAll": true,
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
// where it directly mutates store state: an assignment or delete
// through a store-rooted selector chain (s.extents[n] = x,
// delete(s.varVals, n)), a mutating method call on a store-rooted
// receiver, or a write through a local that aliases store state (so,
// ok := s.objs[id]; so.owner = ...). Locals that alias store internals
// (lookups from store maps, s := db.store rebindings) are tracked so
// writes through them count; stores constructed locally are exempt.
func scanStoreAccess(fi *FuncInfo, stores map[*types.Named]bool) (mutates []token.Pos) {
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
			if mutatingMethods[sel.Sel.Name] && storeRooted(sel.X) {
				// Only method calls (field-val receivers), not calls
				// to store-typed function fields.
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					mutates = append(mutates, x.Pos())
				}
			}
		}
		return true
	})
	return mutates
}
