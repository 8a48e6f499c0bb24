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
//   - any call into write context: a callee annotated
//     extra:requires/acquires/holds on that lock, or annotated
//     extra:mutates (a publication point) — such callees are
//     boundaries, reported at the edge and not descended into;
//   - any direct mutation of a version-bearing store, the catalog and
//     the grant table included (the verbump write scan);
//   - any call to a live-store method other than the versioned
//     allowlist (Snapshot, Version, Pool): an un-versioned read of
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
// taking the snapshot itself, reading the version counter a versioned
// cache keys on, and reaching the buffer pool for stats.
var snapStoreAllow = map[string]bool{
	"Snapshot": true, "Version": true, "Pool": true,
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
		if mut, _ := scanStoreAccess(fi, stores); len(mut) > 0 {
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
			ci := funcs[callee]
			if ci != nil {
				if ref, bad := annForbidden(ci); bad {
					pass.Reportf(call.Pos(), "%s calls %s from snapshot context, which needs %s; write context is unreachable from a pinned read", obj.Name(), callee.Name(), ref)
					return true // boundary: do not descend
				}
				if ci.Ann.Mutates {
					pass.Reportf(call.Pos(), "%s calls %s from snapshot context, which publishes store mutations (extra:mutates)", obj.Name(), callee.Name())
					return true // boundary
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

// snapshottableStores narrows the version-bearing store set to the
// types that expose a Snapshot method — the only stores the "read
// through the pinned Snapshot" rule can meaningfully apply to.
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
