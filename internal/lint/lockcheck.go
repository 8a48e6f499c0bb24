package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockCheck enforces the annotation-driven lock discipline of the
// engine's concurrency contract (DESIGN.md §7):
//
//   - a struct field of type sync.Mutex or sync.RWMutex becomes a named
//     lock with "// extra:lock <name>" on the field;
//   - "// extra:requires <name>.R|W" on a function means callers must
//     hold that lock at that mode (W satisfies R);
//   - "// extra:acquires <name>.R|W" on a function means it takes and
//     releases the lock itself, so calling it while the lock is held is
//     a self-deadlock (sync mutexes are not reentrant);
//   - "// extra:holds <name>.R|W" is acquires for functions that return
//     with the lock still held (lockStatements hands the unlock back to
//     the caller): the same reentrancy rule, plus the lock counts as
//     held for the rest of the calling function;
//   - "// extra:dispatch <name> <classifier>" marks a statement
//     dispatcher (extra's Session.runStmt): inside type-switch arms
//     whose statement kinds are write-classified by sema.ReadOnly, the
//     lock is known to be held exclusively — that is the PR 3 invariant
//     that the database layer classifies every statement before taking
//     a side of the RWMutex. Read-classified arms stay at the shared
//     mode, so a mutation reachable from such an arm is reported.
//
// The checker is flow-approximate: acquisitions are tracked in source
// order within one function body (Lock/RLock calls, calls to
// extra:acquires functions), releases by non-deferred Unlock/RUnlock.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "callers of extra:requires functions must hold the declared lock",
	Run:  runLockCheck,
}

// StmtClass classifies every EXCESS statement kind the way
// sema.ReadOnly does at run time: "read" statements (a range
// declaration) run on a pinned snapshot with no lock, "write"
// statements under the commit lock, and "mixed" statements (retrieve,
// which is read-only unless it has an into clause) are classified
// dynamically. The sema
// package's exhaustiveness test asserts this table matches
// sema.ReadOnly and covers every ast.Statement implementation, so the
// static and dynamic classifications cannot drift apart silently.
var StmtClass = map[string]string{
	"Retrieve":        "mixed",
	"Append":          "write",
	"Delete":          "write",
	"Replace":         "write",
	"SetStmt":         "write",
	"Execute":         "write",
	"DefineType":      "write",
	"DefineEnum":      "write",
	"DefineFunction":  "write",
	"DefineProcedure": "write",
	"DefineIndex":     "write",
	"Create":          "write",
	"Drop":            "write",
	"RangeDecl":       "read",
	"Grant":           "write",
	"Revoke":          "write",
}

const (
	modeNone = 0
	modeR    = 1
	modeW    = 2
)

// parseLockRef splits "db.wmu.W" into ("db.wmu", modeW).
func parseLockRef(s string) (string, int, bool) {
	i := strings.LastIndex(s, ".")
	if i < 0 {
		return "", 0, false
	}
	switch s[i+1:] {
	case "R":
		return s[:i], modeR, true
	case "W":
		return s[:i], modeW, true
	}
	return "", 0, false
}

// lockTable maps struct-field objects to declared lock names.
type lockTable map[types.Object]string

// buildLockTable scans struct declarations for extra:lock annotations.
func buildLockTable(prog *Program) lockTable {
	lt := lockTable{}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					name := lockAnnotation(field.Doc)
					if name == "" {
						name = lockAnnotation(field.Comment)
					}
					if name == "" {
						continue
					}
					for _, id := range field.Names {
						if obj := pkg.Info.Defs[id]; obj != nil {
							lt[obj] = name
						}
					}
				}
				return true
			})
		}
	}
	return lt
}

func lockAnnotation(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	for _, c := range cg.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(line, "extra:lock"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// resolveLockExpr maps the receiver of a Lock/Unlock call (e.g. the
// `db.wmu` of `db.wmu.Lock()`) to its declared lock name.
func resolveLockExpr(lt lockTable, info *types.Info, e ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		if name, ok := lt[s.Obj()]; ok {
			return name, true
		}
	}
	return "", false
}

// lockEvent is one change to the held-locks state at a source position.
type lockEvent struct {
	pos  token.Pos
	lock string
	mode int // modeNone releases; otherwise sets the held mode
}

func runLockCheck(pass *Pass) {
	prog := pass.Prog
	lt := buildLockTable(prog)
	funcs := prog.Funcs()

	for _, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		info := fi.Pkg.Info

		// Base modes from the function's own requirements.
		base := map[string]int{}
		for _, r := range fi.Ann.Requires {
			lock, mode, ok := parseLockRef(r)
			if !ok {
				pass.Reportf(fi.Decl.Pos(), "malformed extra:requires annotation %q (want <lock>.R or <lock>.W)", r)
				continue
			}
			if mode > base[lock] {
				base[lock] = mode
			}
		}

		deferred := map[*ast.CallExpr]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred[d.Call] = true
			}
			return true
		})

		// Collect acquisition/release events in source order.
		var events []lockEvent
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if lock, isLock := resolveLockExpr(lt, info, sel.X); isLock {
					switch sel.Sel.Name {
					case "Lock", "TryLock":
						// TryLock is treated as an acquisition: the analysis
						// is flow-insensitive, and code guarded by a failed
						// TryLock branch must not rely on the lock anyway.
						events = append(events, lockEvent{call.Pos(), lock, modeW})
					case "RLock", "TryRLock":
						events = append(events, lockEvent{call.Pos(), lock, modeR})
					case "Unlock", "RUnlock":
						if !deferred[call] {
							events = append(events, lockEvent{call.Pos(), lock, modeNone})
						}
					}
					return true
				}
			}
			if callee := StaticCallee(info, call); callee != nil {
				if ci := funcs[callee]; ci != nil {
					// Only holds-annotated callees leave the lock held;
					// acquires-annotated ones released it before returning.
					for _, a := range ci.Ann.Holds {
						if lock, mode, ok := parseLockRef(a); ok && !deferred[call] {
							events = append(events, lockEvent{call.End(), lock, mode})
						}
					}
				}
			}
			return true
		})

		// Statement-dispatch arms: write-classified arms hold the lock
		// exclusively for the span of the arm body.
		if len(fi.Ann.Dispatch) >= 1 {
			lock := fi.Ann.Dispatch[0]
			events = append(events, dispatchEvents(pass, fi, lock, base[lock])...)
		}

		sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

		heldAt := func(pos token.Pos, lock string) int {
			mode := base[lock]
			for _, ev := range events {
				if ev.pos >= pos || ev.lock != lock {
					continue
				}
				m := ev.mode
				if m < base[lock] {
					m = base[lock] // a release cannot drop below the floor
				}
				mode = m
			}
			return mode
		}

		// Check each static call against its callee's annotations.
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := StaticCallee(info, call)
			if callee == nil {
				return true
			}
			ci := funcs[callee]
			if ci == nil {
				return true
			}
			for _, r := range ci.Ann.Requires {
				lock, mode, ok := parseLockRef(r)
				if !ok {
					continue
				}
				if held := heldAt(call.Pos(), lock); held < mode {
					pass.Reportf(call.Pos(), "call to %s requires %s.%s, but %s holds %s",
						callee.Name(), lock, modeName(mode), fi.Obj.Name(), heldName(held, lock))
				}
			}
			for _, a := range append(append([]string{}, ci.Ann.Acquires...), ci.Ann.Holds...) {
				lock, _, ok := parseLockRef(a)
				if !ok {
					continue
				}
				if held := heldAt(call.Pos(), lock); held > modeNone {
					pass.Reportf(call.Pos(), "call to %s acquires %s while %s already holds it (self-deadlock: sync locks are not reentrant)",
						callee.Name(), lock, fi.Obj.Name())
				}
			}
			return true
		})
	}
}

func modeName(m int) string {
	switch m {
	case modeR:
		return "R"
	case modeW:
		return "W"
	}
	return "nothing"
}

func heldName(m int, lock string) string {
	if m == modeNone {
		return "no lock"
	}
	return lock + "." + modeName(m)
}

// dispatchEvents implements the extra:dispatch annotation: inside
// type-switch arms over statement kinds that StmtClass marks "write",
// the named lock is held exclusively (the database layer classified the
// statement and took the lock before dispatching). It
// also cross-checks arm coverage against the classification table, so a
// new statement type cannot be dispatched without being classified.
func dispatchEvents(pass *Pass, fi *FuncInfo, lock string, baseMode int) []lockEvent {
	var events []lockEvent
	covered := map[string]bool{}
	sawSwitch := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		sawSwitch = true
		for _, stmt := range ts.Body.List {
			cc := stmt.(*ast.CaseClause)
			allWrite := len(cc.List) > 0
			for _, texpr := range cc.List {
				name := caseTypeName(texpr)
				covered[name] = true
				class, known := StmtClass[name]
				if !known {
					pass.Reportf(texpr.Pos(), "statement type %s is not classified in lint.StmtClass (update the table and sema.ReadOnly together)", name)
					allWrite = false
					continue
				}
				if class != "write" {
					allWrite = false
				}
			}
			if allWrite && len(cc.Body) > 0 {
				// Anchor at the case keyword, not the first body
				// statement: a call that IS the first statement must
				// still see the lock held.
				events = append(events,
					lockEvent{cc.Pos(), lock, modeW},
					lockEvent{cc.End(), lock, baseMode})
			}
		}
		return true
	})
	if sawSwitch {
		for name := range StmtClass {
			if !covered[name] {
				pass.Reportf(fi.Decl.Pos(), "statement dispatch in %s has no arm for classified statement type %s", fi.Obj.Name(), name)
			}
		}
	}
	return events
}

// caseTypeName extracts the bare type name of a type-switch case
// expression like *ast.Append.
func caseTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}
