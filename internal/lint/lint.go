// Package lint is the home of extravet, the engine's static-analysis
// suite. It provides a small go/analysis-style framework built entirely
// on the standard library (go/ast, go/types and `go list` export data —
// golang.org/x/tools is deliberately not a dependency) plus four
// analyzers that encode the engine's concurrency and determinism
// invariants:
//
//   - lockcheck: annotation-driven lock discipline for the DB's
//     readers-writer statement lock and the engine's side locks;
//   - atomiccheck: fields touched through sync/atomic must never be
//     accessed with plain loads or stores, and 64-bit function-style
//     atomics must be alignment-safe;
//   - detorder: user-visible output paths (dump, explain, catalog
//     listings, metrics snapshots, the store fsck) must not iterate a
//     map without establishing an order;
//   - verbump: every mutation of stored object/tuple state must be
//     paired with a Store.Version bump, so every published snapshot is
//     stamped with a version no other state of the store carries;
//   - walcheck: every function that publishes store state (calls
//     Store.Commit) must be annotated extra:mutates, must transitively
//     reach a WAL append (an extra:logs function), and must size its
//     record against wal.MaxRecord before the first mutation — the
//     no-rollback contract of DESIGN.md §13;
//   - snapcheck: functions annotated extra:snapshot open a pinned-read
//     window; nothing reachable from them may mutate the store, acquire
//     the commit lock (or the statement lock exclusively), or read the
//     live store instead of the bound snapshot;
//   - spanleak: trace span Start and sync.Pool Get must be paired with
//     EndSpan/EndPhase/Put on every return path, protecting the
//     zero-alloc tracing substrate and the executor pools.
//
// Analyzers run over a whole Program (every package of the main module
// in the dependency closure of the requested patterns), so facts like
// "this function transitively bumps the store version" cross package
// boundaries without a facts-serialization protocol.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Analyzer is one named invariant checker.
type Analyzer struct {
	Name string // command-line name, e.g. "lockcheck"
	Doc  string // one-line description
	Run  func(*Pass)
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass gives an analyzer the loaded program and a report sink.
type Pass struct {
	Prog   *Program
	Name   string
	sink   func(Diagnostic)
	report map[*Package]bool // packages whose findings are reported
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.sink(Diagnostic{Pos: pos, Analyzer: p.Name, Message: fmt.Sprintf(format, args...)})
}

// Package is one source-loaded, type-checked package of the program.
type Package struct {
	Path  string
	Types *types.Package
	Info  *types.Info
	Files []*ast.File
}

// Program is the unit of analysis: every main-module package in the
// dependency closure of the load patterns, type-checked from source.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package // dependency order (dependencies first)

	funcs map[*types.Func]*FuncInfo
	byPkg map[*types.Package]*Package
}

// FuncInfo pairs a function object with its declaration and parsed
// annotations.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Ann  Annotations
}

// Annotations are the extra: markers parsed from a doc comment. Each is
// a whitespace-split argument list; e.g. "// extra:requires db.mu.W"
// yields Requires == []string{"db.mu.W"}.
type Annotations struct {
	Requires []string // extra:requires <lock>.<R|W> — caller must hold
	Acquires []string // extra:acquires <lock>.<R|W> — taken AND released inside
	Holds    []string // extra:holds <lock>.<R|W> — taken inside, still held on return
	Bumps    bool     // extra:bumps — guarantees a store-version bump
	Output   bool     // extra:output — root of a user-visible output path
	Dispatch []string // extra:dispatch <lock> <classifier> — stmt dispatch
	Logs     bool     // extra:logs — sizes and/or appends the WAL record
	Mutates  bool     // extra:mutates — publishes store state (Store.Commit)
	Snapshot bool     // extra:snapshot — root of a pinned-read window
}

// parseAnnotations extracts extra: markers from a comment group.
func parseAnnotations(doc *ast.CommentGroup) Annotations {
	var a Annotations
	if doc == nil {
		return a
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(line, "extra:") {
			continue
		}
		fields := strings.Fields(line)
		verb := strings.TrimPrefix(fields[0], "extra:")
		args := fields[1:]
		switch verb {
		case "requires":
			a.Requires = append(a.Requires, args...)
		case "acquires":
			a.Acquires = append(a.Acquires, args...)
		case "holds":
			a.Holds = append(a.Holds, args...)
		case "bumps":
			a.Bumps = true
		case "output":
			a.Output = true
		case "dispatch":
			a.Dispatch = args
		case "logs":
			a.Logs = true
		case "mutates":
			a.Mutates = true
		case "snapshot":
			a.Snapshot = true
		}
	}
	return a
}

// Funcs returns the program-wide function table, built on first use.
func (prog *Program) Funcs() map[*types.Func]*FuncInfo {
	if prog.funcs != nil {
		return prog.funcs
	}
	prog.funcs = make(map[*types.Func]*FuncInfo)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				prog.funcs[obj] = &FuncInfo{
					Obj:  obj,
					Decl: fd,
					Pkg:  pkg,
					Ann:  parseAnnotations(fd.Doc),
				}
			}
		}
	}
	return prog.funcs
}

// PackageOf returns the loaded package owning a types.Package, or nil.
func (prog *Program) PackageOf(tp *types.Package) *Package {
	if prog.byPkg == nil {
		prog.byPkg = make(map[*types.Package]*Package, len(prog.Pkgs))
		for _, p := range prog.Pkgs {
			prog.byPkg[p.Types] = p
		}
	}
	return prog.byPkg[tp]
}

// StaticCallee resolves a call expression to the named function or
// method it invokes, or nil for dynamic calls (function values,
// interface dispatch) and builtins.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	if f == nil {
		f, _ = info.Defs[id].(*types.Func)
	}
	return f
}

// CallGraph maps every declared function to the functions it calls
// (static calls only, including calls made inside function literals
// nested in its body — closures are attributed to the enclosing
// declaration).
func (prog *Program) CallGraph() map[*types.Func][]*types.Func {
	funcs := prog.Funcs()
	g := make(map[*types.Func][]*types.Func, len(funcs))
	for obj, fi := range funcs {
		if fi.Decl.Body == nil {
			continue
		}
		var out []*types.Func
		seen := map[*types.Func]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := StaticCallee(fi.Pkg.Info, call); callee != nil && !seen[callee] {
				seen[callee] = true
				out = append(out, callee)
			}
			return true
		})
		g[obj] = out
	}
	return g
}

// Transitive computes the set of functions from which a function in
// `hits` is reachable through the call graph — "does F transitively
// call something that X?" for every F at once. It flood-fills the
// reversed graph from the hit set, which handles call cycles (mutual
// recursion through eval) without the unsound "visiting means no"
// shortcut a naive memoized DFS would take.
func Transitive(g map[*types.Func][]*types.Func, hits func(*types.Func) bool) map[*types.Func]bool {
	rev := make(map[*types.Func][]*types.Func)
	for f, callees := range g {
		for _, c := range callees {
			rev[c] = append(rev[c], f)
		}
	}
	out := make(map[*types.Func]bool)
	var queue []*types.Func
	add := func(f *types.Func) {
		if !out[f] {
			out[f] = true
			queue = append(queue, f)
		}
	}
	for f := range g {
		if hits(f) {
			add(f)
		}
	}
	for f := range rev { // hit nodes that only appear as callees
		if hits(f) {
			add(f)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, caller := range rev[f] {
			add(caller)
		}
	}
	return out
}

// AnalyzerTime is the wall time one analyzer took over the program,
// for the CI budget report.
type AnalyzerTime struct {
	Name    string
	Elapsed time.Duration
}

// Run executes the analyzers over the program, reporting diagnostics
// whose position lies in one of the packages matched by reportPaths
// (all loaded packages when reportPaths is nil). Diagnostics suppressed
// with a "//extravet:ignore <name>" comment on the same or preceding
// line are dropped. Results come back sorted by file, line and column,
// with per-analyzer wall times alongside.
func Run(prog *Program, analyzers []*Analyzer, reportPaths []string) ([]Diagnostic, []AnalyzerTime) {
	reportAll := reportPaths == nil
	report := make(map[string]bool, len(reportPaths))
	for _, p := range reportPaths {
		report[p] = true
	}
	// Positions eligible for reporting: files of reported packages.
	inScope := make(map[*token.File]*Package)
	ignores := make(map[*token.File]map[int]map[string]bool) // file -> line -> analyzers
	for _, pkg := range prog.Pkgs {
		if !reportAll && !report[pkg.Path] {
			continue
		}
		for _, f := range pkg.Files {
			tf := prog.Fset.File(f.Pos())
			inScope[tf] = pkg
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, "extravet:ignore") {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, "extravet:ignore"))
					line := prog.Fset.Position(c.Pos()).Line
					m := ignores[tf]
					if m == nil {
						m = make(map[int]map[string]bool)
						ignores[tf] = m
					}
					set := map[string]bool{}
					for _, name := range fields {
						set[name] = true
						if strings.HasPrefix(name, "(") {
							break // rest is a justification comment
						}
					}
					m[line] = set
				}
			}
		}
	}
	var out []Diagnostic
	var times []AnalyzerTime
	seen := map[string]bool{}
	for _, a := range analyzers {
		start := time.Now()
		pass := &Pass{
			Prog: prog,
			Name: a.Name,
			sink: func(d Diagnostic) {
				tf := prog.Fset.File(d.Pos)
				pkg, ok := inScope[tf]
				if !ok || pkg == nil {
					return
				}
				line := prog.Fset.Position(d.Pos).Line
				if m := ignores[tf]; m != nil {
					for _, l := range []int{line, line - 1} {
						if set := m[l]; set != nil && (set[d.Analyzer] || len(set) == 0) {
							return
						}
					}
				}
				key := fmt.Sprintf("%s|%s|%s", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
				if seen[key] {
					return
				}
				seen[key] = true
				out = append(out, d)
			},
		}
		a.Run(pass)
		times = append(times, AnalyzerTime{Name: a.Name, Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := prog.Fset.Position(out[i].Pos), prog.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return out[i].Message < out[j].Message
	})
	return out, times
}

// Analyzers returns the full extravet suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockCheck, AtomicCheck, DetOrder, VerBump, WalCheck, SnapCheck, SpanLeak}
}
