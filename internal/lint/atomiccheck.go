package lint

import (
	"go/ast"
	"go/types"
)

// AtomicCheck bans the function-style sync/atomic ops
// (atomic.AddUint64(&x.f, 1), atomic.LoadInt64(&v), ...). A variable
// reached through them can still be read or written plainly elsewhere,
// where a torn or stale value goes unseen unless a race test happens
// on the interleaving, and a 64-bit one is only 8-byte aligned on a
// 32-bit platform when the fields before it keep it so. The typed
// wrappers (atomic.Uint64, atomic.Int64, atomic.Pointer, ...) have
// neither fault: their value is reached only through their methods,
// and they carry their own alignment. The engine uses them alone.
var AtomicCheck = &Analyzer{
	Name: "atomiccheck",
	Doc:  "function-style sync/atomic calls are banned; use the typed wrappers",
	Run:  runAtomicCheck,
}

func runAtomicCheck(pass *Pass) {
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := StaticCallee(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				pass.Reportf(call.Pos(), "atomic.%s is a function-style sync/atomic op; use the typed wrapper", fn.Name())
				return true
			})
		}
	}
}
