package lint

import (
	"go/ast"
	"go/types"
)

// AtomicCheck requires typed atomics: every use of a package-level
// sync/atomic function (atomic.AddUint64, atomic.LoadPointer, ...) is a
// finding, whether called or taken as a function value. Those functions
// operate on a plain word, and nothing stops other code from reading or
// writing the same word plainly — a data race the race detector catches
// only on the interleavings a run happens to produce. A typed atomic
// (atomic.Int64, atomic.Pointer[T], ...) is accessible only through its
// methods, so the compiler rejects the plain access; its methods are
// allowed.
var AtomicCheck = &Analyzer{
	Name: "atomiccheck",
	Doc: "use typed atomics (atomic.Int64, atomic.Uint64, ...): a package-level sync/atomic " +
		"function operates on a plain word that other code can still access plainly",
	Run: runAtomicCheck,
}

func runAtomicCheck(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" ||
				fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(id.Pos(),
				"sync/atomic.%s operates on a plain word; use a typed atomic so a plain access cannot compile",
				fn.Name())
			return true
		})
	}
}
