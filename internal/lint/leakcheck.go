package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LeakCheck requires every spawned goroutine to carry a recognizable
// join signal, so nothing outlives the work that spawned it
// unobserved. A goroutine body counts as joined when it contains at
// least one of:
//
//   - a sync.WaitGroup Done call (the worker-pool shape in
//     scenario.Sweep and the experiments runner);
//   - a close(ch) — typically `defer close(done)` — signalling
//     completion to a receiver on all exits;
//   - a final-statement channel send (the result-handoff shape of
//     vmpd's ListenAndServe error channel);
//   - a receive from a Done() call, plain or in a select case (the
//     ctx-cancellation shape of serve's runner);
//   - a receive from a channel that the spawning function closes (the
//     `done := make(...)` / `defer close(done)` shape of serve's
//     waitEvents watcher).
//
// Goroutines whose body cannot be seen — a function value, or a callee
// outside the package — are reported too: an unanalyzable spawn is an
// unprovable one. Genuine process-lifetime goroutines carry a
// //vmplint:allow leakcheck suppression stating so.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc: "every goroutine must carry a join signal (WaitGroup.Done, completion close/send, " +
		"or a Done()-receive); unanalyzable spawn targets are reported as unprovable",
	Run: runLeakCheck,
}

func runLeakCheck(pass *Pass) {
	funcs := packageFuncs(pass.Files)
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, fd := range funcs {
		if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			decls[obj] = fd
		}
	}
	for _, fd := range funcs {
		closed := closedChans(pass.Info, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			default:
				if callee := calleeFunc(pass.Info, g.Call); callee != nil {
					if fd, ok := decls[callee]; ok {
						body = fd.Body
					}
				}
			}
			switch {
			case body == nil:
				pass.Reportf(g.Pos(),
					"goroutine target is not analyzable in this package; cannot prove it is joined")
			case !goroutineJoined(pass.Info, body, closed):
				pass.Reportf(g.Pos(),
					"goroutine has no join signal (WaitGroup.Done, completion close/send, or Done()-receive); it can leak")
			}
			return true
		})
	}
}

// closedChans collects the channel objects the function closes
// anywhere (including `defer close(done)`): a goroutine receiving from
// one of them is joined by the spawner's exit path.
func closedChans(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "close" {
			return true
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		if arg, ok := unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := info.Uses[arg]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// goroutineJoined reports whether body contains one of the recognized
// join signals. Nested function literals are searched too: completion
// signals commonly live inside deferred cleanup closures.
func goroutineJoined(info *types.Info, body *ast.BlockStmt, spawnerClosed map[types.Object]bool) bool {
	if n := len(body.List); n > 0 {
		if _, ok := body.List[n-1].(*ast.SendStmt); ok {
			return true // result handoff: the spawner receives to join
		}
	}
	joined := false
	ast.Inspect(body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch nn := n.(type) {
		case *ast.CallExpr:
			switch fun := unparen(nn.Fun).(type) {
			case *ast.Ident:
				if _, isBuiltin := info.Uses[fun].(*types.Builtin); isBuiltin && fun.Name == "close" {
					joined = true
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" {
					if tv, ok := info.Types[fun.X]; ok && isNamed(tv.Type, "sync", "WaitGroup") {
						joined = true
					}
				}
			}
		case *ast.UnaryExpr:
			// <-x.Done(): context-style cancellation, plain or inside a
			// select case; or a receive from a channel the spawner
			// closes.
			if nn.Op == token.ARROW {
				switch x := unparen(nn.X).(type) {
				case *ast.CallExpr:
					if sel, ok := unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
						joined = true
					}
				case *ast.Ident:
					if obj := info.Uses[x]; obj != nil && spawnerClosed[obj] {
						joined = true
					}
				}
			}
		}
		return true
	})
	return joined
}
