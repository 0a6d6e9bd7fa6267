package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NilSink enforces the nil-sink discipline at emission sites: every
// call to (*obs.Sink).Emit outside internal/obs must be dominated by an
// `if sink != nil` check on the same receiver expression. Emit is
// nil-tolerant, but an unguarded call still constructs the Event
// argument on the disabled path; the guard keeps the cost of a machine
// built without observability to one predictable branch per site.
// The nil sink stays because vmpbench's experiments, the examples and
// the perf micros build machines without one.
//
// Helpers that centralize an emission and document that callers must
// guard (core's emitPhase) carry a suppression naming that contract.
var NilSink = &Analyzer{
	Name: "nilsink",
	Doc: "require every obs.Sink.Emit call site to be nil-guarded, preserving the " +
		"one-branch path of a machine built without observability",
	Run: runNilSink,
}

func runNilSink(pass *Pass) {
	const obsPkg = "vmp/internal/obs"
	if pass.Pkg.Path() == obsPkg {
		return // Emit itself implements the nil tolerance the guard relies on
	}
	for _, file := range pass.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Emit" {
				return true
			}
			tv, ok := pass.Info.Types[sel.X]
			if !ok || !isNamed(tv.Type, obsPkg, "Sink") {
				return true
			}
			recv := types.ExprString(sel.X)
			if !nilGuarded(stack, n, recv) {
				pass.Reportf(call.Pos(),
					"obs emit on %s is not nil-guarded; wrap the call site in `if %s != nil` to keep the one-branch disabled path",
					recv, recv)
			}
			return true
		})
	}
}

// nilGuarded reports whether the node at the top of stack+node is
// dominated by a nil check of recv within its innermost enclosing
// function: an enclosing `if recv != nil` then-branch, an enclosing
// `if recv == nil` else-branch, or an earlier `if recv == nil {
// return/continue/break/panic }` in a surrounding block.
func nilGuarded(stack []ast.Node, node ast.Node, recv string) bool {
	nodes := append(append([]ast.Node{}, stack...), node)
	// Guards outside the innermost function literal do not dominate
	// the call at run time (the closure may execute later, after the
	// receiver changed), so only look inside it.
	_, fnIdx := enclosingFunc(nodes[:len(nodes)-1])
	if fnIdx < 0 {
		fnIdx = 0
	}
	for i := fnIdx; i < len(nodes)-1; i++ {
		child := nodes[i+1]
		switch n := nodes[i].(type) {
		case *ast.IfStmt:
			if child == n.Body && condImpliesNonNil(n.Cond, recv) {
				return true
			}
			if child == n.Else && condImpliesNil(n.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			for _, st := range n.List {
				if st == child {
					break
				}
				if earlyNilExit(st, recv) {
					return true
				}
			}
		}
	}
	return false
}

// condImpliesNonNil reports whether cond being true guarantees
// recv != nil (a direct comparison, possibly under &&).
func condImpliesNonNil(cond ast.Expr, recv string) bool {
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.LAND:
		return condImpliesNonNil(b.X, recv) || condImpliesNonNil(b.Y, recv)
	case token.NEQ:
		return comparesRecvToNil(b, recv)
	}
	return false
}

// condImpliesNil reports whether cond being false (taking the else
// branch of `if recv == nil`) guarantees recv != nil.
func condImpliesNil(cond ast.Expr, recv string) bool {
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	return b.Op == token.EQL && comparesRecvToNil(b, recv)
}

// comparesRecvToNil reports whether b compares recv against nil.
func comparesRecvToNil(b *ast.BinaryExpr, recv string) bool {
	if isNilIdent(b.Y) && types.ExprString(unparen(b.X)) == recv {
		return true
	}
	return isNilIdent(b.X) && types.ExprString(unparen(b.Y)) == recv
}

// earlyNilExit matches `if recv == nil { return ... }` (or continue,
// break, or a panic call) with no else branch.
func earlyNilExit(st ast.Stmt, recv string) bool {
	ifs, ok := st.(*ast.IfStmt)
	if !ok || ifs.Else != nil || ifs.Init != nil || !condImpliesNil(ifs.Cond, recv) {
		return false
	}
	if len(ifs.Body.List) == 0 {
		return false
	}
	switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.CONTINUE || last.Tok == token.BREAK || last.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
