package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DetSrc is the determinism-taint analyzer: values derived from
// nondeterministic sources must not reach the surfaces the repro
// contract keys on. Two taint kinds flow separately:
//
//   - value taint: wall clock (time.Now/Since/...), process
//     environment (os.Getenv/...), and the ambient math/rand global
//     source — a value that differs between identical runs;
//   - order taint: map-iteration variables — a value whose *sequence*
//     differs between identical runs even when the set is equal.
//
// Sinks: the scenario fingerprint and canonical encoding
// (scenario.Spec.Fingerprint/Canonical receivers), result-store keys
// (serve.Store Put/Get/Has key arguments), stats table notes
// (stats.Table.Note assignments), and any function tagged
// //vmplint:detsink (its arguments must be deterministic).
//
// Sanitizer: sort.* calls clear order taint (sorting is exactly how
// map-derived data becomes deterministic).
//
// Propagation is interprocedural within a package: a function's return
// taints when its arguments taint (conservative) or when a source
// reaches a return statement with clean inputs (computed to a fixed
// point over the package call graph).
var DetSrc = &Analyzer{
	Name: "detsrc",
	Doc: "nondeterministic values (wall clock, env, global rand, map order) must not reach " +
		"fingerprints, canonical JSON, store keys, stats notes, or //vmplint:detsink functions; " +
		"sort.* sanitizes order",
	Run: runDetSrc,
}

// Taint kind bits.
const (
	taintValue = 1 << iota // run-to-run different value
	taintOrder             // run-to-run different sequence
)

func taintDescribe(bits int) string {
	var parts []string
	if bits&taintValue != 0 {
		parts = append(parts, "a nondeterministic value (wall clock, environment, or global rand)")
	}
	if bits&taintOrder != 0 {
		parts = append(parts, "map-iteration order")
	}
	return strings.Join(parts, " and ")
}

// sourceCallTaint classifies a call as a taint source: the simclock
// source tables are the authority on what is nondeterministic.
func sourceCallTaint(fn *types.Func) int {
	if fn == nil || fn.Pkg() == nil {
		return 0
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		// Methods are not sources: r.Int() on an explicitly seeded
		// *rand.Rand is the deterministic idiom, and Time methods only
		// propagate taint their receiver already carries.
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			return taintValue
		}
	case "os":
		if forbiddenOSFuncs[fn.Name()] {
			return taintValue
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			return taintValue
		}
	}
	return 0
}

// isSortCall reports whether fn is a package-level sort.* function —
// the canonical order sanitizer.
func isSortCall(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" &&
		fn.Type().(*types.Signature).Recv() == nil
}

// detFuncInfo is the per-function interprocedural summary.
type detFuncInfo struct {
	decl *ast.FuncDecl
	// detsink: tagged //vmplint:detsink — arguments must be clean.
	detsink bool
	// returnsAlways: taint bits the function returns even with clean
	// arguments (a source reaches a return), fixed-pointed.
	returnsAlways int
}

// detState is the per-function flow-insensitive taint solution.
type detState struct {
	pass  *Pass
	funcs map[*types.Func]*detFuncInfo
	// taint maps a variable to its taint bits.
	taint map[types.Object]int
	// sorted marks variables passed to a sort.* call: their order
	// taint is considered cleared.
	sorted map[types.Object]bool
}

func (st *detState) objTaint(obj types.Object) int {
	bits := st.taint[obj]
	if st.sorted[obj] {
		bits &^= taintOrder
	}
	return bits
}

// exprTaint computes the taint bits of an expression from the current
// solution.
func (st *detState) exprTaint(e ast.Expr) int {
	switch ex := unparen(e).(type) {
	case *ast.Ident:
		if obj := st.pass.Info.Uses[ex]; obj != nil {
			return st.objTaint(obj)
		}
		return 0
	case *ast.CallExpr:
		return st.callTaint(ex)
	case *ast.BinaryExpr:
		return st.exprTaint(ex.X) | st.exprTaint(ex.Y)
	case *ast.IndexExpr:
		return st.exprTaint(ex.X) | st.exprTaint(ex.Index)
	case *ast.SliceExpr:
		return st.exprTaint(ex.X)
	case *ast.SelectorExpr:
		// Field read off a tainted struct, or a use of a tainted
		// package-level var.
		bits := st.exprTaint(ex.X)
		if obj := st.pass.Info.Uses[ex.Sel]; obj != nil {
			if _, ok := obj.(*types.Var); ok {
				bits |= st.objTaint(obj)
			}
		}
		return bits
	case *ast.CompositeLit:
		bits := 0
		for _, el := range ex.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				bits |= st.exprTaint(kv.Value)
			} else {
				bits |= st.exprTaint(el)
			}
		}
		return bits
	case *ast.UnaryExpr:
		return st.exprTaint(ex.X)
	case *ast.StarExpr:
		return st.exprTaint(ex.X)
	case *ast.TypeAssertExpr:
		return st.exprTaint(ex.X)
	case *ast.FuncLit, *ast.BasicLit:
		return 0
	}
	return 0
}

// callTaint computes the taint of a call's result.
func (st *detState) callTaint(call *ast.CallExpr) int {
	// Conversions: T(x) keeps x's taint.
	if tv, ok := st.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		bits := 0
		for _, a := range call.Args {
			bits |= st.exprTaint(a)
		}
		return bits
	}
	fn := calleeFunc(st.pass.Info, call)
	if bits := sourceCallTaint(fn); bits != 0 {
		return bits
	}
	if isSortCall(fn) {
		return 0
	}
	if info, ok := st.funcs[fn]; ok {
		bits := info.returnsAlways
		for _, a := range call.Args {
			bits |= st.exprTaint(a)
		}
		// Method calls: the receiver's taint flows through too.
		if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
			bits |= st.exprTaint(sel.X)
		}
		return bits
	}
	// Unknown callee (stdlib, other packages, func values):
	// conservatively propagate argument and receiver taint through the
	// result — fmt.Sprintf(tainted) stays tainted.
	bits := 0
	for _, a := range call.Args {
		bits |= st.exprTaint(a)
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		bits |= st.exprTaint(sel.X)
	}
	return bits
}

// defObj resolves an assignment target to its object (Defs for :=,
// Uses for =).
func (st *detState) defObj(e ast.Expr) types.Object {
	if id, ok := unparen(e).(*ast.Ident); ok {
		if obj := st.pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return st.pass.Info.Uses[id]
	}
	return nil
}

// propagate runs the flow-insensitive intra-function taint walk over
// fd to a fixed point, updating st.taint / st.sorted.
func (st *detState) propagate(fd *ast.FuncDecl) {
	for changed := true; changed; {
		changed = false
		mark := func(obj types.Object, bits int) {
			if obj == nil || bits == 0 {
				return
			}
			if st.taint[obj]|bits != st.taint[obj] {
				st.taint[obj] |= bits
				changed = true
			}
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				if len(nn.Rhs) == 1 && len(nn.Lhs) > 1 {
					// a, b := f(): every target gets the call taint.
					bits := st.exprTaint(nn.Rhs[0])
					for _, l := range nn.Lhs {
						mark(st.defObj(l), bits)
					}
				} else {
					for i, l := range nn.Lhs {
						if i < len(nn.Rhs) {
							mark(st.defObj(l), st.exprTaint(nn.Rhs[i]))
						}
					}
				}
			case *ast.ValueSpec:
				if len(nn.Values) == 1 && len(nn.Names) > 1 {
					bits := st.exprTaint(nn.Values[0])
					for _, name := range nn.Names {
						mark(st.pass.Info.Defs[name], bits)
					}
				} else {
					for i, name := range nn.Names {
						if i < len(nn.Values) {
							mark(st.pass.Info.Defs[name], st.exprTaint(nn.Values[i]))
						}
					}
				}
			case *ast.RangeStmt:
				bits := st.exprTaint(nn.X)
				tv, ok := st.pass.Info.Types[nn.X]
				if ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						bits |= taintOrder
					}
				}
				mark(st.defObj(nn.Key), bits)
				mark(st.defObj(nn.Value), bits)
			case *ast.CallExpr:
				// sort.X(arg): the argument's order taint clears.
				if fn := calleeFunc(st.pass.Info, nn); isSortCall(fn) && len(nn.Args) > 0 {
					if obj := st.defObj(nn.Args[0]); obj != nil && !st.sorted[obj] {
						st.sorted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
}

func runDetSrc(pass *Pass) {
	funcs := packageFuncs(pass.Files)

	infos := make(map[*types.Func]*detFuncInfo)
	byDecl := make(map[*ast.FuncDecl]*detFuncInfo)
	for _, fd := range funcs {
		obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		fi := &detFuncInfo{decl: fd, detsink: funcDirectives(fd)["detsink"]}
		infos[obj] = fi
		byDecl[fd] = fi
	}

	st := &detState{
		pass:   pass,
		funcs:  infos,
		taint:  make(map[types.Object]int),
		sorted: make(map[types.Object]bool),
	}

	// Fixed point over the package: propagate intra-function taint,
	// then recompute returnsAlways summaries, until stable. Parameters
	// start clean, so returnsAlways captures exactly the
	// source-reaches-return component.
	for round := 0; round < len(funcs)+2; round++ {
		for _, fd := range funcs {
			st.propagate(fd)
		}
		changed := false
		for _, fd := range funcs {
			fi := byDecl[fd]
			if fi == nil {
				continue
			}
			bits := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if ret, ok := n.(*ast.ReturnStmt); ok {
					for _, r := range ret.Results {
						bits |= st.exprTaint(r)
					}
				}
				return true
			})
			if fi.returnsAlways|bits != fi.returnsAlways {
				fi.returnsAlways |= bits
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Sink pass.
	for _, fd := range funcs {
		checkDetSinks(pass, st, fd)
	}
}

// checkDetSinks reports tainted expressions reaching sinks inside fd.
func checkDetSinks(pass *Pass, st *detState, fd *ast.FuncDecl) {
	type report struct {
		pos int
		msg string
	}
	var reports []report
	add := func(pos int, msg string) { reports = append(reports, report{pos, msg}) }

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.AssignStmt:
			// stats.Table.Note assignments.
			for i, l := range nn.Lhs {
				if i >= len(nn.Rhs) {
					break
				}
				sel, ok := unparen(l).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Note" {
					continue
				}
				if tv, ok := pass.Info.Types[sel.X]; ok && isNamed(tv.Type, "vmp/internal/stats", "Table") {
					if bits := st.exprTaint(nn.Rhs[i]); bits != 0 {
						add(int(nn.Rhs[i].Pos()),
							"stats note derives from "+taintDescribe(bits)+"; notes are part of the reproducible report")
					}
				}
			}

		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, nn)
			if fn == nil {
				return true
			}
			sel, _ := unparen(nn.Fun).(*ast.SelectorExpr)

			// scenario.Spec.Fingerprint / Canonical: tainted receiver.
			if sel != nil && (fn.Name() == "Fingerprint" || fn.Name() == "Canonical") {
				if tv, ok := pass.Info.Types[sel.X]; ok && isNamed(tv.Type, "vmp/internal/scenario", "Spec") {
					if bits := st.exprTaint(sel.X); bits != 0 {
						add(int(sel.X.Pos()),
							"Spec built from "+taintDescribe(bits)+" reaches "+fn.Name()+"; fingerprints must be deterministic")
					}
				}
			}

			// serve.Store Put/Get/Has: tainted key.
			if sel != nil && (fn.Name() == "Put" || fn.Name() == "Get" || fn.Name() == "Has") && len(nn.Args) > 0 {
				if tv, ok := pass.Info.Types[sel.X]; ok && isNamed(tv.Type, "vmp/internal/serve", "Store") {
					if bits := st.exprTaint(nn.Args[0]); bits != 0 {
						add(int(nn.Args[0].Pos()),
							"store key derives from "+taintDescribe(bits)+"; keys must be content fingerprints")
					}
				}
			}

			// //vmplint:detsink functions: all arguments must be clean.
			if fi, ok := st.funcs[fn]; ok && fi.detsink {
				for _, a := range nn.Args {
					if bits := st.exprTaint(a); bits != 0 {
						add(int(a.Pos()),
							"argument to detsink "+fn.Name()+" derives from "+taintDescribe(bits))
					}
				}
			}
		}
		return true
	})

	sort.Slice(reports, func(i, j int) bool {
		if reports[i].pos != reports[j].pos {
			return reports[i].pos < reports[j].pos
		}
		return reports[i].msg < reports[j].msg
	})
	for _, r := range reports {
		pass.Reportf(tokenPos(r.pos), "%s", r.msg)
	}
}
