package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the suite's dataflow substrate: vmplint's v2 analyzers
// (detsrc, lockdisc, hotalloc, leakcheck) reason about
// cross-statement and cross-function properties, which the original
// syntax-local passes could not express. Rather than vendor
// golang.org/x/tools/go/ssa (the module is dependency-free and builds
// offline), the engine is a hand-rolled def-use layer over the
// go/types-checked ASTs the loader already produces:
//
//   - function directives: //vmplint:hotpath and //vmplint:detsink
//     comments attach machine-readable contracts to declarations (see
//     funcDirectives);
//   - a statement-level control-flow graph (buildCFG) precise enough
//     for the must-style analyses the lock and leak checkers need:
//     if/else, for/range loops with back edges, switch/type
//     switch/select, early return, break/continue, panic termination;
//   - a generic forward must-dataflow driver (mustForward) computing,
//     per basic block, the facts that hold on every path into it
//     (intersection at joins, with the standard top-initialisation so
//     loops converge);
//   - taint propagation in detsrc.go, a def-use walk with per-kind
//     taint bits and package-local interprocedural summaries.

// Directive comments recognised on function declarations.
const (
	// hotpathDirective marks a function as a measured hot path:
	// hotalloc forbids allocating constructs inside it, turning the
	// BENCH allocs/op gate into a compile-time fact.
	hotpathDirective = "//vmplint:hotpath"
	// detsinkDirective marks a function whose arguments must be
	// deterministic (detsrc reports tainted arguments at call sites).
	detsinkDirective = "//vmplint:detsink"
)

// funcDirectives returns the vmplint directive set attached to a
// function declaration: every //vmplint:<name> line in its doc comment
// group, keyed without the prefix ("hotpath", "detsink").
func funcDirectives(fd *ast.FuncDecl) map[string]bool {
	if fd == nil || fd.Doc == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range fd.Doc.List {
		if !strings.HasPrefix(c.Text, "//vmplint:") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimPrefix(c.Text, "//vmplint:"), " ")
		if name == "" || name == "allow" {
			continue
		}
		if out == nil {
			out = make(map[string]bool)
		}
		out[name] = true
	}
	return out
}

// packageFuncs returns every function declaration in the package with a
// body, in file/position order.
func packageFuncs(files []*ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// --- control-flow graph ---

// cfgBlock is one basic block: a run of straight-line statements and
// the blocks control may transfer to next. Nested function literals are
// NOT traversed into — they execute at another time, so every analysis
// over a CFG sees exactly one function's control flow.
type cfgBlock struct {
	id    int
	stmts []ast.Stmt
	succs []*cfgBlock
	// exit marks a block ending the function: an explicit return, a
	// call to panic, or falling off the end of the body.
	exit bool
	// exitStmt is the return statement for return exits (nil for
	// fall-off and panic exits).
	exitStmt ast.Stmt
}

// cfg is a function body's control-flow graph.
type cfg struct {
	entry  *cfgBlock
	blocks []*cfgBlock
}

// cfgBuilder carries loop/switch context while lowering statements.
type cfgBuilder struct {
	g *cfg
	// breakTo / continueTo are the current unlabeled break/continue
	// targets (innermost loop, switch or select for break).
	breakTo    *cfgBlock
	continueTo *cfgBlock
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{id: len(b.g.blocks)}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func link(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// buildCFG lowers a function body to basic blocks. The graph is
// conservative where Go is exotic: goto and labeled branches terminate
// their block like a return (no analysis downstream claims anything
// about paths it cannot see), and select cases are treated like switch
// cases.
func buildCFG(body *ast.BlockStmt) *cfg {
	g := &cfg{}
	b := &cfgBuilder{g: g}
	entry := b.newBlock()
	g.entry = entry
	last := b.lowerStmts(body.List, entry)
	if last != nil {
		last.exit = true
	}
	return g
}

// lowerStmts appends stmts to cur, returning the block holding control
// after the last statement (nil when control never falls through).
func (b *cfgBuilder) lowerStmts(stmts []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range stmts {
		if cur == nil {
			// Unreachable code after a terminating statement: give it
			// its own block so its lock/taint operations still parse,
			// but nothing links to it.
			cur = b.newBlock()
		}
		cur = b.lowerStmt(s, cur)
	}
	return cur
}

// lowerStmt lowers one statement, returning the fall-through block.
func (b *cfgBuilder) lowerStmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.lowerStmts(st.List, cur)

	case *ast.IfStmt:
		if st.Init != nil {
			cur.stmts = append(cur.stmts, st.Init)
		}
		cur.stmts = append(cur.stmts, &ast.ExprStmt{X: st.Cond})
		thenB := b.newBlock()
		link(cur, thenB)
		thenEnd := b.lowerStmt(st.Body, thenB)
		after := b.newBlock()
		if st.Else != nil {
			elseB := b.newBlock()
			link(cur, elseB)
			elseEnd := b.lowerStmt(st.Else, elseB)
			link(elseEnd, after)
		} else {
			link(cur, after)
		}
		link(thenEnd, after)
		return after

	case *ast.ForStmt:
		if st.Init != nil {
			cur.stmts = append(cur.stmts, st.Init)
		}
		head := b.newBlock()
		link(cur, head)
		if st.Cond != nil {
			head.stmts = append(head.stmts, &ast.ExprStmt{X: st.Cond})
		}
		after := b.newBlock()
		bodyB := b.newBlock()
		link(head, bodyB)
		if st.Cond != nil {
			link(head, after) // condition false
		}
		savedBreak, savedCont := b.breakTo, b.continueTo
		b.breakTo, b.continueTo = after, head
		bodyEnd := b.lowerStmt(st.Body, bodyB)
		b.breakTo, b.continueTo = savedBreak, savedCont
		if bodyEnd != nil {
			if st.Post != nil {
				bodyEnd.stmts = append(bodyEnd.stmts, st.Post)
			}
			link(bodyEnd, head) // back edge
		}
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		link(cur, head)
		// The range expression and per-iteration key/value assignment
		// live in the head so taint walks see them once per entry; the
		// body is emptied in the copy so its operations are not also
		// attributed to the head.
		hdr := *st
		hdr.Body = &ast.BlockStmt{}
		head.stmts = append(head.stmts, &hdr)
		after := b.newBlock()
		bodyB := b.newBlock()
		link(head, bodyB)
		link(head, after) // empty collection
		savedBreak, savedCont := b.breakTo, b.continueTo
		b.breakTo, b.continueTo = after, head
		bodyEnd := b.lowerStmt(st.Body, bodyB)
		b.breakTo, b.continueTo = savedBreak, savedCont
		link(bodyEnd, head)
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.lowerSwitch(st, cur)

	case *ast.ReturnStmt:
		cur.stmts = append(cur.stmts, s)
		cur.exit = true
		cur.exitStmt = s
		return nil

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if st.Label == nil && b.breakTo != nil {
				link(cur, b.breakTo)
				return nil
			}
		case token.CONTINUE:
			if st.Label == nil && b.continueTo != nil {
				link(cur, b.continueTo)
				return nil
			}
		case token.FALLTHROUGH:
			// Handled by lowerSwitch linking; treat as fall-through end.
			return cur
		}
		// goto, or a labeled break/continue: terminate conservatively.
		cur.exit = true
		return nil

	case *ast.LabeledStmt:
		return b.lowerStmt(st.Stmt, cur)

	case *ast.ExprStmt:
		cur.stmts = append(cur.stmts, s)
		if isPanicCall(st.X) {
			cur.exit = true
			return nil
		}
		return cur

	default:
		// Assignments, declarations, defer, go, send, inc/dec, empty.
		cur.stmts = append(cur.stmts, s)
		return cur
	}
}

// lowerSwitch lowers switch / type switch / select uniformly: every
// case body branches from the head and falls through to the after
// block. Fallthrough between cases is approximated by also linking each
// case end to the next case's block when it ends in fallthrough.
func (b *cfgBuilder) lowerSwitch(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	var init ast.Stmt
	var tag ast.Stmt
	var clauses []ast.Stmt
	hasDefault := false
	switch st := s.(type) {
	case *ast.SwitchStmt:
		init = st.Init
		if st.Tag != nil {
			tag = &ast.ExprStmt{X: st.Tag}
		}
		clauses = st.Body.List
	case *ast.TypeSwitchStmt:
		init = st.Init
		tag = st.Assign
		clauses = st.Body.List
	case *ast.SelectStmt:
		clauses = st.Body.List
	}
	if init != nil {
		cur.stmts = append(cur.stmts, init)
	}
	if tag != nil {
		cur.stmts = append(cur.stmts, tag)
	}
	after := b.newBlock()
	savedBreak := b.breakTo
	b.breakTo = after
	var caseBlocks []*cfgBlock
	var caseBodies [][]ast.Stmt
	for _, cl := range clauses {
		blk := b.newBlock()
		link(cur, blk)
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				blk.stmts = append(blk.stmts, &ast.ExprStmt{X: e})
			}
			caseBodies = append(caseBodies, c.Body)
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				blk.stmts = append(blk.stmts, c.Comm)
			}
			caseBodies = append(caseBodies, c.Body)
		}
		caseBlocks = append(caseBlocks, blk)
	}
	for i, blk := range caseBlocks {
		end := b.lowerStmts(caseBodies[i], blk)
		if end != nil {
			if endsInFallthrough(caseBodies[i]) && i+1 < len(caseBlocks) {
				link(end, caseBlocks[i+1])
			} else {
				link(end, after)
			}
		}
	}
	b.breakTo = savedBreak
	if len(caseBlocks) == 0 || !hasDefault {
		// No matching case (or an empty switch) falls through.
		link(cur, after)
	}
	return after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicCall reports whether e is a direct call to the predeclared
// panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// --- generic forward must-dataflow ---

// factSet is a set of string facts ("held lock keys" for lockdisc).
type factSet map[string]bool

func (s factSet) clone() factSet {
	c := make(factSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

func (s factSet) equal(o factSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// intersect returns s ∩ o.
func (s factSet) intersect(o factSet) factSet {
	out := make(factSet)
	for k := range s {
		if o[k] {
			out[k] = true
		}
	}
	return out
}

// sortedFacts returns the facts in deterministic order.
func sortedFacts(s factSet) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mustForward runs a forward must-analysis over the CFG: in[entry] =
// {}, in[b] = ∩ out[pred], out[b] = transfer(b, in[b]). transfer must
// be deterministic and side-effect free on its input set (return a new
// set). The returned map holds the stable in-set of every block; the
// driver iterates to a fixed point (facts only leave at joins, so
// convergence is guaranteed for monotone transfers).
func mustForward(g *cfg, transfer func(b *cfgBlock, in factSet) factSet) map[*cfgBlock]factSet {
	ins := make(map[*cfgBlock]factSet, len(g.blocks))
	outs := make(map[*cfgBlock]factSet, len(g.blocks))
	preds := make(map[*cfgBlock][]*cfgBlock)
	for _, b := range g.blocks {
		for _, s := range b.succs {
			preds[s] = append(preds[s], b)
		}
	}
	for iter := 0; iter < 2*len(g.blocks)+2; iter++ {
		changed := false
		for _, b := range g.blocks {
			var in factSet
			if b == g.entry {
				in = make(factSet)
			} else {
				ps := preds[b]
				seeded := false
				for _, p := range ps {
					po, ok := outs[p]
					if !ok {
						continue // unvisited pred: ⊤, ignore in the meet
					}
					if !seeded {
						in = po.clone()
						seeded = true
					} else {
						in = in.intersect(po)
					}
				}
				if !seeded {
					in = make(factSet)
				}
			}
			out := transfer(b, in)
			if prev, ok := outs[b]; !ok || !prev.equal(out) {
				changed = true
			}
			ins[b], outs[b] = in, out
		}
		if !changed {
			break
		}
	}
	return ins
}

// stmtCalls walks one statement (or lowered expression) in evaluation
// order, visiting every call expression outside nested function
// literals. Used by the transfer functions of lockdisc and by leak
// analysis.
func stmtCalls(s ast.Stmt, fn func(call *ast.CallExpr, inDefer bool)) {
	var walkExpr func(e ast.Expr, inDefer bool)
	walkExpr = func(e ast.Expr, inDefer bool) {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if c, ok := n.(*ast.CallExpr); ok {
				fn(c, inDefer)
			}
			return true
		})
	}
	switch st := s.(type) {
	case *ast.DeferStmt:
		// Arguments evaluate now; the call itself runs at exit.
		for _, a := range st.Call.Args {
			walkExpr(a, false)
		}
		fn(st.Call, true)
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			walkExpr(a, false)
		}
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				for _, a := range nn.Call.Args {
					walkExpr(a, false)
				}
				fn(nn.Call, true)
				return false
			case *ast.GoStmt:
				return false
			case *ast.CallExpr:
				fn(nn, false)
			}
			return true
		})
	}
}
