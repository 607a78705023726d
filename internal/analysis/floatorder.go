package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatOrder flags float folds whose term order is decided by Go's
// randomized map iteration, channel arrival or goroutine completion
// rather than by data. Float addition is not associative, so such a sum
// lands on different ULPs from run to run and from one Workers setting
// to the next: the bug class once hunted by hand in provision.Route,
// netsim.UsageByEndpoint and core.BillEpoch.
//
// One walk tracks the enclosing unordered contexts (a map-range body, a
// channel-range body, a `go func` literal, a direct-call `go f(x)`) and
// reports an inline fold (floatFolds) into state declared outside the
// context; a call whose callee's summary folds floats into state the
// call roots outside it (facts.go), so a helper cannot hide the fold;
// in map ranges, float appends to an outer slice and fmt print calls;
// and anywhere, a fold of a channel receive (`x += <-ch`).
//
// The context rule: a target declared inside a context is inside every
// context around it, so an inline fold is reported against the
// innermost enclosing context the target lies outside of, skipping a
// map range that exempts it. `m2[k] op= v` with k that range's key
// writes each key once, so the range cannot reorder it; a goroutine
// around the range still can. Calls carry no exemption: the innermost
// context decides.
var FloatOrder = &Analyzer{
	Name: "floatorder",
	Doc:  "float folds ordered by map iteration, channel arrival or goroutine completion break byte-determinism",
	Run:  runFloatOrder,
}

// The context half of every message: what orders the fold, and the
// sanctioned rewrite.
const (
	mapWhere  = "inside range over map: the fold is ordered by map iteration; range over sorted keys instead"
	chanWhere = "in channel-receive order: arrival order perturbs the fold; collect into index slots and reduce serially"
	goWhere   = "from a goroutine: the fold is scheduling-ordered (even under a lock); write per-goroutine index slots and reduce serially"
)

// orderCtx is one enclosing unordered context.
type orderCtx struct {
	scope ast.Node     // declarations within it are context-local; nil for `go f(x)`
	key   types.Object // the map-range key, for the per-key exemption
	isMap bool
	where string
}

// inside reports whether e's root is declared within the context.
func (c *orderCtx) inside(pass *Pass, e ast.Expr) bool {
	return c.scope != nil && pass.declaredWithin(e, c.scope.Pos(), c.scope.End())
}

type orderWalk struct {
	pass *Pass
	ctxs []orderCtx // enclosing contexts, innermost last
}

func runFloatOrder(pass *Pass) error {
	for _, f := range pass.SrcFiles() {
		(&orderWalk{pass: pass}).walk(f)
	}
	return nil
}

func (w *orderWalk) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.RangeStmt:
			ctx := orderCtx{scope: x}
			var under types.Type
			if t := w.pass.TypeOf(x.X); t != nil {
				under = t.Underlying()
			}
			switch under.(type) {
			case *types.Map:
				ctx.isMap, ctx.where = true, mapWhere
				if id, ok := x.Key.(*ast.Ident); ok {
					ctx.key = w.pass.ObjectOf(id)
				}
			case *types.Chan:
				ctx.where = chanWhere
			default:
				return true
			}
			w.walk(x.X) // evaluated once, before the loop
			w.within(ctx, x.Body)
			return false
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				w.within(orderCtx{scope: lit, where: goWhere}, lit.Body)
			} else {
				// The receiver and arguments of `go f(x)` are evaluated in
				// the spawning frame, so whatever rooted state f folds into
				// is outside the goroutine (a nil scope). This is the
				// call's only check.
				w.checkCall(x.Call, &orderCtx{where: goWhere})
				w.walk(x.Call.Fun)
			}
			for _, arg := range x.Call.Args {
				w.walk(arg) // evaluated in the spawning frame
			}
			return false
		case *ast.AssignStmt:
			w.checkFolds(x)
			w.checkAppend(x)
		case *ast.IncDecStmt:
			w.checkFolds(x)
		case *ast.CallExpr:
			if len(w.ctxs) > 0 {
				w.checkCall(x, &w.ctxs[len(w.ctxs)-1])
			}
		}
		return true
	})
}

func (w *orderWalk) within(ctx orderCtx, body ast.Node) {
	w.ctxs = append(w.ctxs, ctx)
	w.walk(body)
	w.ctxs = w.ctxs[:len(w.ctxs)-1]
}

// innermostMap returns the innermost enclosing map range, or nil.
func (w *orderWalk) innermostMap() *orderCtx {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		if w.ctxs[i].isMap {
			return &w.ctxs[i]
		}
	}
	return nil
}

// foldCtx applies the context rule to an inline fold target.
func (w *orderWalk) foldCtx(lhs ast.Expr) *orderCtx {
	for i := len(w.ctxs) - 1; i >= 0; i-- {
		c := &w.ctxs[i]
		if c.inside(w.pass, lhs) {
			return nil
		}
		if ix, ok := lhs.(*ast.IndexExpr); ok && c.key != nil {
			if id, ok := ix.Index.(*ast.Ident); ok && w.pass.ObjectOf(id) == c.key {
				continue // m2[k] op= v: one write per key of this range
			}
		}
		return c
	}
	return nil
}

func (w *orderWalk) checkFolds(st ast.Stmt) {
	for _, lhs := range floatFolds(w.pass, st) {
		if c := w.foldCtx(lhs); c != nil {
			w.pass.Reportf(st.Pos(), "float accumulation into %s %s", exprString(lhs), c.where)
		} else if as, ok := st.(*ast.AssignStmt); ok && receives(as) {
			w.pass.Reportf(st.Pos(),
				"folding channel receives into %s sums in arrival order; collect into index slots and reduce serially",
				exprString(lhs))
		}
	}
}

// checkAppend flags append(outer, floats…) inside a map range. Fresh
// slices ([]float64(nil), make(…)) and range-locals are rebuilt per
// iteration and accumulate no order.
func (w *orderWalk) checkAppend(st *ast.AssignStmt) {
	m := w.innermostMap()
	if m == nil {
		return
	}
	for _, rhs := range st.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || w.pass.Info.Uses[id] != types.Universe.Lookup("append") {
			continue
		}
		slice := call.Args[0]
		if root := rootIdent(slice); root == nil || w.pass.ObjectOf(root) == nil || m.inside(w.pass, slice) {
			continue
		}
		if s, ok := w.pass.TypeOf(slice).Underlying().(*types.Slice); ok && isFloat(s.Elem()) {
			w.pass.Reportf(st.Pos(),
				"append to float slice %s inside range over map: element order follows map iteration; range over sorted keys instead",
				exprString(slice))
		}
	}
}

// fmtPrints are fmt's byte-emitting functions.
var fmtPrints = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// checkCall flags a call in ctx whose callee folds floats into state
// rooted outside ctx, and a fmt print call inside any map range.
func (w *orderWalk) checkCall(call *ast.CallExpr, ctx *orderCtx) {
	pass := w.pass
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if isSel && w.innermostMap() != nil {
		if name, ok := pass.pkgFunc(sel.Sel, "fmt"); ok && fmtPrints[name] {
			pass.Reportf(call.Pos(),
				"fmt.%s inside range over map: output order follows map iteration; range over sorted keys instead", name)
		}
	}
	callee := calleeFunc(pass, call)
	sum, ok := pass.Facts.SummaryOf(callee)
	if !ok || !sum.FoldsFloat() {
		return
	}
	name := funcKey(callee)
	if sum.FoldGlobal {
		pass.Reportf(call.Pos(), "%s folds floats into package-level or captured state %s", name, ctx.where)
		return
	}
	if isSel && sum.FoldRecv && !ctx.inside(pass, sel.X) {
		pass.Reportf(call.Pos(), "%s folds floats into %s, declared outside, %s", name, exprString(sel.X), ctx.where)
		return
	}
	for _, j := range sum.FoldParams {
		// A fresh value (literal, call result) has no root: context-local.
		if j < len(call.Args) && rootIdent(call.Args[j]) != nil && !ctx.inside(pass, call.Args[j]) {
			pass.Reportf(call.Pos(), "%s folds floats into argument %s, declared outside, %s",
				name, exprString(call.Args[j]), ctx.where)
			return
		}
	}
}

// compoundOps are the assignment operators that fold their right-hand
// side into the target.
var compoundOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
	token.MUL_ASSIGN: true, token.QUO_ASSIGN: true,
}

// floatFolds returns the float targets st folds into: the target of a
// compound assignment (x op= v, and x++/x--, which is x += 1) or of the
// spelled-out x = x op v / x = v op x. It is the one definition of a
// fold, shared by floatorder inline and the summary pass behind calls,
// so the two cannot disagree.
func floatFolds(pass *Pass, st ast.Stmt) []ast.Expr {
	var targets []ast.Expr
	switch st := st.(type) {
	case *ast.AssignStmt:
		switch {
		case compoundOps[st.Tok]:
			targets = st.Lhs
		case st.Tok == token.ASSIGN && len(st.Lhs) == 1 && len(st.Rhs) == 1:
			if bin, ok := st.Rhs[0].(*ast.BinaryExpr); ok && arithmeticOp(bin.Op) &&
				(sameExpr(bin.X, st.Lhs[0]) || sameExpr(bin.Y, st.Lhs[0])) {
				targets = st.Lhs
			}
		}
	case *ast.IncDecStmt:
		targets = []ast.Expr{st.X}
	}
	var folds []ast.Expr
	for _, e := range targets {
		if isFloat(pass.TypeOf(e)) { // integer ops are associative; only floats drift
			folds = append(folds, e)
		}
	}
	return folds
}

func arithmeticOp(op token.Token) bool {
	return op == token.ADD || op == token.SUB || op == token.MUL || op == token.QUO
}

// sameExpr reports whether two expressions are syntactically identical
// identifier/selector/index chains (enough to recognize `x = x + v`
// accumulators; anything fancier is out of scope).
func sameExpr(a, b ast.Expr) bool {
	switch x := a.(type) {
	case *ast.Ident:
		y, ok := b.(*ast.Ident)
		return ok && x.Name == y.Name
	case *ast.SelectorExpr:
		y, ok := b.(*ast.SelectorExpr)
		return ok && x.Sel.Name == y.Sel.Name && sameExpr(x.X, y.X)
	case *ast.IndexExpr:
		y, ok := b.(*ast.IndexExpr)
		return ok && sameExpr(x.X, y.X) && sameExpr(x.Index, y.Index)
	case *ast.ParenExpr:
		return sameExpr(x.X, b)
	}
	if y, ok := b.(*ast.ParenExpr); ok {
		return sameExpr(a, y.X)
	}
	return false
}

// receives reports whether any right-hand side receives from a channel.
func receives(st *ast.AssignStmt) bool {
	found := false
	for _, rhs := range st.Rhs {
		ast.Inspect(rhs, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				found = true
			}
			return !found
		})
	}
	return found
}
