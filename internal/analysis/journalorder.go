package analysis

import (
	"go/ast"
	"go/types"
)

// JournalOrder enforces pocd's durability contract: "once journaled,
// always applied" only holds if the journal append dominates every
// state mutation in a mutation handler. A handler that mutates first
// and journals second can crash in between, leaving applied state the
// replay will never reconstruct — the exact divergence pocd's
// crash-recovery tests exist to rule out.
//
// The check is flow-sensitive: in any function (within a pocd
// package) whose body performs a journal append — a call to a method
// named Append on a type from a */journal package, or to a function
// whose summary says it appends transitively — every mutation call
// must be dominated by an append on the CFG. A mutation call is a
// method call whose callee's summary records receiver writes
// (WritesRecv, computed across packages via facts) on a receiver
// rooted outside the function's own locals. Functions with no append
// in the body — the replay/apply path — are exempt by construction:
// replay is the one caller allowed to mutate without journaling.
var JournalOrder = &Analyzer{
	Name: "journalorder",
	Doc:  "in pocd, state mutations must be dominated by the journal append (once journaled, always applied)",
	Applies: func(path string) bool {
		return hasSegment(path, "pocd")
	},
	Run: runJournalOrder,
}

func runJournalOrder(pass *Pass) error {
	for _, f := range pass.SrcFiles() {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			checkJournalFunc(pass, decl)
		}
	}
	return nil
}

// appendsJournal reports whether the call appends to the journal,
// directly or via a summarized callee.
func appendsJournal(pass *Pass, call *ast.CallExpr) bool {
	callee := calleeFunc(pass, call)
	if callee == nil {
		return false
	}
	if isJournalAppendCallee(callee) {
		return true
	}
	sum, ok := pass.Facts.SummaryOf(callee)
	return ok && sum.JournalAppend
}

func checkJournalFunc(pass *Pass, decl *ast.FuncDecl) {
	// Only functions that themselves journal are order-checked. An
	// append inside a defer or a nested literal does not count: it runs
	// at function exit (or wherever the literal is invoked), not at a
	// program point the domination check can order, so a function whose
	// only append is deferred stays exempt like the replay path.
	journals := false
	inspectAtPoint(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && appendsJournal(pass, call) {
			journals = true
		}
		return !journals
	})
	if !journals {
		return
	}

	fi := frameOf(pass, decl)
	g := buildCFG(decl.Body)
	preds := predecessors(g)

	// Must-analysis: in[b] = AND over preds of out[p]; a statement's
	// mutations are legal only when an append is guaranteed on every
	// path reaching it.
	in := map[*cfgBlock]bool{}
	out := map[*cfgBlock]bool{}
	for _, blk := range g.all {
		in[blk], out[blk] = true, true // optimistic top; entry forced below
	}
	in[g.entry] = false
	for changed := true; changed; {
		changed = false
		for _, blk := range g.all {
			state := true
			if blk == g.entry {
				state = false
			} else if ps := preds[blk]; len(ps) == 0 {
				state = false // unreachable island: stay conservative
			} else {
				for _, p := range ps {
					state = state && out[p]
				}
			}
			if state != in[blk] {
				in[blk] = state
				changed = true
			}
			for _, st := range blk.stmts {
				if stmtAppends(pass, st) {
					state = true
				}
			}
			if state != out[blk] {
				out[blk] = state
				changed = true
			}
		}
	}

	for _, blk := range g.all {
		state := in[blk]
		for _, st := range blk.stmts {
			if stmtAppends(pass, st) {
				state = true
				continue
			}
			if state {
				continue
			}
			reportMutations(pass, fi, st)
		}
	}
}

// inspectAtPoint walks n's subtree skipping DeferStmt and FuncLit
// subtrees: code under either does not execute at this program point
// (defers run at function exit, literal bodies wherever the literal is
// invoked), so it must neither satisfy nor violate an ordering check
// anchored here.
func inspectAtPoint(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.DeferStmt, *ast.FuncLit:
			return false
		}
		return f(m)
	})
}

// stmtAppends reports whether the statement performs a journal append
// at its own program point (deferred appends run at exit and order
// nothing; see inspectAtPoint).
func stmtAppends(pass *Pass, st ast.Stmt) bool {
	found := false
	inspectAtPoint(st, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && appendsJournal(pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// reportMutations flags mutation calls in a statement not yet
// dominated by the append. Mutations under a defer or nested literal
// are skipped with the same reasoning as stmtAppends: a deferred
// cleanup mutation runs after the append on every completing path.
func reportMutations(pass *Pass, fi *funcInfo, st ast.Stmt) {
	inspectAtPoint(st, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		callee, _ := pass.Info.Uses[sel.Sel].(*types.Func)
		if callee == nil {
			return true
		}
		if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() == nil {
			return true
		}
		sum, ok := pass.Facts.SummaryOf(callee)
		if !ok || !sum.WritesRecv {
			return true
		}
		switch classifyRoot(pass, fi, sel.X).kind {
		case rootRecv, rootParam, rootOuter:
			pass.Reportf(call.Pos(),
				"state mutation %s.%s before the journal append: a crash here diverges from replay; append first (once journaled, always applied)",
				exprString(sel.X), callee.Name())
		}
		return true
	})
}

// predecessors inverts the successor edges.
func predecessors(g *cfg) map[*cfgBlock][]*cfgBlock {
	preds := map[*cfgBlock][]*cfgBlock{}
	for _, blk := range g.all {
		for _, s := range blk.succs {
			preds[s] = append(preds[s], blk)
		}
	}
	return preds
}
