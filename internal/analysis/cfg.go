package analysis

import (
	"go/ast"
	"go/token"
)

// A minimal intra-function control-flow graph, built from the AST,
// for journalorder's dominance check. It models the statement
// structures the repo actually uses — if/else, for, range, switch,
// type switch, select, return, break/continue, labeled statements,
// panic. goto edges go straight to exit, so a path that jumps to a
// label is not seen there, and function literals are opaque (their
// bodies are not part of the enclosing function's graph).

// cfgBlock is one basic block: a run of simple statements plus the
// successor edges out of it.
type cfgBlock struct {
	stmts  []ast.Stmt
	succs  []*cfgBlock
	npreds int
}

// cfg is one function body's graph.
type cfg struct {
	entry *cfgBlock
	exit  *cfgBlock // synthetic fall-off-the-end block
	all   []*cfgBlock
}

// loopFrame tracks the jump targets of an enclosing loop (or the
// break target of a switch/select) for break/continue resolution.
type loopFrame struct {
	label      string
	breakTo    *cfgBlock
	continueTo *cfgBlock // nil for switch/select frames
}

type cfgBuilder struct {
	g            *cfg
	loops        []loopFrame
	pendingLabel string // label to attach to the next pushed frame
}

// buildCFG builds the graph for a function body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	b.g.exit = b.newBlock()
	b.g.entry = b.newBlock()
	if last := b.stmts(body.List, b.g.entry); last != nil {
		b.link(last, b.g.exit)
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.all = append(b.g.all, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *cfgBlock) {
	from.succs = append(from.succs, to)
	to.npreds++
}

// pushFrame registers a loop/switch frame, consuming any pending
// label from an enclosing LabeledStmt.
func (b *cfgBuilder) pushFrame(f loopFrame) {
	f.label = b.pendingLabel
	b.pendingLabel = ""
	b.loops = append(b.loops, f)
}

func (b *cfgBuilder) popFrame() {
	b.loops = b.loops[:len(b.loops)-1]
}

// stmts threads a statement list through cur, returning the live block
// after the list (nil if control never falls through).
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after a terminator: island block,
			// nothing flows in.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt adds one statement to cur, returning the block where control
// continues (nil if it doesn't).
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch st := s.(type) {
	case *ast.ReturnStmt:
		cur.stmts = append(cur.stmts, st)
		return nil

	case *ast.ExprStmt:
		cur.stmts = append(cur.stmts, st)
		if call, ok := st.X.(*ast.CallExpr); ok && isPanicCall(call) {
			return nil
		}
		return cur

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		cur.stmts = append(cur.stmts, &ast.ExprStmt{X: st.Cond})
		thenB := b.newBlock()
		b.link(cur, thenB)
		thenEnd := b.stmts(st.Body.List, thenB)
		var elseEnd *cfgBlock
		hasElse := st.Else != nil
		if hasElse {
			elseB := b.newBlock()
			b.link(cur, elseB)
			elseEnd = b.stmt(st.Else, elseB)
		}
		if !hasElse && thenEnd == nil {
			// then terminates, no else: control continues in a fresh
			// block fed only by the false edge.
			after := b.newBlock()
			b.link(cur, after)
			return after
		}
		if thenEnd == nil && elseEnd == nil {
			return nil // both arms terminate
		}
		after := b.newBlock()
		if !hasElse {
			b.link(cur, after)
		}
		if thenEnd != nil {
			b.link(thenEnd, after)
		}
		if elseEnd != nil {
			b.link(elseEnd, after)
		}
		return after

	case *ast.BlockStmt:
		return b.stmts(st.List, cur)

	case *ast.ForStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		head := b.newBlock()
		b.link(cur, head)
		if st.Cond != nil {
			head.stmts = append(head.stmts, &ast.ExprStmt{X: st.Cond})
		}
		after := b.newBlock()
		post := head
		if st.Post != nil {
			post = b.newBlock()
			post.stmts = append(post.stmts, st.Post)
			b.link(post, head)
		}
		b.pushFrame(loopFrame{breakTo: after, continueTo: post})
		bodyB := b.newBlock()
		b.link(head, bodyB)
		if st.Cond != nil {
			b.link(head, after) // cond false
		}
		if bodyEnd := b.stmts(st.Body.List, bodyB); bodyEnd != nil {
			b.link(bodyEnd, post)
		}
		b.popFrame()
		if st.Cond == nil && after.npreds == 0 {
			return nil // for {} with no break never falls through
		}
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		b.link(cur, head)
		head.stmts = append(head.stmts, &ast.ExprStmt{X: st.X})
		after := b.newBlock()
		b.link(head, after) // empty collection
		b.pushFrame(loopFrame{breakTo: after, continueTo: head})
		bodyB := b.newBlock()
		b.link(head, bodyB)
		if bodyEnd := b.stmts(st.Body.List, bodyB); bodyEnd != nil {
			b.link(bodyEnd, head)
		}
		b.popFrame()
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return b.switchLike(s, cur)

	case *ast.LabeledStmt:
		switch st.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = st.Label.Name
		}
		return b.stmt(st.Stmt, cur)

	case *ast.BranchStmt:
		cur.stmts = append(cur.stmts, st)
		switch st.Tok {
		case token.BREAK:
			if f := b.findFrame(st.Label, false); f != nil {
				b.link(cur, f.breakTo)
			}
		case token.CONTINUE:
			if f := b.findFrame(st.Label, true); f != nil {
				b.link(cur, f.continueTo)
			}
		case token.GOTO:
			// A goto may land anywhere; its edge goes to exit rather
			// than to a guessed target.
			b.link(cur, b.g.exit)
		case token.FALLTHROUGH:
			// Edge added structurally in switchLike.
			return cur
		}
		return nil

	default:
		// defer, go, assignments, declarations, sends, incdec, empty.
		cur.stmts = append(cur.stmts, st)
		return cur
	}
}

// findFrame resolves break (needContinue=false) or continue
// (needContinue=true) to its frame: innermost eligible, or the one
// with the matching label.
func (b *cfgBuilder) findFrame(label *ast.Ident, needContinue bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if needContinue && f.continueTo == nil {
			continue
		}
		if label == nil || f.label == label.Name {
			return f
		}
	}
	return nil
}

// switchLike builds switch / type-switch / select: each clause is an
// alternative successor; a missing default adds a skip edge.
func (b *cfgBuilder) switchLike(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	var body *ast.BlockStmt
	switch st := s.(type) {
	case *ast.SwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		if st.Tag != nil {
			cur.stmts = append(cur.stmts, &ast.ExprStmt{X: st.Tag})
		}
		body = st.Body
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		cur.stmts = append(cur.stmts, st.Assign)
		body = st.Body
	case *ast.SelectStmt:
		body = st.Body
	}
	after := b.newBlock()
	b.pushFrame(loopFrame{breakTo: after})
	type clause struct {
		blk  *cfgBlock
		list []ast.Stmt
		fall bool
	}
	var clauses []clause
	hasDefault := false
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || cc.List == nil
			list = cc.Body
		case *ast.CommClause:
			hasDefault = hasDefault || cc.Comm == nil
			if cc.Comm != nil {
				list = append([]ast.Stmt{cc.Comm}, cc.Body...)
			} else {
				list = cc.Body
			}
		}
		blk := b.newBlock()
		b.link(cur, blk)
		fall := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fall = true
			}
		}
		clauses = append(clauses, clause{blk: blk, list: list, fall: fall})
	}
	for i, c := range clauses {
		end := b.stmts(c.list, c.blk)
		if end == nil {
			continue
		}
		if c.fall && i+1 < len(clauses) {
			b.link(end, clauses[i+1].blk)
			continue
		}
		b.link(end, after)
	}
	b.popFrame()
	if !hasDefault {
		b.link(cur, after) // no clause matched
	}
	if after.npreds == 0 {
		return nil
	}
	return after
}

// isPanicCall reports a direct call to the builtin panic.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
