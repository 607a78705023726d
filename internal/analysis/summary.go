package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file computes PackageFacts: the function-summary pass. It runs
// once per package — before the analyzers — walking every function
// body to collect direct effects, then closing over same-package calls
// with a fixpoint and over imported calls with the importers' facts
// (which are already transitively closed, making the whole relation
// transitive without a global fixpoint).
//
// One source directive feeds the pass:
//
//	//lint:owner <fn>[,<fn>...]  (struct field) only these functions may
//	                         write the field, never from a spawned goroutine
//
// A malformed one is a diagnostic (analyzer "poclint"), same as a
// reason-less //lint:allow.

// rootKind classifies where an expression's leftmost identifier is
// bound, relative to the function being summarized.
type rootKind int

const (
	rootNone  rootKind = iota // literal, fresh value, package qualifier
	rootLocal                 // declared inside the function
	rootRecv                  // the method receiver
	rootParam                 // a parameter (see rootClass.param)
	rootOuter                 // package-level, captured, or imported state
)

type rootClass struct {
	kind  rootKind
	param int // valid when kind == rootParam
}

// callSite is one resolved call inside a summarized function: the
// callee plus the root classification of its receiver and arguments,
// which is all the fixpoint needs to relocate the callee's fold/write
// targets into the caller's frame.
type callSite struct {
	callee *types.Func
	recv   rootClass
	args   []rootClass
}

// funcInfo is the per-function scratch state for the fixpoint.
type funcInfo struct {
	decl   *ast.FuncDecl
	key    string
	recv   types.Object
	params []types.Object
	sum    FuncSummary
	calls  []callSite
}

// ComputeFacts builds the package's fact set. imports carries the
// facts of already-analyzed dependencies (nil is fine: summaries then
// stop at the package boundary, which is exactly v1 behavior). The
// returned diagnostics report malformed //lint:owner directives.
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package,
	info *types.Info, path string, imports map[string]*PackageFacts) (*PackageFacts, []Diagnostic) {

	p := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, Path: path}
	pf := NewPackageFacts(path)
	var diags []Diagnostic

	collectOwners(p, pf, &diags)

	var funcs []*funcInfo
	byKey := map[string]*funcInfo{}
	for _, f := range p.SrcFiles() {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(fn)
			if key == "" {
				continue
			}
			fi := summarizeFunc(p, decl, key)
			funcs = append(funcs, fi)
			byKey[key] = fi
		}
	}

	// Fixpoint over same-package calls; imported facts are consulted
	// through fs and are already closed, so one lookup suffices.
	fs := &FactSet{Cur: pf, Imports: imports}
	for changed := true; changed; {
		changed = false
		for _, fi := range funcs {
			before := fi.sum
			for _, cs := range fi.calls {
				var csum FuncSummary
				var ok bool
				if cs.callee.Pkg() == pkg {
					if local := byKey[funcKey(cs.callee)]; local != nil {
						csum, ok = local.sum, true
					}
				} else {
					csum, ok = fs.SummaryOf(cs.callee)
				}
				if !ok {
					continue
				}
				mergeCall(&fi.sum, csum, cs)
			}
			if !summaryEqual(before, fi.sum) {
				changed = true
			}
		}
	}
	for _, fi := range funcs {
		if !fi.sum.zero() {
			pf.Funcs[fi.key] = fi.sum
		}
	}
	return pf, diags
}

// mergeCall folds one callee summary into the caller's, relocating
// receiver/parameter fold targets through the call site's argument
// roots.
func mergeCall(sum *FuncSummary, csum FuncSummary, cs callSite) {
	sum.JournalAppend = sum.JournalAppend || csum.JournalAppend
	if csum.WritesRecv && cs.recv.kind == rootRecv {
		sum.WritesRecv = true
	}
	if csum.FoldGlobal {
		sum.FoldGlobal = true
	}
	var targets []rootClass
	if csum.FoldRecv {
		targets = append(targets, cs.recv)
	}
	for _, j := range csum.FoldParams {
		if j < len(cs.args) {
			targets = append(targets, cs.args[j])
		}
	}
	for _, t := range targets {
		switch t.kind {
		case rootRecv:
			sum.FoldRecv = true
		case rootParam:
			addFoldParam(sum, t.param)
		case rootOuter:
			sum.FoldGlobal = true
		}
	}
}

func addFoldParam(sum *FuncSummary, i int) {
	for _, j := range sum.FoldParams {
		if j == i {
			return
		}
	}
	sum.FoldParams = append(sum.FoldParams, i)
	sort.Ints(sum.FoldParams)
}

func summaryEqual(a, b FuncSummary) bool {
	return slices.Equal(a.FoldParams, b.FoldParams) &&
		a.FoldRecv == b.FoldRecv && a.FoldGlobal == b.FoldGlobal &&
		a.WritesRecv == b.WritesRecv && a.JournalAppend == b.JournalAppend
}

// summarizeFunc computes one function's direct summary and call list.
func summarizeFunc(p *Pass, decl *ast.FuncDecl, key string) *funcInfo {
	fi := frameOf(p, decl)
	fi.key = key

	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			summarizeCall(p, fi, x)
		case *ast.AssignStmt:
			folds := floatFolds(p, x)
			for _, lhs := range x.Lhs {
				summarizeWrite(p, fi, lhs, slices.Contains(folds, lhs))
			}
		case *ast.IncDecStmt:
			summarizeWrite(p, fi, x.X, len(floatFolds(p, x)) > 0)
		}
		return true
	})
	return fi
}

// summarizeCall records the call for the fixpoint and detects a direct
// journal append.
func summarizeCall(p *Pass, fi *funcInfo, call *ast.CallExpr) {
	callee := calleeFunc(p, call)
	if callee == nil {
		return
	}
	if isJournalAppendCallee(callee) {
		fi.sum.JournalAppend = true
	}
	cs := callSite{callee: callee}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && callee.Type().(*types.Signature).Recv() != nil {
		cs.recv = classifyRoot(p, fi, sel.X)
	}
	for _, arg := range call.Args {
		cs.args = append(cs.args, classifyRoot(p, fi, arg))
	}
	fi.calls = append(fi.calls, cs)
}

// isJournalAppendCallee reports a method named Append on a type
// declared in a package whose import path ends in "journal" — the
// repo's write-ahead journal convention (internal/pocd/journal).
func isJournalAppendCallee(fn *types.Func) bool {
	if fn == nil || fn.Name() != "Append" || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	segs := strings.Split(fn.Pkg().Path(), "/")
	return segs[len(segs)-1] == "journal"
}

// summarizeWrite records one lvalue write: a receiver-state write
// (WritesRecv) and, when fold is true, an order-sensitive float fold
// located by the lvalue's root.
func summarizeWrite(p *Pass, fi *funcInfo, lhs ast.Expr, fold bool) {
	if _, bare := lhs.(*ast.Ident); bare {
		// Rebinding a local name (including the receiver or a value
		// parameter) never escapes the frame; x += v on a bare float
		// parameter folds into a copy.
		if !fold {
			return
		}
		rc := classifyRoot(p, fi, lhs)
		if rc.kind == rootOuter {
			fi.sum.FoldGlobal = true
		}
		return
	}
	rc := classifyRoot(p, fi, lhs)
	if rc.kind == rootRecv {
		fi.sum.WritesRecv = true
	}
	if !fold {
		return
	}
	switch rc.kind {
	case rootRecv:
		fi.sum.FoldRecv = true
	case rootParam:
		if refLike(fi.params[rc.param].Type()) {
			addFoldParam(&fi.sum, rc.param)
		}
	case rootOuter:
		fi.sum.FoldGlobal = true
	}
}

// frameOf returns decl's frame (receiver and parameters), against
// which classifyRoot resolves expressions.
func frameOf(pass *Pass, decl *ast.FuncDecl) *funcInfo {
	fi := &funcInfo{decl: decl}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		fi.recv = pass.ObjectOf(decl.Recv.List[0].Names[0])
	}
	if fn, ok := pass.Info.Defs[decl.Name].(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				fi.params = append(fi.params, sig.Params().At(i))
			}
		}
	}
	return fi
}

// classifyRoot resolves an expression's leftmost identifier against
// the function's frame.
func classifyRoot(p *Pass, fi *funcInfo, e ast.Expr) rootClass {
	id := rootIdent(e)
	if id == nil {
		return rootClass{kind: rootNone}
	}
	obj := p.ObjectOf(id)
	if obj == nil {
		return rootClass{kind: rootNone}
	}
	if _, isPkg := obj.(*types.PkgName); isPkg {
		return rootClass{kind: rootNone}
	}
	if obj.Parent() == types.Universe {
		return rootClass{kind: rootNone}
	}
	if fi.recv != nil && obj == fi.recv {
		return rootClass{kind: rootRecv}
	}
	for i, po := range fi.params {
		if obj == po {
			return rootClass{kind: rootParam, param: i}
		}
	}
	if obj.Pos() >= fi.decl.Pos() && obj.Pos() <= fi.decl.End() {
		return rootClass{kind: rootLocal}
	}
	return rootClass{kind: rootOuter}
}

// refLike reports whether a parameter of this type aliases caller
// state, making a fold through it observable outside the callee.
func refLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// collectOwners parses //lint:owner directives on struct fields into
// pf.Owned.
func collectOwners(p *Pass, pf *PackageFacts, diags *[]Diagnostic) {
	for _, f := range p.SrcFiles() {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, fld := range st.Fields.List {
					owners, found := fieldOwners(p, fld, diags)
					if !found {
						continue
					}
					for _, name := range fld.Names {
						pf.Owned[ts.Name.Name+"."+name.Name] = owners
					}
				}
			}
		}
	}
}

// fieldOwners parses a field's //lint:owner directive from its doc
// comment (line above) or trailing comment (same line).
func fieldOwners(p *Pass, fld *ast.Field, diags *[]Diagnostic) ([]string, bool) {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, found := strings.CutPrefix(c.Text, "//lint:owner")
			if !found {
				continue
			}
			var owners []string
			for _, field := range strings.Fields(rest) {
				for _, name := range strings.Split(field, ",") {
					if name != "" {
						owners = append(owners, name)
					}
				}
			}
			if len(owners) == 0 {
				*diags = append(*diags, Diagnostic{
					Pos: p.Fset.Position(c.Pos()), Analyzer: "poclint",
					Message: "malformed //lint:owner: need at least one owner function",
				})
				continue
			}
			sort.Strings(owners)
			return owners, true
		}
	}
	return nil, false
}
