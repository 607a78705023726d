package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsGuard enforces the obs layer's nil-safety contract from both
// sides. A nil *obs.Registry is the documented "observability off"
// mode: every hot path calls methods on a possibly-nil receiver and
// pays one branch. That only holds while every exported method
// actually guards the nil receiver — one unguarded method added to
// the package turns every instrumented call site into a latent panic.
//
// Inside an obs package (import path whose last element is "obs"),
// for every type that follows the convention (at least one exported
// pointer-receiver method opening with an `if recv == nil` guard),
// ObsGuard requires
// each exported pointer-receiver method to be nil-safe: either it
// guards the receiver before first use, or every use of the receiver
// is a call to an already-nil-safe method of the same type
// (transitive safety, computed to a fixpoint — this is how
// MarshalJSON/WriteJSON/WriteFile delegate to the guarded snapshot).
// Exported value-receiver methods on such a type are flagged
// unconditionally: calling one through a nil pointer dereferences it.
//
// Outside the obs package, ObsGuard flags explicit dereferences
// (*reg) of a pointer to an obs type: copying the registry value
// copies its mutex and panics when observability is off.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "obs.Registry must stay nil-safe: guard receivers in obs, never deref *Registry outside",
	Run:  runObsGuard,
}

func runObsGuard(pass *Pass) error {
	if isObsPath(pass.Path) {
		checkObsPackage(pass)
		return nil
	}
	checkObsConsumers(pass)
	return nil
}

// isObsPath reports whether the import path's last element is "obs"
// (".../jobs" and ".../knobs" are not obs packages).
func isObsPath(path string) bool {
	return path == "obs" || strings.HasSuffix(path, "/obs")
}

// ---- consumer side ----

func checkObsConsumers(pass *Pass) {
	for _, f := range pass.SrcFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			star, ok := n.(*ast.StarExpr)
			if !ok {
				return true
			}
			// A StarExpr is a dereference only in expression position
			// with a pointer operand (in type position TypeOf is nil
			// or the operand is a type name).
			t := pass.TypeOf(star.X)
			ptr, ok := t.(*types.Pointer)
			if !ok {
				return true
			}
			if named := namedObsType(ptr.Elem()); named != "" {
				pass.Reportf(star.Pos(),
					"dereferencing *%s copies its mutex and panics when observability is off (nil registry); call its nil-safe methods instead", named)
			}
			return true
		})
	}
}

// namedObsType returns the type's name when it is a named type
// declared in an obs package (or an alias to one, like poc.Observer).
func namedObsType(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if pkg := named.Obj().Pkg(); pkg != nil && isObsPath(pkg.Path()) {
		return named.Obj().Name()
	}
	return ""
}

// ---- obs package side ----

type methodInfo struct {
	decl    *ast.FuncDecl
	recvObj types.Object
	guarded bool // direct `if recv == nil` before first receiver use
	safe    bool
}

func checkObsPackage(pass *Pass) {
	// Group pointer-receiver methods (and spot value receivers) per
	// receiver type name.
	ptrMethods := map[string]map[string]*methodInfo{}
	valueMethods := map[string][]*ast.FuncDecl{}
	for _, f := range pass.SrcFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			tname, isPtr := recvTypeName(fd.Recv.List[0].Type)
			if tname == "" {
				continue
			}
			if !isPtr {
				valueMethods[tname] = append(valueMethods[tname], fd)
				continue
			}
			mi := &methodInfo{decl: fd}
			if names := fd.Recv.List[0].Names; len(names) == 1 {
				mi.recvObj = pass.ObjectOf(names[0])
			}
			mi.guarded = hasLeadingNilGuard(pass, fd, mi.recvObj)
			mi.safe = mi.guarded
			if ptrMethods[tname] == nil {
				ptrMethods[tname] = map[string]*methodInfo{}
			}
			ptrMethods[tname][fd.Name.Name] = mi
		}
	}

	for tname, methods := range ptrMethods {
		if !followsNilConvention(methods) {
			continue
		}
		// Fixpoint: a method is safe if guarded, or if every receiver
		// use is a call to a safe sibling.
		for changed := true; changed; {
			changed = false
			for _, mi := range methods {
				if !mi.safe && receiverUsesAreSafeCalls(pass, mi, methods) {
					mi.safe = true
					changed = true
				}
			}
		}
		for name, mi := range methods {
			if !mi.safe && ast.IsExported(name) {
				pass.Reportf(mi.decl.Name.Pos(),
					"exported method (*%s).%s uses the receiver without a nil guard; a nil registry call site will panic — open with `if %s == nil { return … }` or delegate to a nil-safe method",
					tname, name, recvName(mi))
			}
		}
		for _, fd := range valueMethods[tname] {
			if ast.IsExported(fd.Name.Name) {
				pass.Reportf(fd.Name.Pos(),
					"exported method %s.%s has a value receiver on a nil-safe type; calling it through a nil pointer panics — use a pointer receiver with a nil guard",
					tname, fd.Name.Name)
			}
		}
	}
}

// followsNilConvention reports whether any exported pointer method of
// the type opens with a nil guard — the signal that the type promises
// nil-safety and the rest must keep it.
func followsNilConvention(methods map[string]*methodInfo) bool {
	for name, mi := range methods {
		if mi.guarded && ast.IsExported(name) {
			return true
		}
	}
	return false
}

func recvName(mi *methodInfo) string {
	if mi.recvObj != nil {
		return mi.recvObj.Name()
	}
	return "recv"
}

// recvTypeName unwraps a method receiver type to (type name, pointer?).
func recvTypeName(e ast.Expr) (string, bool) {
	isPtr := false
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			isPtr = true
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name, isPtr
		case *ast.IndexExpr: // generic receiver
			e = t.X
		default:
			return "", isPtr
		}
	}
}

// hasLeadingNilGuard reports whether the method guards the nil
// receiver before its first receiver use: statements preceding the
// guard must not touch the receiver, and the guard's body must
// terminate in a return.
func hasLeadingNilGuard(pass *Pass, fd *ast.FuncDecl, recvObj types.Object) bool {
	if fd.Body == nil || recvObj == nil {
		return false
	}
	for _, st := range fd.Body.List {
		if ifst, ok := st.(*ast.IfStmt); ok && ifst.Init == nil && isNilCheck(pass, ifst.Cond, recvObj) && endsInReturn(ifst.Body) {
			return true
		}
		if usesObject(pass, st, recvObj) {
			return false
		}
	}
	return false
}

func isNilCheck(pass *Pass, cond ast.Expr, recvObj types.Object) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return false
	}
	return (isObjIdent(pass, bin.X, recvObj) && isNilIdent(bin.Y)) ||
		(isObjIdent(pass, bin.Y, recvObj) && isNilIdent(bin.X))
}

func isObjIdent(pass *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.ObjectOf(id) == obj
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

func usesObject(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// receiverUsesAreSafeCalls reports whether every receiver use in the
// method body is either recv.M(...) with M already safe, or a
// comparison of recv against nil.
func receiverUsesAreSafeCalls(pass *Pass, mi *methodInfo, methods map[string]*methodInfo) bool {
	if mi.decl.Body == nil || mi.recvObj == nil {
		return false
	}
	type ctx struct {
		safeCallRecv map[*ast.Ident]bool
	}
	c := ctx{safeCallRecv: map[*ast.Ident]bool{}}
	// First mark receiver idents appearing as recv in safe calls or
	// nil comparisons.
	ast.Inspect(mi.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && pass.ObjectOf(id) == mi.recvObj {
					if sib, ok := methods[sel.Sel.Name]; ok && sib.safe {
						c.safeCallRecv[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				for _, side := range []ast.Expr{x.X, x.Y} {
					if id, ok := side.(*ast.Ident); ok && pass.ObjectOf(id) == mi.recvObj {
						if isNilIdent(x.X) || isNilIdent(x.Y) {
							c.safeCallRecv[id] = true
						}
					}
				}
			}
		}
		return true
	})
	allSafe := true
	ast.Inspect(mi.decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.ObjectOf(id) == mi.recvObj && !c.safeCallRecv[id] {
			allSafe = false
		}
		return allSafe
	})
	return allSafe
}
