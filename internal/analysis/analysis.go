// Package analysis is poclint's static-analysis framework: a minimal,
// dependency-free re-implementation of the golang.org/x/tools
// go/analysis model, plus the seven analyzers that mechanize this
// repo's determinism and safety invariants (DESIGN.md §9, §14).
//
// The repo's whole evaluation pipeline is gated on byte-identical
// output across runs and across Workers settings. The bug classes
// that break that gate — float accumulation in map-iteration order,
// process-seeded randomness, wall clocks in simulation code,
// nil-unsafe observability accessors, scheduling-ordered float
// reductions — are invisible to go vet, -race and every verdict-level
// test, so they are enforced here, mechanically, at CI time via
//
//	go vet -vettool=$(which poclint) ./...
//
// The framework mirrors go/analysis (Analyzer, Pass, Diagnostic) so
// the analyzers could be ported to the x/tools multichecker verbatim;
// it is reimplemented because this repo builds offline from the
// standard library alone. The vet driver lives in unitchecker.go.
//
// Sanctioned exceptions are annotated in source as
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line above it; the reason is mandatory
// (a bare directive is itself a diagnostic). See allow.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Version identifies the lint baseline. Bench and sim artifacts embed
// it so every archived JSON records which invariant suite the tree
// passed when the artifact was produced. Bump when an analyzer is
// added, removed, or materially re-scoped.
const Version = "poclint/v3"

// An Analyzer is one named invariant check.
type Analyzer struct {
	Name string
	Doc  string

	// Applies reports whether the analyzer runs on the package with
	// the given import path. A nil Applies runs everywhere. Gating is
	// by path so e.g. wall clocks stay legal in cmd/ and examples/.
	Applies func(path string) bool

	Run func(*Pass) error
}

// All is the poclint suite. It is also the set of names a
// //lint:allow directive may cite.
var All = []*Analyzer{
	FloatOrder, SeededRand, WallTime, ObsGuard,
	ArenaPair, JournalOrder, WriterEscape,
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Path     string // canonical import path
	// Facts is the fact universe: this package's summaries plus those
	// of its analyzed imports (facts.go). Never nil inside Run.
	Facts *FactSet

	diags *[]Diagnostic
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// SrcFiles returns the package's non-test files. The invariants bind
// production code; _test.go files may use clocks, global rand and
// unordered iteration freely (the determinism gates themselves are
// tests).
func (p *Pass) SrcFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by ident, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// RunAnalyzersWithFacts computes the package's facts (consulting
// imported facts where provided), runs every applicable analyzer with
// the full fact universe, and returns the suppressed/sorted
// diagnostics together with the package's own facts for the driver to
// persist. Malformed facts directives (//lint:acquire, //lint:release,
// //lint:owner) are reported alongside analyzer diagnostics.
func RunAnalyzersWithFacts(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, path string,
	imports map[string]*PackageFacts) ([]Diagnostic, *PackageFacts, error) {

	facts, diags := ComputeFacts(fset, files, pkg, info, path, imports)
	if imports == nil {
		imports = map[string]*PackageFacts{}
	}
	fs := &FactSet{Cur: facts, Imports: imports}
	for _, a := range analyzers {
		if a.Applies != nil && !a.Applies(path) {
			continue
		}
		pass := &Pass{
			Analyzer: a, Fset: fset, Files: files,
			Pkg: pkg, Info: info, Path: path, Facts: fs, diags: &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	return applyAllows(fset, files, diags), facts, nil
}

// hasSegment reports whether path contains seg as a whole '/'-separated
// element ("a/internal/b" has "internal"; "a/internals/b" does not).
func hasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// isFloat reports whether t's underlying type is a floating-point
// basic type (the only kind whose addition is order-sensitive).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// rootIdent returns the leftmost identifier of a selector/index/star/
// address-of chain (&res.usedGbps[k] → res), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// exprString renders a short lvalue for a message.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[" + exprString(x.Index) + "]"
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "(…)"
	case *ast.ParenExpr:
		return "(" + exprString(x.X) + ")"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	}
	return "expression"
}

// declaredWithin reports whether the object behind e's root identifier
// is declared inside [lo, hi]. Unresolvable roots count as outside
// (conservative: package-level and imported state is "outside").
func (p *Pass) declaredWithin(e ast.Expr, lo, hi token.Pos) bool {
	id := rootIdent(e)
	if id == nil {
		return false
	}
	obj := p.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= lo && obj.Pos() <= hi
}

// pkgFunc reports whether ident uses a package-level function of the
// package with import path pkgPath, returning its name.
func (p *Pass) pkgFunc(id *ast.Ident, pkgPath string) (string, bool) {
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false // method, not a package-level function
	}
	return fn.Name(), true
}
