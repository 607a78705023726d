package analysis

// An analysistest-style harness built on the source importer: each
// testdata package under testdata/src/<importpath> is parsed,
// type-checked (resolving sibling testdata packages first, then the
// standard library), run through the whole suite plus the //lint:allow
// driver pass exactly as cmd/go runs it, and its diagnostics are
// matched against `// want "re"` comments the same way
// golang.org/x/tools/go/analysis/analysistest does: every want must be
// matched by a diagnostic on its line, every diagnostic must be
// matched by a want. Running every analyzer means a package's
// negatives are negatives for the whole suite, not just for the
// analyzer the package was written for.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadedPkg is one type-checked testdata package.
type loadedPkg struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// testImporter resolves testdata sibling packages before the std
// library, loading them on demand (obsguard's consumer tests import a
// mock obs package).
type testImporter struct {
	t      *testing.T
	root   string
	loaded map[string]*loadedPkg
	// facts accumulates per-package facts in dependency order — the
	// in-process equivalent of the unitchecker's PackageVetx files, so
	// analyzer tests exercise cross-package summary consumption.
	facts map[string]*PackageFacts
	std   types.ImporterFrom
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	return ti.ImportFrom(path, "", 0)
}

func (ti *testImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if lp, err := ti.load(path); err == nil && lp != nil {
		return lp.pkg, nil
	} else if err != nil {
		return nil, err
	}
	return ti.std.ImportFrom(path, dir, mode)
}

// load type-checks the testdata package at root/src/<path>, returning
// (nil, nil) when no such directory exists (std fallback).
func (ti *testImporter) load(path string) (*loadedPkg, error) {
	if lp, ok := ti.loaded[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ti.root, "src", filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tc := &types.Config{Importer: ti}
	pkg, err := tc.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	lp := &loadedPkg{fset: fset, files: files, pkg: pkg, info: info}
	ti.loaded[path] = lp
	// Imports were loaded (and summarized) recursively above, so their
	// facts are already in ti.facts — same bottom-up order as cmd/go.
	pf, _ := ComputeFacts(fset, files, pkg, info, path, ti.facts)
	ti.facts[path] = pf
	return lp, nil
}

// runSuite loads testdata/src/<path> and returns the diagnostics All
// (plus the allow-directive driver pass) produces for it. Applies
// gating is honored, so a path can also exercise exemptions.
func runSuite(t *testing.T, path string) ([]Diagnostic, *loadedPkg) {
	t.Helper()
	ti := &testImporter{
		t:      t,
		root:   "testdata",
		loaded: map[string]*loadedPkg{},
		facts:  map[string]*PackageFacts{},
		std:    importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
	}
	lp, err := ti.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if lp == nil {
		t.Fatalf("testdata package %s not found", path)
	}
	diags, _, err := RunAnalyzersWithFacts(All, lp.fset, lp.files, lp.pkg, lp.info, path, ti.facts)
	if err != nil {
		t.Fatal(err)
	}
	return diags, lp
}

// wantRe matches the expectation comments: // want "re" "re2" ...
var wantRe = regexp.MustCompile(`// want((?: "(?:[^"\\]|\\.)*")+)`)

// checkDiagnostics cross-matches diagnostics against the package's
// `// want` comments.
func checkDiagnostics(t *testing.T, lp *loadedPkg, diags []Diagnostic) {
	t.Helper()
	type want struct {
		file string
		line int
		re   *regexp.Regexp
		hit  bool
	}
	var wants []*want
	for _, f := range lp.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := lp.fset.Position(c.Pos())
				for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// expectSuite runs the whole suite over the package and matches its
// output against the package's want comments; a package without wants
// must come out clean.
func expectSuite(t *testing.T, path string) {
	t.Helper()
	diags, lp := runSuite(t, path)
	checkDiagnostics(t, lp, diags)
}
