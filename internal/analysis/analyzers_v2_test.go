package analysis

// Tests for the fact-consuming analyzers and the facts layer itself.
// The testdata trees follow the same convention as analyzers_test.go:
// positive cases carry `// want "re"` comments, negatives none, and
// each analyzer has a sanctioned //lint:allow case.

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

func TestJournalOrder(t *testing.T) { expectSuite(t, "pocd/srvlab") }
func TestWriterEscape(t *testing.T) { expectSuite(t, "writerlab") }

// Cross-package: the annotation/summary lives in the imported package;
// only the facts layer can carry it to the diagnostic site.
func TestWriterEscapeCrossPackage(t *testing.T) { expectSuite(t, "writerlab/client") }

// The journal provider package itself is clean.
func TestJournalProviderClean(t *testing.T) { expectSuite(t, "pocd/journal") }

// TestFactsRoundTrip is the golden facts-file test: encode → decode →
// identical summaries, deterministic bytes, zero summaries stripped,
// and graceful decoding of empty or foreign-schema files.
func TestFactsRoundTrip(t *testing.T) {
	pf := NewPackageFacts("example.com/p")
	pf.Funcs["Acc.Add"] = FuncSummary{FoldRecv: true, WritesRecv: true}
	pf.Funcs["Route"] = FuncSummary{FoldParams: []int{0, 2}, FoldGlobal: true}
	pf.Funcs["Server.loop"] = FuncSummary{WritesRecv: true, JournalAppend: true}
	pf.Funcs["pure"] = FuncSummary{} // zero: must be stripped
	pf.Owned["Server.st"] = []string{"New", "Server.loop"}

	enc, err := EncodeFacts(pf)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeFacts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Path != pf.Path || dec.Schema != FactsSchema {
		t.Errorf("path/schema drifted: %+v", dec)
	}
	if _, ok := dec.Funcs["pure"]; ok {
		t.Errorf("zero summary survived encoding")
	}
	for _, key := range []string{"Acc.Add", "Route", "Server.loop"} {
		got, ok := dec.Funcs[key]
		if !ok {
			t.Errorf("summary %s lost in round trip", key)
			continue
		}
		if !summaryEqual(got, pf.Funcs[key]) {
			t.Errorf("summary %s drifted: got %+v want %+v", key, got, pf.Funcs[key])
		}
	}
	if got := dec.Owned["Server.st"]; len(got) != 2 || got[0] != "New" || got[1] != "Server.loop" {
		t.Errorf("owners drifted: %v", got)
	}

	// Byte-determinism: re-encoding the decoded facts is identical.
	enc2, err := EncodeFacts(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("facts encoding not byte-stable:\n%s\nvs\n%s", enc, enc2)
	}

	// Empty file (v1 driver wrote these) and foreign schema both
	// decode as empty fact sets, never as errors.
	if pf2, err := DecodeFacts(nil); err != nil || len(pf2.Funcs) != 0 {
		t.Errorf("empty facts file: %v %+v", err, pf2)
	}
	foreign := []byte(`{"schema":"poclint-facts/v999","path":"x","funcs":{"F":{"fold_global":true}}}`)
	if pf3, err := DecodeFacts(foreign); err != nil || len(pf3.Funcs) != 0 {
		t.Errorf("foreign schema must decode empty: %v %+v", err, pf3)
	}
	if _, err := DecodeFacts([]byte("{not json")); err == nil {
		t.Errorf("corrupt facts file must error")
	}
}

// memLoader type-checks in-memory single-file packages, threading
// facts in dependency order — a miniature of the unitchecker driver
// for tests that need to *edit* a dependency between runs.
type memLoader struct {
	srcs   map[string]string
	loaded map[string]*loadedPkg
	facts  map[string]*PackageFacts
	std    types.ImporterFrom
}

func newMemLoader(srcs map[string]string) *memLoader {
	return &memLoader{
		srcs:   srcs,
		loaded: map[string]*loadedPkg{},
		facts:  map[string]*PackageFacts{},
		std:    importer.ForCompiler(token.NewFileSet(), "source", nil).(types.ImporterFrom),
	}
}

func (ml *memLoader) Import(path string) (*types.Package, error) {
	return ml.ImportFrom(path, "", 0)
}

func (ml *memLoader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	lp, err := ml.load(path)
	if err != nil {
		return nil, err
	}
	if lp != nil {
		return lp.pkg, nil
	}
	return ml.std.ImportFrom(path, dir, mode)
}

func (ml *memLoader) load(path string) (*loadedPkg, error) {
	if lp, ok := ml.loaded[path]; ok {
		return lp, nil
	}
	src, ok := ml.srcs[path]
	if !ok {
		return nil, nil
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	tc := &types.Config{Importer: ml}
	pkg, err := tc.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	lp := &loadedPkg{fset: fset, files: []*ast.File{f}, pkg: pkg, info: info}
	ml.loaded[path] = lp
	pf, _ := ComputeFacts(fset, lp.files, pkg, info, path, ml.facts)
	ml.facts[path] = pf
	return lp, nil
}

func (ml *memLoader) run(t *testing.T, a *Analyzer, path string) []Diagnostic {
	t.Helper()
	lp, err := ml.load(path)
	if err != nil {
		t.Fatal(err)
	}
	if lp == nil {
		t.Fatalf("package %s not found", path)
	}
	diags, _, err := RunAnalyzersWithFacts([]*Analyzer{a}, lp.fset, lp.files, lp.pkg, lp.info, path, ml.facts)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

const staleConsumerSrc = `package use

import "dep"

func Sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		dep.AddTo(&t, v)
	}
	return t
}
`

// TestStaleFacts proves diagnostics track the dependency's *current*
// facts: the same consumer source is clean against a fold-free
// dependency and flagged after the dependency is edited to fold —
// i.e. cached facts for the old dependency would be stale and must be
// recomputed, which is exactly what cmd/go's vetx invalidation (and
// this in-process loader) does.
func TestStaleFacts(t *testing.T) {
	clean := newMemLoader(map[string]string{
		"dep": "package dep\n\nfunc AddTo(dst *float64, v float64) { *dst = v }\n",
		"use": staleConsumerSrc,
	})
	if diags := clean.run(t, FloatOrder, "use"); len(diags) != 0 {
		t.Fatalf("fold-free dependency must be clean, got %v", diags)
	}

	edited := newMemLoader(map[string]string{
		"dep": "package dep\n\nfunc AddTo(dst *float64, v float64) { *dst += v }\n",
		"use": staleConsumerSrc,
	})
	diags := edited.run(t, FloatOrder, "use")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "AddTo folds floats") {
		t.Fatalf("edited dependency must flag the consumer, got %v", diags)
	}
}

// TestOwnerDirectiveMalformed covers the //lint:owner error path that
// cannot carry a same-line want comment (the comment text would parse
// as owner names).
func TestOwnerDirectiveMalformed(t *testing.T) {
	ml := newMemLoader(map[string]string{
		"ownbad": "package ownbad\n\ntype S struct {\n\t//lint:owner\n\tn int\n}\n",
	})
	lp, err := ml.load("ownbad")
	if err != nil {
		t.Fatal(err)
	}
	_, diags := ComputeFacts(lp.fset, lp.files, lp.pkg, lp.info, "ownbad", nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "//lint:owner") {
		t.Fatalf("want one malformed-owner diagnostic, got %v", diags)
	}
}

// TestSummaryFixpoint asserts the summary lattice directly on a small
// package: fold relocation through wrappers.
func TestSummaryFixpoint(t *testing.T) {
	ml := newMemLoader(map[string]string{
		"fix": `package fix

type Acc struct{ total float64 }

func (a *Acc) Add(v float64) { a.total += v }

func AddVia(a *Acc, v float64) { a.Add(v) }
`,
	})
	if _, err := ml.load("fix"); err != nil {
		t.Fatal(err)
	}
	facts := ml.facts["fix"]
	if s := facts.Funcs["Acc.Add"]; !s.FoldRecv {
		t.Errorf("Acc.Add: want FoldRecv, got %+v", s)
	}
	// The receiver fold relocates to parameter 0 of the wrapper.
	if s := facts.Funcs["AddVia"]; len(s.FoldParams) != 1 || s.FoldParams[0] != 0 {
		t.Errorf("AddVia: want FoldParams [0], got %+v", s)
	}
}
