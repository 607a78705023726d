package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file implements the still-unpublished command-line protocol
// cmd/go speaks to a `go vet -vettool=` binary (the same protocol as
// golang.org/x/tools/go/analysis/unitchecker, re-derived here from
// cmd/go/internal/work/exec.go so the tool builds offline from the
// standard library):
//
//   - `tool -flags` must print a JSON array of the tool's flags.
//     poclint has none — every analyzer always runs — so it prints [].
//   - `tool -V=full` must print one "name version ..." line (build
//     cache fingerprinting).
//   - `tool path/to/vet.cfg` must type-check the single
//     package described by the JSON config, print diagnostics to
//     stderr as "file:line:col: message", write the (possibly empty)
//     facts file to VetxOutput, and exit 0 (clean) / 2 (findings).
//
// Type-checking uses the export data cmd/go already compiled for every
// dependency (Config.PackageFile), loaded through go/importer's
// lookup hook — no source re-typechecking, so the whole-tree run adds
// only seconds on top of the build.

// Config mirrors cmd/go's vetConfig: the description of one package.
type Config struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// Main is the entry point for a vettool binary built from this
// framework (cmd/poclint). It never returns.
func Main(analyzers ...*Analyzer) {
	progname := filepath.Base(os.Args[0])
	args := os.Args[1:]

	// Protocol queries, answered before general flag parsing because
	// cmd/go issues them with exactly one argument.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		os.Exit(0)
	}
	if len(args) == 1 && (args[0] == "-V=full" || args[0] == "-V") {
		printVersion(progname)
		os.Exit(0)
	}
	if len(args) != 1 || !strings.HasSuffix(args[0], ".cfg") {
		fmt.Fprintf(os.Stderr, "usage: %s vet.cfg\n\n", progname)
		fmt.Fprintf(os.Stderr, "%s is this repo's invariant checker; run it via\n", progname)
		fmt.Fprintf(os.Stderr, "\tgo vet -vettool=$(which %s) ./...\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		os.Exit(2)
	}

	diags, err := AnalyzeUnit(args[0], analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

// AnalyzeUnit loads the package described by the vet.cfg file at
// cfgPath, computes its facts (reading dependency facts from the
// PackageVetx files cmd/go threads between units), writes them to
// VetxOutput, and — unless this is a facts-only dependency pass —
// runs the analyzers and returns the surviving diagnostics.
func AnalyzeUnit(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	writeFacts := func(pf *PackageFacts) error {
		if cfg.VetxOutput == "" {
			return nil
		}
		enc, err := EncodeFacts(pf)
		if err != nil {
			return err
		}
		return os.WriteFile(cfg.VetxOutput, enc, 0o666)
	}
	// A dependency (facts-only) pass must never fail the build over a
	// package we cannot fully analyze (assembly-backed std internals,
	// cgo): empty facts just mean the importer's analyzers see no
	// summaries for it, the exact v1 behavior.
	fail := func(err error) ([]Diagnostic, error) {
		if cfg.VetxOnly || cfg.SucceedOnTypecheckFailure {
			return nil, writeFacts(NewPackageFacts(cfg.ImportPath))
		}
		return nil, err
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return fail(err)
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tc := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(error) {}, // collect only the first, via the return below
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return fail(fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err))
	}

	imports := loadDepFacts(cfg)
	if cfg.VetxOnly {
		pf, _ := ComputeFacts(fset, files, pkg, info, cfg.ImportPath, imports)
		return nil, writeFacts(pf)
	}
	diags, pf, err := RunAnalyzersWithFacts(analyzers, fset, files, pkg, info, cfg.ImportPath, imports)
	if err != nil {
		return nil, err
	}
	return diags, writeFacts(pf)
}

// loadDepFacts reads the facts files of every dependency cmd/go ran a
// facts pass for. Unreadable or stale files decode as empty — a
// missing summary can only silence a fact-consuming analyzer, never
// break the run.
func loadDepFacts(cfg Config) map[string]*PackageFacts {
	imports := make(map[string]*PackageFacts, len(cfg.PackageVetx))
	for path, file := range cfg.PackageVetx {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		pf, err := DecodeFacts(data)
		if err != nil || pf == nil {
			continue
		}
		if pf.Path == "" {
			pf.Path = path
		}
		imports[path] = pf
	}
	return imports
}

// printVersion answers `tool -V=full` with a line keyed to the
// binary's own content hash, the same shape x/tools' unitchecker
// prints, so build caching invalidates when the tool changes.
func printVersion(progname string) {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}
