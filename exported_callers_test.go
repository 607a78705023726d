package poc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// programCallerAllowlist names the exported functions, methods and
// facade names that may stay without a caller in a non-test file, each
// with the one reason it stays. TestExportedNamesHaveProgramCallers
// fails on an entry that gains a caller or no longer exists, so the
// list only shrinks.
var programCallerAllowlist = map[string]string{
	"internal/netsim.Fabric.StartMulticast":        "paper feature (§3.1 multicast) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/netsim.Fabric.StopMulticast":         "paper feature (§3.1 multicast) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/netsim.Fabric.Multicasts":            "paper feature (§3.1 multicast) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/netsim.Fabric.UnicastEquivalentGbps": "paper feature (§3.1 multicast) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/netsim.Multicast.TreeGbps":           "paper feature (§3.1 multicast) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/core.POC.StartQoSFlow":               "paper feature (§3.1 QoS classes) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/core.POC.CheckSLAs":                  "paper feature (§3.1 QoS classes) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/federation.Federation.CrossFlows":    "paper feature (§1.2 federation) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/federation.Federation.StopCrossFlow": "paper feature (§1.2 federation) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/edge.Service.Caches":                 "paper feature (§3.1 edge services) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/edge.Service.MonthlyFee":             "paper feature (§3.2 edge billing) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/econ.AverageFee":                     "paper feature (§4 fees) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/econ.Advantage":                      "paper feature (§4.5 incumbent advantage) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/econ.EntryModel.Viable":              "paper feature (§2.3 entry) with no artifact section yet; ROADMAP lists it for wiring",
	"internal/regimesim.Result.TotalWelfare":       "paper feature (§4 welfare) with no artifact section yet; ROADMAP lists it for wiring",
	"poc.CompareRegimes":                           "documented by the godoc Example ExampleCompareRegimes",
	"poc.AuditPolicy":                              "documented by the godoc Example ExampleAuditPolicy",
	"poc.PeeringRule":                              "documented by the godoc Example ExampleAuditPolicy",
	"poc.PeeringSelector":                          "documented by the godoc Example ExampleAuditPolicy",
}

// TestExportedNamesHaveProgramCallers keeps every exported function or
// method under internal/, every exported name of the root facade and
// every unexported function or method serving a program: each is
// referenced from a non-test file, implements an interface, or is on
// programCallerAllowlist.
func TestExportedNamesHaveProgramCallers(t *testing.T) {
	problems, err := uncalledExports(".", programCallerAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// TestUncalledExportsFixture runs the detector on a module built to
// hit each of its rules once.
func TestUncalledExportsFixture(t *testing.T) {
	got, err := uncalledExports(filepath.Join("testdata", "exportcheck"), map[string]string{
		"internal/lib.Removed": "stale: the function is gone",
		"internal/lib.Helper":  "stale: a non-test file calls it",
		"internal/lib.Planned": "kept: nothing calls it yet",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"exportcheck.Unused has no caller outside _test.go files",
		"internal/lib.Box.Put has no caller outside _test.go files",
		"internal/lib.TestOnly has no caller outside _test.go files",
		"internal/lib.Uncalled has no caller outside _test.go files",
		"internal/lib.orphan has no caller outside _test.go files",
		"allowlisted internal/lib.Helper has a caller now: delete its entry",
		"allowlisted internal/lib.Removed is nothing the rule covers: delete its entry",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// listedPackage is the part of `go list -json` output the detector
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Module     *struct{ Path string }
}

// goList runs `go list -json` with args in dir and decodes its stream
// of package objects.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// uncalledExports type-checks the non-test files of the module in dir
// and returns, sorted, one line per problem: an exported function or
// method declared under an internal/ directory, an exported name of
// the module's root package, or an unexported function or method
// anywhere (main and init aside), that no non-test file references and
// allow does not name; and an allow entry that names something now
// referenced, or nothing the rule covers. A reference is an Info.Uses
// or Info.Selections entry, taken through Origin so a call on an
// instantiation counts for the generic declaration. A method that
// implements a method of an interface declared in a loaded package,
// the standard library's included, is exempt: it is called through
// that interface. The standard library is read from export data.
func uncalledExports(dir string, allow map[string]string) ([]string, error) {
	pkgs, err := goList(dir, "-deps", "./...")
	if err != nil {
		return nil, err
	}
	var std []string
	for _, p := range pkgs {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	exports := map[string]string{}
	if len(std) > 0 {
		stdPkgs, err := goList(dir, append([]string{"-export"}, std...)...)
		if err != nil {
			return nil, err
		}
		for _, p := range stdPkgs {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	stdImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f, ok := exports[path]; ok && f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	checked := map[string]*types.Package{}
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return stdImporter.Import(path)
	})}

	type decl struct {
		key  string
		obj  types.Object
		recv *types.Named // the receiver's type for a method
	}
	var decls []decl
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		if p.Module == nil {
			return nil, fmt.Errorf("%s: not in a module", p.ImportPath)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp

		rel := strings.TrimPrefix(p.ImportPath, p.Module.Path+"/")
		if p.ImportPath == p.Module.Path {
			rel = tp.Name()
			for _, name := range tp.Scope().Names() {
				if obj := tp.Scope().Lookup(name); obj.Exported() {
					decls = append(decls, decl{key: rel + "." + name, obj: obj})
				}
			}
		}
		internal := slices.Contains(strings.Split(rel, "/"), "internal")
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				// Exported functions count under internal/ only; the
				// facade's are its scope names above. Unexported ones
				// count everywhere but main and init, which the
				// runtime calls.
				if name := fd.Name.Name; fd.Name.IsExported() && !internal ||
					fd.Recv == nil && (name == "main" || name == "init") {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				sig := fn.Type().(*types.Signature)
				if sig.Recv() == nil {
					decls = append(decls, decl{key: rel + "." + fn.Name(), obj: fn})
					continue
				}
				rt := sig.Recv().Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				named := rt.(*types.Named)
				decls = append(decls, decl{key: rel + "." + named.Obj().Name() + "." + fn.Name(), obj: fn, recv: named})
			}
		}
	}
	if len(checked) == 0 {
		return nil, fmt.Errorf("%s: no module packages", dir)
	}

	used := map[types.Object]bool{}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	for _, obj := range info.Uses {
		use(obj)
	}
	for _, sel := range info.Selections {
		use(sel.Obj())
	}

	// Every interface declared at package level in a loaded package:
	// the module's, and the standard library packages they reach.
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var collect func(p *types.Package)
	collect = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			collect(imp)
		}
	}
	for _, p := range checked {
		collect(p)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	implementsInterface := func(fn *types.Func, recv *types.Named) bool {
		if recv.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() != fn.Name() {
					continue
				}
				if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
					return true
				}
			}
		}
		return false
	}

	var problems []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := allow[d.key]
		switch {
		case used[d.obj]:
			if allowed {
				problems = append(problems, fmt.Sprintf("allowlisted %s has a caller now: delete its entry", d.key))
			}
		case d.recv != nil && implementsInterface(d.obj.(*types.Func), d.recv):
			if allowed {
				problems = append(problems, fmt.Sprintf("allowlisted %s implements an interface method: delete its entry", d.key))
			}
		case !allowed:
			problems = append(problems, fmt.Sprintf("%s has no caller outside _test.go files", d.key))
		}
	}
	for key := range allow {
		if !declared[key] {
			problems = append(problems, fmt.Sprintf("allowlisted %s is nothing the rule covers: delete its entry", key))
		}
	}
	sort.Slice(problems, func(i, j int) bool {
		// Missing callers first, then allowlist entries to delete.
		ai, aj := strings.HasPrefix(problems[i], "allowlisted "), strings.HasPrefix(problems[j], "allowlisted ")
		if ai != aj {
			return aj
		}
		return problems[i] < problems[j]
	})
	return problems, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
