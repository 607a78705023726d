package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildPoclint builds cmd/poclint into a temp dir and returns the
// binary and the repo root.
func buildPoclint(t *testing.T) (bin, root string) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not at %s: %v", root, err)
	}
	bin = filepath.Join(t.TempDir(), "poclint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/poclint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building poclint: %v\n%s", err, out)
	}
	return bin, root
}

// TestVetToolCleanTree is the meta-gate: it builds cmd/poclint and
// runs it over the whole module through the real `go vet -vettool`
// protocol, asserting the tree is invariant-clean. This is the same
// invocation CI runs; a reverted map-order fix or a journal append
// moved after its mutation fails this test locally before it fails the
// lint job.
func TestVetToolCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module and vets every package")
	}
	bin, root := buildPoclint(t)
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = root
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool=poclint ./... failed: %v\n%s", err, out)
	}
}

// TestVetToolReportsFindings keeps TestVetToolCleanTree honest: a clean
// run proves nothing if cmd/go ran no analyzer (a misread -flags
// answer, an empty suite). The same driver must fail a module holding
// one map-order fold and one allow directive naming no analyzer, and
// print both findings.
func TestVetToolReportsFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds poclint and vets a scratch module")
	}
	bin, _ := buildPoclint(t)
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/probe\n\ngo 1.22\n",
		"probe.go": `package probe

//lint:allow nosuchanalyzer a stale exemption
func Sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}
`,
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = dir
	vet.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off", "GOFLAGS=")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed a module with two findings:\n%s", out)
	}
	for _, want := range []string{"ordered by map iteration", "nosuchanalyzer names no poclint analyzer"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("vet output lacks %q:\n%s", want, out)
		}
	}
}
