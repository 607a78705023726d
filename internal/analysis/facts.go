package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// This file is poclint's facts layer: the serializable per-package
// summaries that make the analyzers interprocedural. A package's
// facts are computed once (by the summary pass in summary.go), written
// to the vet facts file cmd/go already threads between vet units
// (Config.VetxOutput / Config.PackageVetx — see unitchecker.go), and
// loaded by every importer. Analyzers therefore see the effects of
// called functions across package boundaries instead of going blind at
// the first call whose callee lives elsewhere: exactly the hole the
// PR 3 bug class hid in.
//
// The test harness is the in-process fallback driver: it computes the
// same facts recursively for testdata packages without serializing
// (harness_test.go), so analyzer tests exercise cross-package
// consumption without shelling out to cmd/go.

// FactsSchema tags the facts-file encoding. Decoders reject files with
// a different schema (a stale cache entry from a future format decodes
// as empty rather than as garbage).
const FactsSchema = "poclint-facts/v1"

// FuncSummary is the per-function effect summary the analyzers
// consume. A summary answers "what can calling this function do that
// poclint's invariants care about?" without re-reading its body.
type FuncSummary struct {
	// FoldRecv/FoldParams/FoldGlobal locate order-sensitive float
	// accumulation performed by the function (directly or through
	// calls): into state reachable from its receiver, from the i-th
	// parameter, or from captured/package-level state. Float addition
	// is not associative, so calling such a function from an
	// unordered context (map range, goroutine) perturbs bytes unless
	// the fold target is private to the iteration.
	FoldRecv   bool  `json:"fold_recv,omitempty"`
	FoldParams []int `json:"fold_params,omitempty"`
	FoldGlobal bool  `json:"fold_global,omitempty"`

	// WritesRecv reports that the method assigns receiver state:
	// fields of the receiver, or (transitively) calls a WritesRecv
	// method on the receiver or one of its fields. journalorder uses
	// it to recognize state mutations behind helper calls.
	WritesRecv bool `json:"writes_recv,omitempty"`

	// Acquires/Releases carry the //lint:acquire <kind> and
	// //lint:release <kind> directives: the function hands out (or
	// takes back) a pooled resource of that kind. arenapair pairs the
	// two flow-sensitively.
	Acquires string `json:"acquires,omitempty"`
	Releases string `json:"releases,omitempty"`

	// JournalAppend reports that the function appends to a write-ahead
	// journal (a method named Append on a type declared in a package
	// whose import path ends in "journal"), directly or transitively.
	JournalAppend bool `json:"journal_append,omitempty"`
}

// FoldsFloat reports whether the function performs any
// order-sensitive float fold at all.
func (s FuncSummary) FoldsFloat() bool {
	return s.FoldRecv || s.FoldGlobal || len(s.FoldParams) > 0
}

// zero reports whether the summary carries no facts (omitted from the
// encoded file to keep facts small and diffs readable).
func (s FuncSummary) zero() bool {
	return !s.FoldsFloat() && !s.WritesRecv &&
		s.Acquires == "" && s.Releases == "" && !s.JournalAppend
}

// PackageFacts is one package's serializable fact set.
type PackageFacts struct {
	Schema string `json:"schema"`
	// Path is the package's canonical import path.
	Path string `json:"path"`
	// Funcs maps funcKey ("Name" for package-level functions,
	// "Type.Name" for methods, pointer receivers stripped) to the
	// function's summary. Zero summaries are omitted.
	Funcs map[string]FuncSummary `json:"funcs,omitempty"`
	// Owned maps "Type.Field" to the owner function names declared by
	// a //lint:owner directive on the field: only those functions may
	// write the field, and never from a spawned goroutine
	// (writerescape).
	Owned map[string][]string `json:"owned,omitempty"`
}

// NewPackageFacts returns an empty fact set for the import path.
func NewPackageFacts(path string) *PackageFacts {
	return &PackageFacts{
		Schema: FactsSchema,
		Path:   path,
		Funcs:  map[string]FuncSummary{},
		Owned:  map[string][]string{},
	}
}

// EncodeFacts serializes facts deterministically (sorted keys, stable
// indentation): cmd/go hashes facts files into its build cache, so the
// same package state must produce identical bytes on every run.
func EncodeFacts(pf *PackageFacts) ([]byte, error) {
	if pf == nil {
		pf = NewPackageFacts("")
	}
	out := *pf
	out.Schema = FactsSchema
	// Strip zero summaries; json.Marshal already emits map keys sorted.
	if len(out.Funcs) > 0 {
		funcs := make(map[string]FuncSummary, len(out.Funcs))
		for k, s := range out.Funcs {
			if !s.zero() {
				funcs[k] = s
			}
		}
		out.Funcs = funcs
	}
	data, err := json.MarshalIndent(&out, "", "\t")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeFacts parses a facts file. Empty input (the v1 driver wrote
// empty facts files; cmd/go may also hand us a zero-length file)
// decodes as an empty fact set; a schema mismatch does too, so a
// format change invalidates gracefully rather than erroring a build.
func DecodeFacts(data []byte) (*PackageFacts, error) {
	if len(data) == 0 {
		return NewPackageFacts(""), nil
	}
	var pf PackageFacts
	if err := json.Unmarshal(data, &pf); err != nil {
		return nil, fmt.Errorf("poclint facts: %v", err)
	}
	if pf.Schema != FactsSchema {
		return NewPackageFacts(pf.Path), nil
	}
	if pf.Funcs == nil {
		pf.Funcs = map[string]FuncSummary{}
	}
	if pf.Owned == nil {
		pf.Owned = map[string][]string{}
	}
	return &pf, nil
}

// FactSet is one pass's view of the fact universe: the current
// package's facts plus the facts of every imported package that has
// any.
type FactSet struct {
	// Cur is the current package's facts (computed by the summary
	// pass over the same files the analyzers see).
	Cur *PackageFacts
	// Imports maps import path to that package's facts.
	Imports map[string]*PackageFacts
}

// lookup returns the facts for the package with the given import
// path, or nil.
func (fs *FactSet) lookup(path string) *PackageFacts {
	if fs == nil {
		return nil
	}
	if fs.Cur != nil && fs.Cur.Path == path {
		return fs.Cur
	}
	return fs.Imports[path]
}

// funcKey returns the facts key for a function object: "Name" for
// package-level functions, "Type.Name" for methods (pointer stripped).
// The empty string means the object cannot carry facts (func literals,
// interface methods on unnamed types).
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	recv := sig.Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

// SummaryOf returns the recorded summary for fn, looking in the
// current package first and then in imported facts. Functions from
// packages without facts (the standard library, func literals) have
// no summary.
func (fs *FactSet) SummaryOf(fn *types.Func) (FuncSummary, bool) {
	if fs == nil || fn == nil || fn.Pkg() == nil {
		return FuncSummary{}, false
	}
	key := funcKey(fn)
	if key == "" {
		return FuncSummary{}, false
	}
	pf := fs.lookup(fn.Pkg().Path())
	if pf == nil {
		return FuncSummary{}, false
	}
	s, ok := pf.Funcs[key]
	return s, ok
}

// OwnersOf returns the //lint:owner function list for a struct field
// object, consulting the declaring package's facts.
func (fs *FactSet) OwnersOf(field *types.Var, structType string) ([]string, bool) {
	if fs == nil || field == nil || field.Pkg() == nil {
		return nil, false
	}
	pf := fs.lookup(field.Pkg().Path())
	if pf == nil {
		return nil, false
	}
	owners, ok := pf.Owned[structType+"."+field.Name()]
	return owners, ok
}

// ownerNames renders an owner list for diagnostics.
func ownerNames(owners []string) string {
	out := make([]string, len(owners))
	copy(out, owners)
	sort.Strings(out)
	return strings.Join(out, ", ")
}
