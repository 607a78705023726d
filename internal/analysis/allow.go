package analysis

import (
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	file     string
	line     int
	analyzer string
	reason   string
	pos      token.Pos
}

// parseAllows extracts every //lint:allow directive from files.
// Malformed directives (no analyzer, no reason, or a name that is no
// analyzer in All) are returned separately so the driver can report
// them: an exception without a recorded reason is itself an invariant
// violation, and one naming a renamed or deleted analyzer exempts
// nothing. Names are checked against All, not the analyzers of the
// current run, so a run of a subset still accepts the others' names.
func parseAllows(fset *token.FileSet, files []*ast.File) (ok []allowDirective, malformed []Diagnostic) {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, found := strings.CutPrefix(c.Text, "//lint:allow")
				if !found {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) == 0 {
					malformed = append(malformed, Diagnostic{
						Pos: pos, Analyzer: "poclint",
						Message: "malformed //lint:allow: missing analyzer name",
					})
					continue
				}
				if !slices.ContainsFunc(All, func(a *Analyzer) bool { return a.Name == fields[0] }) {
					malformed = append(malformed, Diagnostic{
						Pos: pos, Analyzer: "poclint",
						Message: "//lint:allow " + fields[0] + " names no poclint analyzer",
					})
					continue
				}
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Pos: pos, Analyzer: "poclint",
						Message: "//lint:allow " + fields[0] + " needs a reason",
					})
					continue
				}
				ok = append(ok, allowDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
					reason:   strings.Join(fields[1:], " "),
					pos:      c.Pos(),
				})
			}
		}
	}
	return ok, malformed
}

// applyAllows drops diagnostics sanctioned by a //lint:allow directive
// for the same analyzer on the same line or the line directly above,
// appends diagnostics for malformed directives, and returns the result
// sorted by position.
func applyAllows(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	allows, malformed := parseAllows(fset, files)
	type key struct {
		file     string
		line     int
		analyzer string
	}
	idx := make(map[key]bool, len(allows))
	for _, a := range allows {
		idx[key{a.file, a.line, a.analyzer}] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if idx[key{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
			idx[key{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}] {
			continue
		}
		kept = append(kept, d)
	}
	kept = append(kept, malformed...)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept
}
