// Command poclint is the repo's invariant checker: a go vet tool
// whose analyzers mechanize the determinism and safety rules the
// evaluation pipeline depends on (byte-identical output across runs
// and Workers settings) that a test or go vet check does not reliably
// catch first. Run it over the tree with
//
//	go build -o /tmp/poclint ./cmd/poclint
//	go vet -vettool=/tmp/poclint ./...
//
// which is exactly what the CI lint job does. Under go vet the
// driver speaks the unitchecker protocol: each package's function
// summaries (order-sensitive float folds, receiver writes, journal
// appends, single-writer field owners) are serialized as
// poclint-facts/v1 files through vet's facts cache, so the
// interprocedural analyzers see summaries of every import. The tool
// takes no flags; every analyzer always runs.
//
// floatorder is documented in DESIGN.md §9; the interprocedural
// journalorder and writerescape in DESIGN.md §14. All three are
// implemented in internal/analysis. Sanctioned exceptions carry a
// `//lint:allow <analyzer> <reason>` comment on or above the flagged
// line, and single-writer fields carry `//lint:owner <fn>[,<fn>...]`.
package main

import "github.com/public-option/poc/internal/analysis"

func main() {
	analysis.Main(analysis.All...)
}
