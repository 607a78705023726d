package analysis

import (
	"strings"
	"testing"
)

// Each testdata package holds positive cases (pinned by // want
// comments), negative cases (sanctioned idioms with no want, which the
// harness rejects if any analyzer triggers), and //lint:allow
// suppressions, and is run through the whole suite. The maplab package
// deliberately encodes three map-order bugs fixed by hand in the past
// (provision.Route used-capacity, netsim UsageByEndpoint,
// core.BillEpoch) so that re-introducing any of them is caught by
// shape, not by memory.

// floatorder: map ranges, scheduler-ordered folds, and folds behind
// calls (in-package and across a package boundary).
func TestMapOrdFloat(t *testing.T)          { expectSuite(t, "maplab") }
func TestFloatSum(t *testing.T)             { expectSuite(t, "floatlab") }
func TestDeepFold(t *testing.T)             { expectSuite(t, "deeplab") }
func TestDeepFoldCrossPackage(t *testing.T) { expectSuite(t, "xfacts/use") }

// TestAllowDirectiveErrors pins the directive grammar: a missing
// analyzer, a missing reason and a name that is no analyzer are
// diagnostics in their own right (attributed to "poclint", not to any
// analyzer), while the well-formed directive in the same package
// suppresses its finding.
func TestAllowDirectiveErrors(t *testing.T) {
	diags, _ := runSuite(t, "allowlab")
	want := []string{"missing analyzer name", "needs a reason", "deepfold names no poclint analyzer"}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d malformed-directive reports:\n%v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Analyzer != "poclint" {
			t.Errorf("%s: attributed to %q, want poclint", d, d.Analyzer)
		}
		if !strings.Contains(d.Message, want[i]) {
			t.Errorf("diagnostic %d %q, want %q", i, d.Message, want[i])
		}
	}
}
