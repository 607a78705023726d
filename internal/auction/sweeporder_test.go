package auction

import (
	"bytes"
	"slices"
	"testing"

	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/provision"
)

// TestCounterfactualExportSweepOrderInvariant runs Figure 2's zoo at
// Scale 0.35 at Workers 1, its counterfactuals once in BP order and
// once reversed, and requires the two obs exports to be identical bit
// for bit. At Workers 1 the sweep visits exactly the order the hook
// gives, so a float fold into shared state from the sweep differs
// between the two exports on every run; Workers 4 against Workers 1
// reorders it only when workers happen to finish out of order. The
// registry already carries a float counter, as a deployed POC's does
// when it reauctions.
func TestCounterfactualExportSweepOrderInvariant(t *testing.T) {
	export := func(reverse bool) []byte {
		visited := 0
		sweepOrder = func(need []int) []int {
			visited = len(need)
			if reverse {
				slices.Reverse(need)
			}
			return need
		}
		defer func() { sweepOrder = nil }()
		cfg := buildFigure2Instance(t, 0.35)
		in := &Instance{
			Network: cfg.Network, Bids: cfg.Bids, TM: cfg.TM, Virtual: cfg.Virtual,
			Constraint: provision.Constraint1, RouteOpts: cfg.RouteOpts, Workers: 1, Obs: obs.New(),
		}
		in.Obs.AddFloat("core.lease_cost_total", 1234.5678)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		if visited < 3 {
			t.Fatalf("%d counterfactuals; want at least 3 to reorder", visited)
		}
		out, err := in.Obs.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if fwd, rev := export(false), export(true); !bytes.Equal(fwd, rev) {
		t.Fatalf("export depends on the counterfactual sweep's order:\n%s\n---\n%s", fwd, rev)
	}
}
