package provision_test

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	poc "github.com/public-option/poc"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
)

// shaveTrajectory is one constraint's recorded shave: the links
// Shave(price, 0) tried in order, each TryDrop's verdict ('1' =
// committed), the Shaver's StateHash after it, and the set it kept.
type shaveTrajectory struct {
	Constraint int      `json:"constraint"`
	Links      []int    `json:"links"`
	Verdicts   string   `json:"verdicts"`
	Kept       []int    `json:"kept"`
	States     []string `json:"states"`
}

// TestShaveTrajectoryMatchesRecording replays
// testdata/shave_trajectory_v1.json: the Scale-0.12 scenario shaved
// from its full link set under each constraint, routed and ordered by
// lease price. The golden hashes pin where a shave ends; this pins how
// it gets there — every verdict, and after every TryDrop (commits,
// rollbacks, scenario rebuilds and avoid-set moves alike) every live
// assignment and residual bit. The file was recorded at the commit
// before routing became pair-indexed, by the Shaver that kept a map
// form beside its live copy; it is a recording, not a golden, so
// nothing regenerates it.
func TestShaveTrajectoryMatchesRecording(t *testing.T) {
	raw, err := os.ReadFile("testdata/shave_trajectory_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Schema       string            `json:"schema"`
		Scale        float64           `json:"scale"`
		Trajectories []shaveTrajectory `json:"trajectories"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != "shave-trajectory/v1" || len(file.Trajectories) != 3 {
		t.Fatalf("schema %q with %d trajectories", file.Schema, len(file.Trajectories))
	}
	s, err := poc.NewScenario(poc.ScenarioOptions{Scale: file.Scale})
	if err != nil {
		t.Fatal(err)
	}
	price := func(l int) float64 { return s.Pricing.Price(s.Network, s.Network.Links[l]) }
	opts := s.RouteOptions()
	opts.LinkCost = func(l topo.LogicalLink) float64 { return price(l.ID) }

	for _, tr := range file.Trajectories {
		c := provision.Constraint(tr.Constraint)
		sh, ok := provision.NewShaver(s.Network, nil, s.TM, c, opts)
		if !ok {
			t.Fatalf("%v: full link set infeasible", c)
		}
		for i, link := range tr.Links {
			if got, want := sh.TryDrop(link), tr.Verdicts[i] == '1'; got != want {
				t.Fatalf("%v: step %d: TryDrop(%d) = %v, recorded %v", c, i, link, got, want)
			}
			if got := sh.StateHash(); got != tr.States[i] {
				t.Fatalf("%v: step %d: state after TryDrop(%d) = %s, recorded %s", c, i, link, got, tr.States[i])
			}
			// The states prove indexed repair ≡ the full scan the
			// recording was made with; this is why it may skip pairs.
			if err := sh.IndexError(); err != nil {
				t.Fatalf("%v: step %d: after TryDrop(%d): %v", c, i, link, err)
			}
		}
		sh.Close()

		// The recorded links are Shave's own order: a fresh Shave ends
		// on the recorded set.
		sh, _ = provision.NewShaver(s.Network, nil, s.TM, c, opts)
		sh.Shave(price, 0)
		if got := sh.Include().AppendIDs(nil); !slices.Equal(got, tr.Kept) {
			t.Fatalf("%v: Shave kept %v, recorded %v", c, got, tr.Kept)
		}
		sh.Close()
	}
}
