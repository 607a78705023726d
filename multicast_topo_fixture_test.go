package poc

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"github.com/public-option/poc/internal/netsim"
)

// testdata/multicast_topo_v1.json was recorded at c10e9cc, the last
// commit where BuildPOCNetwork and StartMulticast ran on the one-shot
// closure-filtered graph.Dijkstra. Both now drive a TreeRouter over
// the mask kernel; the port is only a change of entry point, so every
// tree link, connection order, tie-break and float must come out the
// same. The file is a recording, not a golden to regenerate: a diff
// here means shortest-path selection changed.
const mcastTopoFixturePath = "testdata/multicast_topo_v1.json"

type mcastTopoFixture struct {
	Links        int           `json:"links"`
	CapacityHash string        `json:"capacity_hash"`
	Groups       []mcastRecord `json:"groups"`
}

type mcastRecord struct {
	Case      string  `json:"case"`
	TreeLinks []int   `json:"tree_links,omitempty"`
	Reached   []int   `json:"reached,omitempty"`
	TreeGbps  float64 `json:"tree_gbps,omitempty"`
	Err       string  `json:"err,omitempty"`
}

// buildMcastTopoFixture replays the recorded session: a seeded
// Scale 0.25 network, ten seeded multicast groups at rates that eat
// into the 10–400 Gbps links (so later trees detour around what
// earlier ones reserved), the first group again after its own tree
// links failed, and that group again and again until admission runs
// out of capacity part-way through a tree.
func buildMcastTopoFixture(t *testing.T) mcastTopoFixture {
	t.Helper()
	s, err := NewScenario(ScenarioOptions{Scale: 0.25, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	hexf := func(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }
	h := sha256.New()
	for _, l := range s.Network.Links {
		fmt.Fprintf(h, "%d,%d,%d,%d,%s,%s;", l.ID, l.BP, l.A, l.B, hexf(l.Capacity), hexf(l.DistanceKm))
	}
	fx := mcastTopoFixture{Links: len(s.Network.Links), CapacityHash: fmt.Sprintf("%x", h.Sum(nil))}

	fab, eps, err := s.NewFabric()
	if err != nil {
		t.Fatal(err)
	}
	start := func(label string, src EndpointID, rcv []EndpointID, gbps float64) *netsim.Multicast {
		rec := mcastRecord{Case: fmt.Sprintf("%s src=%d rcv=%v gbps=%v", label, src, rcv, gbps)}
		m, err := fab.StartMulticast(src, rcv, gbps)
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.TreeLinks, rec.TreeGbps = m.TreeLinks, m.TreeGbps()
			for _, r := range m.Reached {
				rec.Reached = append(rec.Reached, int(r))
			}
		}
		fx.Groups = append(fx.Groups, rec)
		return m
	}

	rng := rand.New(rand.NewSource(17))
	rates := []float64{3, 6, 10, 25, 44}
	var first *netsim.Multicast
	for i := 0; i < 10; i++ {
		perm := rng.Perm(len(eps))
		rcv := make([]EndpointID, 2+rng.Intn(6))
		for j := range rcv {
			rcv[j] = eps[perm[1+j]]
		}
		m := start(fmt.Sprintf("seeded%02d", i), eps[perm[0]], rcv, rates[rng.Intn(len(rates))])
		if first == nil {
			first = m
		}
	}
	if first == nil {
		t.Fatal("first seeded group was not admitted")
	}
	for _, l := range first.TreeLinks {
		fab.FailLink(l)
	}
	start("after-failing-its-tree", first.Src, first.Receivers, first.Gbps)
	for i := 0; i < 30; i++ {
		if start(fmt.Sprintf("exhaust%d", i), first.Src, first.Receivers, 44) == nil {
			return fx
		}
	}
	t.Fatal("capacity never ran out")
	return fx
}

func TestMulticastTopoMatchesParentFixture(t *testing.T) {
	raw, err := os.ReadFile(mcastTopoFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	var want mcastTopoFixture
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := buildMcastTopoFixture(t)
	if got.Links != want.Links || got.CapacityHash != want.CapacityHash {
		t.Fatalf("BuildPOCNetwork: %d links, hash %s; recorded %d, %s", got.Links, got.CapacityHash, want.Links, want.CapacityHash)
	}
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%d groups, recorded %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if !reflect.DeepEqual(got.Groups[i], want.Groups[i]) {
			t.Errorf("group %d:\n got  %+v\n want %+v", i, got.Groups[i], want.Groups[i])
		}
	}
}
