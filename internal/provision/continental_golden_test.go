package provision_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strconv"
	"testing"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/provision"
)

// hashOutcome digests an auction's winners and, per BP, its payment,
// alternative cost and own cost as exact float bits.
func hashOutcome(res *auction.Result) string {
	var ids []int
	for id := range res.Selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d,", id)
	}
	var as []int
	for a := range res.Payments {
		as = append(as, a)
	}
	sort.Ints(as)
	for _, a := range as {
		fmt.Fprintf(h, "p%d=%s;a%d=%s;c%d=%s;", a,
			strconv.FormatFloat(res.Payments[a], 'x', -1, 64), a,
			strconv.FormatFloat(res.Alternative[a], 'x', -1, 64), a,
			strconv.FormatFloat(res.BPCost[a], 'x', -1, 64))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestConnectedContinentalGolden clears a bordered topo.GenerateSynth
// instance of 100 routers under Constraint 2, in the continental
// auction's configuration, and requires the outcome and check count
// recorded before shortest-path trees stopped at their targets and
// ejection repair read a crossing index. A ring of inter-regional
// demand joins every region, so no probe's enabled subgraph is
// separable: every check falls back from decomposition to routing the
// whole graph — more than 64 nodes, the heap engine — and many reach
// ejection repair, whose every freeLink call is checked against a scan
// of every list (WatchFreeLink).
func TestConnectedContinentalGolden(t *testing.T) {
	const (
		wantHash   = "aa7cc71c7c0ba18aa572da9ae689deae8feaff0e7e75326ae0422ee532ea34d8"
		wantChecks = 680
	)
	p, tm := provision.BorderedSynth()
	in := &auction.Instance{
		Network: p, Bids: auction.StandardBids(p, auction.DefaultLeasePricing()), TM: tm,
		Constraint: provision.Constraint2, RouteOpts: provision.Options{FailureScenarios: 8},
		MaxChecks: 40, Cache: provision.NewFeasibilityCache(), Decompose: true,
	}
	freeLinks := provision.WatchFreeLink(t)
	res, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Cache.Stats().Decompositions; d != 0 {
		t.Fatalf("%d probes decomposed; the connected fallback is not what this pins", d)
	}
	if freeLinks() == 0 {
		t.Fatal("no routing reached ejection repair")
	}
	if hash := hashOutcome(res); hash != wantHash || res.Checks != wantChecks {
		t.Fatalf("outcome %s with %d checks, recorded %s with %d", hash, res.Checks, wantHash, wantChecks)
	}
}
