package auction

import (
	"fmt"
	"sort"

	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Figure2Row is one bar group in the paper's Figure 2: the
// payment-over-bid margin of one of the largest BPs under each of the
// three acceptability constraints.
type Figure2Row struct {
	BP    int
	Name  string
	Share float64 // fraction of logical links contributed
	PoB   [3]float64
}

// Figure2Result holds the full experiment output, one Result per
// constraint plus the per-BP rows for the largest BPs.
type Figure2Result struct {
	Rows    []Figure2Row
	Results [3]*Result
}

// Figure2Config assembles the experiment.
type Figure2Config struct {
	Network   *topo.POCNetwork
	TM        *traffic.Matrix
	Bids      []Bid
	Virtual   []VirtualLink
	RouteOpts provision.Options
	MaxChecks int
}

// figure2Rows is how many of the largest BPs Figure 2 reports: the
// paper shows five.
const figure2Rows = 5

// RunFigure2 reproduces the paper's Figure 2: it runs the auction
// under Constraint #1 (load only), Constraint #2 (single path
// failure) and Constraint #3 (per-pair path failure), and reports the
// payment-over-bid margin PoB = (P_a − C_a)/C_a of the largest BPs,
// ordered by decreasing size.
func RunFigure2(cfg Figure2Config) (*Figure2Result, error) {
	out := &Figure2Result{}
	for i, c := range []provision.Constraint{provision.Constraint1, provision.Constraint2, provision.Constraint3} {
		inst := &Instance{
			Network:    cfg.Network,
			Bids:       cfg.Bids,
			Virtual:    cfg.Virtual,
			TM:         cfg.TM,
			Constraint: c,
			RouteOpts:  cfg.RouteOpts,
			MaxChecks:  cfg.MaxChecks,
		}
		res, err := inst.Run()
		if err != nil {
			return nil, fmt.Errorf("auction: figure2 %v: %w", c, err)
		}
		out.Results[i] = res
	}

	shares := cfg.Network.BPShare()
	order := make([]int, len(shares))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		if shares[order[i]] != shares[order[j]] {
			return shares[order[i]] > shares[order[j]]
		}
		return order[i] < order[j]
	})
	for _, bp := range order[:min(figure2Rows, len(order))] {
		row := Figure2Row{BP: bp, Name: cfg.Network.BPs[bp].Name, Share: shares[bp]}
		for i := 0; i < 3; i++ {
			row.PoB[i] = out.Results[i].PoB(bp)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// CollusionResult compares honest auction payments with payments when
// BPs withdraw the links that were not selected — the manipulation
// §3.3 analyses ("if the BPs can guess in advance what the set SL is,
// they can decide to not offer any links not in this set ... possibly
// changing [the payoff] of others").
type CollusionResult struct {
	Honest    *Result
	Withdrawn *Result
	// Gain[a] is the payment change for BP a from the manipulation.
	Gain []float64
}

// TotalGain sums the payment changes across BPs.
func (c *CollusionResult) TotalGain() float64 {
	t := 0.0
	for _, g := range c.Gain {
		t += g
	}
	return t
}

// RunCollusion runs the instance honestly, then reruns it with every
// BP offering only its selected links, and reports the per-BP payment
// gains. With external virtual links present the gains are bounded by
// the contract alternatives; without them the gains can be large —
// the comparison is experiment E10 in DESIGN.md.
func RunCollusion(in *Instance) (*CollusionResult, error) {
	honest, err := in.Run()
	if err != nil {
		return nil, err
	}
	withdrawnBids := make([]Bid, len(in.Bids))
	for a, b := range in.Bids {
		var keep []int
		for _, id := range b.Links {
			if honest.Selected[id] {
				keep = append(keep, id)
			}
		}
		withdrawnBids[a] = Bid{BP: b.BP, Links: keep, Cost: b.Cost}
	}
	in2 := *in
	in2.Bids = withdrawnBids
	withdrawn, err := in2.Run()
	if err != nil {
		return nil, fmt.Errorf("auction: collusion rerun: %w", err)
	}
	res := &CollusionResult{Honest: honest, Withdrawn: withdrawn, Gain: make([]float64, len(in.Bids))}
	for a := range in.Bids {
		res.Gain[a] = withdrawn.Payments[a] - honest.Payments[a]
	}
	return res, nil
}

// StandardVirtualLinks attaches an external ISP at the given router
// indices: it adds a full mesh of virtual links between the
// attachment points with the given capacity, priced at premium times
// the standard lease pricing (external transit is the expensive
// fallback). It returns the virtual-link descriptors for the auction.
func StandardVirtualLinks(p *topo.POCNetwork, attach []int, capacity, premium float64, lp LeasePricing) []VirtualLink {
	var out []VirtualLink
	for i := 0; i < len(attach); i++ {
		for j := i + 1; j < len(attach); j++ {
			id := p.AddVirtualLink(attach[i], attach[j], capacity)
			out = append(out, VirtualLink{
				LinkID:        id,
				ContractPrice: premium * lp.Price(p, p.Links[id]),
			})
		}
	}
	return out
}
