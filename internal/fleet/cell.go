package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/chaos"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/scenario"
	"github.com/public-option/poc/internal/traffic"
)

// bundle is everything cells of one topology share: the paper
// instance and its per-traffic-model matrices. Bundles are immutable
// once built, so any number of cells may run against one concurrently.
type bundle struct {
	*scenario.Scenario
	tms map[string]*traffic.Matrix
}

// buildBundle assembles one topology's shared state: the zoo instance
// NewScenario builds, or the GML corpus instance for a Dir topology.
func buildBundle(ts TopoSpec, cfg Config) (*bundle, error) {
	var (
		s   *scenario.Scenario
		err error
	)
	if ts.Dir != "" {
		s, err = scenario.Corpus(ts.Dir, cfg.Scale)
	} else {
		s, err = scenario.New(scenario.Options{Scale: cfg.Scale, Seed: ts.Seed})
	}
	if err != nil {
		return nil, fmt.Errorf("fleet: topo %s: %w", ts.Name, err)
	}
	// Hotspot mutates its receiver, so it gets a clone; Diurnal clones
	// internally. All three matrices are fixed here so every cell sees
	// identical demand regardless of evaluation order.
	return &bundle{Scenario: s, tms: map[string]*traffic.Matrix{
		"gravity": s.TM,
		"hotspot": traffic.Hotspot(s.TM.Clone(), 0, 0.1*s.TM.Total()),
		"offpeak": traffic.Diurnal(s.TM, 4),
	}}, nil
}

// runCell executes the full pipeline for one grid point: BP auction,
// provisioning, fabric activation, LMP attachment, a deterministic
// flow grid, billing, the cell's chaos schedule under its recovery
// policy, and a final settlement epoch. It returns the cell's result
// row and its exported poc-obs/v1 ledger.
//
// Everything scheduling-visible is per-cell (fabric, registry, flows);
// the only cross-cell state is the shared feasibility cache, which is
// determinism-safe by construction (see auction.Instance.Cache).
func runCell(cfg Config, shared *shared, b *bundle, cell Cell) (*CellResult, []byte, error) {
	tm, ok := b.tms[cell.Traffic]
	if !ok {
		return nil, nil, fmt.Errorf("fleet: %s: unknown traffic model %q", cell.Key(), cell.Traffic)
	}
	reg := obs.New()
	reg.SetMeta("fleet.cell", cell.Key())

	pcfg := core.Config{
		Network:       b.Network,
		TM:            tm,
		Constraint:    cell.Constraint,
		RouteOpts:     provision.Options{FailureScenarios: cfg.FailureScenarios},
		ReserveMargin: 0.02,
		Workers:       1,
		Obs:           reg,
	}
	if cfg.ColdCache {
		// A fresh external cache per cell: no cross-cell reuse, but the
		// same suppression path as the shared cache, so the two modes
		// are byte-comparable. A nil cache would fall back to the
		// auction's private memo, which records memo counters the
		// external path deliberately suppresses.
		pcfg.Cache = provision.NewFeasibilityCache()
	} else {
		pcfg.Cache = shared.cache
	}
	p, err := core.New(pcfg)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
	}
	res, err := b.Lease(p)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
	}

	na := len(b.Network.Routers)
	if na > 6 {
		na = 6
	}
	names := make([]string, na)
	for i := 0; i < na; i++ {
		names[i] = fmt.Sprintf("lmp-%02d", i)
		if _, err := p.AttachLMP(names[i], i, peering.Policy{}); err != nil {
			return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
		}
	}
	gold := netsim.Class{Name: "gold", Weight: 4, Price: 10}
	for i := 0; i < na; i++ {
		for j := i + 1; j < na; j++ {
			class := netsim.BestEffort
			if (i+j)%2 == 1 {
				class = gold
			}
			if _, err := p.StartFlow(names[i], names[j], 2+float64(i+j), class); err != nil {
				return nil, nil, fmt.Errorf("fleet: %s: flow %s->%s: %w", cell.Key(), names[i], names[j], err)
			}
		}
	}
	if _, err := p.BillEpoch(6 * 3600); err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
	}

	epochs := cfg.Epochs
	cr := &CellResult{
		Key:         cell.Key(),
		Topo:        cell.Topo,
		Traffic:     cell.Traffic,
		Constraint:  fmt.Sprintf("C%d", int(cell.Constraint)),
		Chaos:       cell.Chaos,
		Policy:      cell.Policy,
		Routers:     len(b.Network.Routers),
		Links:       len(b.Network.Links),
		Selected:    len(res.Selected),
		Checks:      res.Checks,
		TotalCost:   hexFloat(res.TotalCost),
		VirtualCost: hexFloat(res.VirtualCost),
		Surplus:     hexFloat(res.Surplus()),
		AuctionSHA:  hashAuction(res),
		Epochs:      epochs,
	}

	if cell.Chaos == "none" {
		// Quiet cell: the fabric just bills through the horizon.
		for e := 0; e < epochs; e++ {
			if _, err := p.BillEpoch(3600); err != nil {
				return nil, nil, fmt.Errorf("fleet: %s: epoch %d: %w", cell.Key(), e, err)
			}
		}
		cr.MinDelivered = hexFloat(1)
	} else {
		selected := p.Fabric().SelectedLinks()
		if len(selected) == 0 {
			return nil, nil, fmt.Errorf("fleet: %s: no selected links to fail", cell.Key())
		}
		firstLink := selected[0]
		for _, id := range selected {
			if id < firstLink {
				firstLink = id
			}
		}
		var sched chaos.Schedule
		switch cell.Chaos {
		case "bp-outage":
			repair := epochs - 3
			if repair < 2 {
				repair = 2
			}
			sched = chaos.SingleBPOutage(b.Network.Links[firstLink].BP, 1, repair)
		case "flap":
			sched = chaos.FlappingLink(firstLink, 1, 1, 1, 2)
		case "random":
			sched = chaos.Random(17, epochs, selected, 0.15, 2)
		default:
			return nil, nil, fmt.Errorf("fleet: %s: unknown chaos schedule %q", cell.Key(), cell.Chaos)
		}
		pol, err := chaos.ParsePolicy(cell.Policy)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
		}
		eng, err := chaos.New(p, sched, chaos.DefaultRecovery(pol))
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
		}
		rep, err := eng.Run(epochs)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: %s: chaos: %w", cell.Key(), err)
		}
		cr.MinDelivered = hexFloat(rep.MinDelivered())
		cr.Reauctions = rep.Reauctions
		repJSON, err := json.Marshal(rep)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
		}
		sum := sha256.Sum256(repJSON)
		cr.ChaosSHA = hex.EncodeToString(sum[:])
	}
	if _, err := p.BillEpoch(3600); err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
	}

	doc, err := reg.MarshalJSON()
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: obs export: %w", cell.Key(), err)
	}
	sum := sha256.Sum256(doc)
	cr.ObsSHA = hex.EncodeToString(sum[:])
	cr.Digest, err = cr.computeDigest(doc)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: %s: %w", cell.Key(), err)
	}
	return cr, doc, nil
}

// hexFloat renders a float with full bit fidelity ('x' keeps every
// mantissa bit, unlike %g), so report bytes can never drift through
// formatting.
func hexFloat(x float64) string {
	return strconv.FormatFloat(x, 'x', -1, 64)
}

// hashAuction digests an auction outcome the same way the seed golden
// tests do: sorted selected IDs plus full-precision payments,
// alternatives and costs.
func hashAuction(res *auction.Result) string {
	ids := make([]int, 0, len(res.Selected))
	for id := range res.Selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "s%d,", id)
	}
	for a := range res.Payments {
		fmt.Fprintf(h, "p%d=%s,a%d=%s,c%d=%s;", a, hexFloat(res.Payments[a]),
			a, hexFloat(res.Alternative[a]), a, hexFloat(res.BPCost[a]))
	}
	fmt.Fprintf(h, "tc=%s,vc=%s,ck=%d", hexFloat(res.TotalCost), hexFloat(res.VirtualCost), res.Checks)
	return hex.EncodeToString(h.Sum(nil))
}
