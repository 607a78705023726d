package core

import (
	"fmt"
	"sort"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/linkset"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/traffic"
)

// §3.3 builds the POC from *temporarily* leased links ("lease out (on
// a temporary basis) their excess bandwidth"), which implies the POC
// re-runs its auction as demand shifts. Reauction implements that
// lifecycle step: a new traffic matrix, a fresh auction over the
// standing bids, a link-set diff, and a fabric migration that re-admits
// every attachment and flow onto the new selection.

// ReauctionReport describes one re-leasing cycle.
type ReauctionReport struct {
	// Added and Dropped are the link-set diff against the previous
	// selection, sorted.
	Added   []int
	Dropped []int
	// Result is the new auction outcome.
	Result *auction.Result
	// FlowsKept counts flows re-admitted at full demand on the new
	// fabric; FlowsDegraded those re-admitted below their previous
	// allocation; FlowsLost those that could not be re-admitted.
	FlowsKept     int
	FlowsDegraded int
	FlowsLost     int
}

// Reauction re-runs the auction against a new traffic matrix using
// the standing bids and virtual links, then migrates the fabric: all
// attachments are preserved and every flow is re-admitted onto the
// new link set (in descending QoS weight, then admission order). Recalled
// links stay excluded. Billing for subsequent epochs uses the new
// payments.
func (p *POC) Reauction(tm *traffic.Matrix) (*ReauctionReport, error) {
	return p.ReauctionExcluding(tm, nil)
}

// ReauctionExcluding is Reauction with an extra exclusion set: links
// in exclude are withheld from every bid this cycle on top of the
// recalled set. Recovery controllers use it to re-lease around links
// that are currently down — a reauction that re-selects a dead link
// would rebuild a fabric about to fail again.
func (p *POC) ReauctionExcluding(tm *traffic.Matrix, exclude *linkset.Set) (*ReauctionReport, error) {
	if p.phase != phaseActive {
		return nil, fmt.Errorf("core: reauction requires an active POC")
	}
	if tm == nil {
		return nil, fmt.Errorf("core: nil traffic matrix")
	}
	if tm.Size() != len(p.cfg.Network.Routers) {
		return nil, fmt.Errorf("core: traffic matrix size %d != %d routers",
			tm.Size(), len(p.cfg.Network.Routers))
	}

	// Exclude recalled links from every bid (their owners took them
	// back) along with any caller-supplied exclusions: neither is on
	// offer this cycle.
	bids := make([]auction.Bid, len(p.bids))
	for i, b := range p.bids {
		var keep []int
		for _, id := range b.Links {
			if !p.recalled[id] && !exclude.Contains(id) {
				keep = append(keep, id)
			}
		}
		bids[i] = auction.Bid{BP: b.BP, Links: keep, Cost: b.Cost}
	}

	res, err := p.newAuction(bids, tm).Run()
	if err != nil {
		return nil, fmt.Errorf("core: reauction: %w", err)
	}

	rep := &ReauctionReport{Result: res}
	for id := range res.Selected {
		if !p.auctionResult.Selected[id] {
			rep.Added = append(rep.Added, id)
		}
	}
	for id := range p.auctionResult.Selected {
		if !res.Selected[id] {
			rep.Dropped = append(rep.Dropped, id)
		}
	}
	sort.Ints(rep.Added)
	sort.Ints(rep.Dropped)

	// Migrate the fabric: rebuild over the new selection, re-attach
	// every endpoint, re-admit every flow.
	oldFabric := p.fabric
	newFabric := netsim.New(p.cfg.Network, res.Selected)
	newFabric.SetObserver(p.cfg.Obs)

	oldEndpoints := oldFabric.Endpoints()
	idMap := make(map[netsim.EndpointID]netsim.EndpointID, len(oldEndpoints))
	for _, ep := range oldEndpoints {
		nid, err := newFabric.Attach(ep.Name, ep.Kind, ep.Router)
		if err != nil {
			return nil, fmt.Errorf("core: migrating %q: %w", ep.Name, err)
		}
		idMap[ep.ID] = nid
	}
	// Highest class first, then admission order (Seq, not ID — flow
	// IDs recycle table slots and are not admission-ordered):
	// RangeFlows walks in admission order, so a stable sort by weight
	// alone gives it.
	m := migration{
		specs: make([]netsim.FlowSpec, 0, oldFabric.NumFlows()),
		was:   make([]float64, 0, oldFabric.NumFlows()),
	}
	oldFabric.RangeFlows(func(fl *netsim.Flow) bool {
		m.specs = append(m.specs, netsim.FlowSpec{
			Src: idMap[fl.Src], Dst: idMap[fl.Dst], Demand: fl.Demand, Class: fl.Class,
		})
		m.was = append(m.was, fl.Allocated)
		return true
	})
	sort.Stable(&m)
	ids := newFabric.StartFlows(m.specs)
	// The new fabric admitted the specs in order, so its admission
	// order lists the re-admitted flows in spec order.
	i := 0
	var drift error
	newFabric.RangeFlows(func(nf *netsim.Flow) bool {
		for ids[i] < 0 {
			i++
		}
		if nf.ID != ids[i] {
			drift = fmt.Errorf("core: flow %d re-admitted out of order (want %d)", nf.ID, ids[i])
			return false
		}
		if nf.Allocated >= m.was[i]-1e-9 {
			rep.FlowsKept++
		} else {
			rep.FlowsDegraded++
		}
		i++
		return true
	})
	if drift != nil {
		return nil, drift
	}
	rep.FlowsLost = len(ids) - rep.FlowsKept - rep.FlowsDegraded

	// Endpoint IDs are preserved by construction (attachment order);
	// verify rather than assume.
	for old, nid := range idMap {
		if old != nid {
			return nil, fmt.Errorf("core: endpoint id drift during migration (%d -> %d)", old, nid)
		}
	}

	p.auctionResult = res
	p.fabric = newFabric
	p.members = nil
	// Usage counters restart with the new fabric; already-billed
	// volume must reset with them.
	for name := range p.billedGB {
		p.billedGB[name] = 0
	}
	if o := p.cfg.Obs; o != nil {
		o.Add("core.reauctions", 1)
		o.Add("core.reauction.flows_kept", int64(rep.FlowsKept))
		o.Add("core.reauction.flows_degraded", int64(rep.FlowsDegraded))
		o.Add("core.reauction.flows_lost", int64(rep.FlowsLost))
	}
	return rep, nil
}

// migration is the old fabric's flow population as re-admission
// specs, with each flow's allocation on the old fabric alongside.
// sort.Stable orders both by descending class weight.
type migration struct {
	specs []netsim.FlowSpec
	was   []float64
}

func (m *migration) Len() int { return len(m.specs) }

func (m *migration) Less(i, j int) bool {
	return m.specs[i].Class.Weight > m.specs[j].Class.Weight
}

func (m *migration) Swap(i, j int) {
	m.specs[i], m.specs[j] = m.specs[j], m.specs[i]
	m.was[i], m.was[j] = m.was[j], m.was[i]
}
