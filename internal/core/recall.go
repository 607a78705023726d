package core

import (
	"fmt"
	"sort"

	"github.com/public-option/poc/internal/edge"
	"github.com/public-option/poc/internal/market"
	"github.com/public-option/poc/internal/topo"
)

// §3.3 expects large CSPs to lease their spare backbone capacity to
// the POC precisely because "they can overbuy, and then lease out (on
// a temporary basis) their excess bandwidth but can quickly recall it
// from the POC when needed". This file implements the recall path:
// the BP takes the link back mid-lease, pays a contractual penalty,
// the fabric reroutes affected flows, and the POC stops paying for
// the link going forward.

// RecallReport describes the outcome of one lease recall.
type RecallReport struct {
	Link int
	BP   int
	// Rerouted counts flows moved to other links; Degraded counts
	// flows left with zero allocation (no alternative capacity).
	Rerouted int
	Degraded int
	// Penalty is what the BP paid the POC for the early recall.
	Penalty float64
	// MonthlySaving is the payment the POC stops owing for the link
	// (its share of the BP's auction payment, pro-rated by declared
	// link cost).
	MonthlySaving float64
}

// MaxPenaltyRate bounds a recall's penalty rate at a thousand months
// of the link's payment share. A larger rate can overflow the penalty
// to +Inf, which no ledger or export can hold.
const MaxPenaltyRate = 1000.0

// RecallLink processes a BP's recall of a leased (selected) link.
// penaltyRate scales the penalty: penalty = rate × the link's share
// of the BP's monthly auction payment; a rate over MaxPenaltyRate is
// refused. The link is failed on the fabric (flows reroute or
// degrade) and removed from future billing.
func (p *POC) RecallLink(linkID int, penaltyRate float64) (*RecallReport, error) {
	if p.phase != phaseActive {
		return nil, fmt.Errorf("core: POC not active")
	}
	if penaltyRate < 0 {
		return nil, fmt.Errorf("core: negative penalty rate")
	}
	if penaltyRate > MaxPenaltyRate {
		return nil, fmt.Errorf("core: penalty rate %v over the %v bound", penaltyRate, MaxPenaltyRate)
	}
	if linkID < 0 || linkID >= len(p.cfg.Network.Links) {
		return nil, fmt.Errorf("core: unknown link %d", linkID)
	}
	if !p.auctionResult.Selected[linkID] {
		return nil, fmt.Errorf("core: link %d is not leased", linkID)
	}
	link := p.cfg.Network.Links[linkID]
	if link.BP == topo.VirtualBP {
		return nil, fmt.Errorf("core: virtual link %d is under ISP contract, not recallable", linkID)
	}
	if p.recalled[linkID] {
		return nil, fmt.Errorf("core: link %d already recalled", linkID)
	}

	// The link's share of the BP's payment, pro-rated by its fraction
	// of the BP's selected capacity-distance product.
	share := p.linkPaymentShare(linkID)
	penalty := penaltyRate * share
	if penalty > 0 {
		if err := p.ledger.Pay(p.bpIDs[link.BP], p.pocID, market.RecallPenalty, penalty,
			fmt.Sprintf("early recall of link %d", linkID)); err != nil {
			return nil, err
		}
	}
	p.recalled[linkID] = true

	changed := p.fabric.FailLink(linkID)
	rep := &RecallReport{
		Link:          linkID,
		BP:            link.BP,
		Penalty:       penalty,
		MonthlySaving: share,
	}
	for _, id := range changed {
		fl, err := p.fabric.Flow(id)
		if err != nil {
			continue
		}
		if fl.Allocated > 0 {
			rep.Rerouted++
		} else {
			rep.Degraded++
		}
	}
	if o := p.cfg.Obs; o != nil {
		o.Add("core.recalls", 1)
		o.AddFloat("core.recall_penalty_income", penalty)
		o.AddFloat("core.recall_monthly_saving", share)
	}
	return rep, nil
}

// linkPaymentShare apportions the BP's monthly auction payment across
// its selected links by capacity-distance product.
func (p *POC) linkPaymentShare(linkID int) float64 {
	link := p.cfg.Network.Links[linkID]
	bp := link.BP
	weight := func(l topo.LogicalLink) float64 { return l.Capacity * l.DistanceKm }
	// Link-ID order: the share denominator is a float accumulation,
	// and map iteration would perturb payment splits at ULP scale.
	ids := make([]int, 0, len(p.auctionResult.Selected))
	for id := range p.auctionResult.Selected {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	total := 0.0
	for _, id := range ids {
		l := p.cfg.Network.Links[id]
		if l.BP == bp && !p.recalled[id] {
			total += weight(l)
		}
	}
	// Include the link itself if already marked recalled (callers
	// compute the share before marking).
	if p.recalled[linkID] {
		total += weight(link)
	}
	if total <= 0 {
		return 0
	}
	return p.auctionResult.Payments[bp] * weight(link) / total
}

// OpenEdgeService creates an open CDN/edge service on the active
// fabric at the given posted per-cache monthly price. The service is
// registered for billing: DeployCache charges the owning CSP through
// the ledger each epoch via BillEpoch... (fees are collected at
// deployment time for simplicity: one month per deployment).
func (p *POC) OpenEdgeService(name string, postedPrice float64) (*edge.Service, error) {
	if p.phase != phaseActive {
		return nil, fmt.Errorf("core: POC not active")
	}
	svc, err := edge.NewService(name, p.fabric, postedPrice)
	if err != nil {
		return nil, err
	}
	if p.edgeServices == nil {
		p.edgeServices = map[string]*edge.Service{}
	}
	if _, dup := p.edgeServices[name]; dup {
		return nil, fmt.Errorf("core: edge service %q already exists", name)
	}
	p.edgeServices[name] = svc
	return svc, nil
}

// DeployCache deploys a cache for an attached CSP on a named edge
// service and bills the posted fee immediately. Any attached member
// may deploy — openness is the whole point (§3.4 condition (iii)).
func (p *POC) DeployCache(service, csp string, router int) error {
	svc, ok := p.edgeServices[service]
	if !ok {
		return fmt.Errorf("core: unknown edge service %q", service)
	}
	member, ok := p.memberID[csp]
	if !ok {
		return fmt.Errorf("core: %q is not an attached member", csp)
	}
	if _, err := svc.Deploy(csp, router); err != nil {
		return err
	}
	if svc.PostedPrice() > 0 {
		if err := p.ledger.Pay(member, p.pocID, market.EdgeServiceFee, svc.PostedPrice(),
			fmt.Sprintf("%s cache at router %d", service, router)); err != nil {
			return err
		}
	}
	return nil
}
