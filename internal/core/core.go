// Package core implements the POC operator: the nonprofit that runs
// the paper's Public Option for the Core. It drives the full lease
// lifecycle —
//
//	collect bids → run the VCG auction → provision the selected
//	links → activate the fabric → attach LMPs/CSPs under the
//	network-neutrality terms of service → carry traffic → bill
//	usage at break-even prices → settle with BPs and external ISPs
//
// — exposing one type, POC, whose methods must be called in lifecycle
// order (they return errors otherwise, never panic).
package core

import (
	"fmt"
	"sort"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/edge"
	"github.com/public-option/poc/internal/market"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Config assembles a POC deployment.
type Config struct {
	// Network is the offer graph: routers and all offered links.
	Network *topo.POCNetwork
	// TM is the upper-bound traffic matrix the POC provisions for.
	TM *traffic.Matrix
	// Constraint selects the acceptability family for the auction
	// (Constraint2 is the sensible production default: survive any
	// single path failure).
	Constraint provision.Constraint
	// RouteOpts tunes feasibility routing.
	RouteOpts provision.Options
	// ReserveMargin in [0,1) pads the break-even price for
	// contingencies; the POC is a nonprofit, not a charity (§1.2).
	ReserveMargin float64
	// Workers bounds auction parallelism (0 = auto). Results are
	// bit-identical for any setting.
	Workers int
	// Obs, when non-nil, is the deployment's observability registry:
	// it is threaded through the auction, the provisioned fabric, and
	// every reauction, and receives per-epoch billing timelines. One
	// registry per deployment yields one coherent exported ledger.
	Obs *obs.Registry
	// Cache, when non-nil, is an external feasibility memo shared
	// beyond this deployment (see auction.Instance.Cache): the fleet
	// runner threads one process-wide cache through every cell. It is
	// forwarded to the initial auction and to every reauction; entries
	// are namespaced by price-metric fingerprint, so a reauction's
	// reduced bids never collide with the main auction's.
	Cache *provision.FeasibilityCache
}

// phase tracks lifecycle progress.
type phase int

const (
	phaseBidding phase = iota
	phaseAuctioned
	phaseActive
)

// POC is the operator state machine.
type POC struct {
	cfg     Config
	phase   phase
	bids    []auction.Bid
	virtual []auction.VirtualLink

	auctionResult *auction.Result
	fabric        *netsim.Fabric

	ledger   *market.Ledger
	pocID    market.EntityID
	bpIDs    []market.EntityID
	ispID    market.EntityID
	memberID map[string]market.EntityID // LMP/CSP name -> ledger entity

	endpoints map[string]netsim.EndpointID
	policies  map[string]peering.Policy
	suspended map[string]bool
	// members is memberList's result, nil until it is built and
	// again whenever endpoints, suspended or fabric change.
	members  []Member
	billedGB map[string]float64 // usage already billed, per member

	recalled     map[int]bool // links recalled by their BPs
	edgeServices map[string]*edge.Service
	qos          map[string]QoSOffering
	epochs       int
}

// New creates a POC in the bidding phase.
func New(cfg Config) (*POC, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("core: nil network")
	}
	if cfg.TM == nil {
		return nil, fmt.Errorf("core: nil traffic matrix")
	}
	if cfg.Constraint == 0 {
		cfg.Constraint = provision.Constraint2
	}
	if cfg.ReserveMargin < 0 || cfg.ReserveMargin >= 1 {
		return nil, fmt.Errorf("core: reserve margin %v out of [0,1)", cfg.ReserveMargin)
	}
	p := &POC{
		cfg:       cfg,
		ledger:    &market.Ledger{},
		memberID:  map[string]market.EntityID{},
		endpoints: map[string]netsim.EndpointID{},
		policies:  map[string]peering.Policy{},
		suspended: map[string]bool{},
		billedGB:  map[string]float64{},
		recalled:  map[int]bool{},
	}
	p.pocID = p.ledger.AddEntity(market.POC, "poc")
	for i := range cfg.Network.BPs {
		p.bpIDs = append(p.bpIDs, p.ledger.AddEntity(market.BandwidthProvider, cfg.Network.BPs[i].Name))
	}
	p.ispID = p.ledger.AddEntity(market.ExternalISP, "external-isp")
	return p, nil
}

// SubmitBid registers a BP's bid during the bidding phase.
func (p *POC) SubmitBid(b auction.Bid) error {
	if p.phase != phaseBidding {
		return fmt.Errorf("core: bids are closed")
	}
	if err := b.Validate(p.cfg.Network); err != nil {
		return err
	}
	for _, existing := range p.bids {
		if existing.BP == b.BP {
			return fmt.Errorf("core: BP %d already bid", b.BP)
		}
	}
	p.bids = append(p.bids, b)
	return nil
}

// AddVirtualLinks registers external-ISP virtual links.
func (p *POC) AddVirtualLinks(vls []auction.VirtualLink) error {
	if p.phase != phaseBidding {
		return fmt.Errorf("core: bids are closed")
	}
	p.virtual = append(p.virtual, vls...)
	return nil
}

// RunAuction closes bidding and runs the VCG auction.
func (p *POC) RunAuction() (*auction.Result, error) {
	if p.phase != phaseBidding {
		return nil, fmt.Errorf("core: auction already ran")
	}
	if len(p.bids) == 0 {
		return nil, fmt.Errorf("core: no bids")
	}
	res, err := p.newAuction(p.bids, p.cfg.TM).Run()
	if err != nil {
		return nil, err
	}
	p.auctionResult = res
	p.phase = phaseAuctioned
	return res, nil
}

// newAuction builds the deployment's auction over bids and tm. The
// initial auction and every reauction differ only in those two. The
// shared Cache is forwarded to reauctions too: entries are namespaced
// by each auction's own price-metric fingerprint, so a reauction's
// reduced bids never collide with the main auction's.
func (p *POC) newAuction(bids []auction.Bid, tm *traffic.Matrix) *auction.Instance {
	return &auction.Instance{
		Network:    p.cfg.Network,
		Bids:       bids,
		Virtual:    p.virtual,
		TM:         tm,
		Constraint: p.cfg.Constraint,
		RouteOpts:  p.cfg.RouteOpts,
		Workers:    p.cfg.Workers,
		Obs:        p.cfg.Obs,
		Cache:      p.cfg.Cache,
	}
}

// Activate builds the fabric over the auctioned link set.
func (p *POC) Activate() error {
	if p.phase != phaseAuctioned {
		return fmt.Errorf("core: activate requires a completed auction")
	}
	p.fabric = netsim.New(p.cfg.Network, p.auctionResult.Selected)
	p.fabric.SetObserver(p.cfg.Obs)
	p.members = nil
	p.phase = phaseActive
	return nil
}

// Fabric exposes the active data plane (nil before Activate).
func (p *POC) Fabric() *netsim.Fabric { return p.fabric }

// Observer exposes the deployment's metrics registry (nil when
// observability is off).
func (p *POC) Observer() *obs.Registry { return p.cfg.Obs }

// AuctionResult exposes the auction outcome (nil before RunAuction).
func (p *POC) AuctionResult() *auction.Result { return p.auctionResult }

// Ledger exposes the POC's books for inspection.
func (p *POC) Ledger() *market.Ledger { return p.ledger }

// Network exposes the offer graph the POC was configured with.
func (p *POC) Network() *topo.POCNetwork { return p.cfg.Network }

// TrafficMatrix exposes the provisioning traffic matrix.
func (p *POC) TrafficMatrix() *traffic.Matrix { return p.cfg.TM }

// Recalled reports whether a link has been recalled by its BP.
func (p *POC) Recalled(linkID int) bool { return p.recalled[linkID] }

// AttachLMP admits a last-mile provider at a router, subject to the
// §3.4 terms of service: the LMP's declared traffic policy must pass
// the neutrality audit.
func (p *POC) AttachLMP(name string, router int, policy peering.Policy) (netsim.EndpointID, error) {
	if p.phase != phaseActive {
		return 0, fmt.Errorf("core: POC not active")
	}
	policy.LMP = name
	if vs := peering.Audit(policy); len(vs) > 0 {
		return 0, fmt.Errorf("core: %s violates the terms of service: %v", name, vs[0])
	}
	id, err := p.fabric.Attach(name, netsim.LMPEndpoint, router)
	if err != nil {
		return 0, err
	}
	p.endpoints[name] = id
	p.members = nil
	p.policies[name] = policy
	p.memberID[name] = p.ledger.AddEntity(market.LastMileProvider, name)
	return id, nil
}

// AttachCSP admits a directly-attached content provider. CSPs have no
// peering policy to audit (they terminate no third-party traffic) but
// pay for access like every member (§3.2).
func (p *POC) AttachCSP(name string, router int) (netsim.EndpointID, error) {
	if p.phase != phaseActive {
		return 0, fmt.Errorf("core: POC not active")
	}
	id, err := p.fabric.Attach(name, netsim.CSPEndpoint, router)
	if err != nil {
		return 0, err
	}
	p.endpoints[name] = id
	p.members = nil
	p.memberID[name] = p.ledger.AddEntity(market.ContentProvider, name)
	return id, nil
}

// EnforceTerms audits every attached LMP's policy and suspends
// violators (their flows are not torn down here; operators act on the
// returned report). It returns all violations found.
func (p *POC) EnforceTerms() []peering.Violation {
	var names []string
	for n := range p.policies {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []peering.Violation
	for _, n := range names {
		vs := peering.Audit(p.policies[n])
		if len(vs) > 0 {
			p.suspended[n] = true
			p.members = nil
			out = append(out, vs...)
		}
	}
	return out
}

// StartFlow admits traffic between two attached members. Suspended
// members cannot start flows.
func (p *POC) StartFlow(src, dst string, gbps float64, class netsim.Class) (*netsim.Flow, error) {
	if p.phase != phaseActive {
		return nil, fmt.Errorf("core: POC not active")
	}
	if p.suspended[src] || p.suspended[dst] {
		return nil, fmt.Errorf("core: member suspended for terms-of-service violations")
	}
	sid, ok := p.endpoints[src]
	if !ok {
		return nil, fmt.Errorf("core: %q not attached", src)
	}
	did, ok := p.endpoints[dst]
	if !ok {
		return nil, fmt.Errorf("core: %q not attached", dst)
	}
	return p.fabric.StartFlow(sid, did, gbps, class)
}

// FlowRequest is one admission in a bulk activation batch, between
// two attached members.
type FlowRequest struct {
	Src, Dst string
	Gbps     float64
	Class    netsim.Class
}

// StartFlows admits a batch of flows in request order, applying the
// same membership and suspension checks as StartFlow per entry. The
// returned slice has one entry per request: the admitted flow's ID,
// or -1 where admission failed. Use this for epoch activations that
// put whole traffic-matrix populations on the fabric at once.
func (p *POC) StartFlows(reqs []FlowRequest) ([]netsim.FlowID, error) {
	if p.phase != phaseActive {
		return nil, fmt.Errorf("core: POC not active")
	}
	ids := make([]netsim.FlowID, len(reqs))
	specs := make([]netsim.FlowSpec, 0, len(reqs))
	specAt := make([]int, 0, len(reqs))
	for i, r := range reqs {
		ids[i] = -1
		if p.suspended[r.Src] || p.suspended[r.Dst] {
			continue
		}
		sid, ok := p.endpoints[r.Src]
		if !ok {
			continue
		}
		did, ok := p.endpoints[r.Dst]
		if !ok {
			continue
		}
		specs = append(specs, netsim.FlowSpec{Src: sid, Dst: did, Demand: r.Gbps, Class: r.Class})
		specAt = append(specAt, i)
	}
	for j, id := range p.fabric.StartFlows(specs) {
		ids[specAt[j]] = id
	}
	return ids, nil
}

// StopFlows releases a batch of flows on the fabric, skipping IDs
// that are unknown or already stopped, and returns how many were
// stopped.
func (p *POC) StopFlows(ids []netsim.FlowID) int {
	if p.fabric == nil {
		return 0
	}
	return p.fabric.StopFlows(ids)
}

// EpochReport summarizes one billing epoch.
type EpochReport struct {
	Epoch        int
	LeaseCost    float64 // paid to BPs (auction payments)
	VirtualCost  float64 // paid to the external ISP (contracts)
	UsageGB      map[string]float64
	PricePerGB   float64
	Revenue      float64
	POCNet       float64 // revenue − costs this epoch
	MemberCharge map[string]float64
}

// MaxEpochSeconds bounds one billing epoch at a year. A longer epoch
// can overflow usage and prorated payments to ±Inf and the revenue to
// NaN, which no ledger or export can hold.
const MaxEpochSeconds = 365 * 24 * 3600.0

// BillEpoch advances simulated time by the given seconds, bills every
// attached member at the break-even usage price, pays the BPs their
// auction payments (prorated from monthly to the epoch length) and
// the external ISP its contract cost, and closes the ledger epoch.
// An epoch over MaxEpochSeconds is refused before anything moves.
func (p *POC) BillEpoch(seconds float64) (*EpochReport, error) {
	if p.phase != phaseActive {
		return nil, fmt.Errorf("core: POC not active")
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("core: non-positive epoch length")
	}
	if seconds > MaxEpochSeconds {
		return nil, fmt.Errorf("core: epoch of %v s over the %v s bound", seconds, MaxEpochSeconds)
	}
	if err := p.fabric.Tick(seconds); err != nil {
		return nil, err
	}

	const monthSeconds = 30 * 24 * 3600.0
	frac := seconds / monthSeconds

	rep := &EpochReport{
		Epoch:        p.epochs,
		UsageGB:      map[string]float64{},
		MemberCharge: map[string]float64{},
	}
	// Costs: prorated auction payments (minus the shares of links
	// their BPs recalled) + virtual contracts.
	recalledShare := make([]float64, len(p.auctionResult.Payments))
	recalledIDs := make([]int, 0, len(p.recalled))
	for id := range p.recalled {
		recalledIDs = append(recalledIDs, id)
	}
	sort.Ints(recalledIDs)
	for _, id := range recalledIDs {
		recalledShare[p.cfg.Network.Links[id].BP] += p.linkPaymentShare(id)
	}
	for a, pay := range p.auctionResult.Payments {
		amt := (pay - recalledShare[a]) * frac
		if amt <= 0 {
			continue
		}
		if err := p.ledger.Pay(p.pocID, p.bpIDs[a], market.LinkLease, amt, "prorated auction payment"); err != nil {
			return nil, err
		}
		rep.LeaseCost += amt
	}
	if vc := p.auctionResult.VirtualCost * frac; vc > 0 {
		if err := p.ledger.Pay(p.pocID, p.ispID, market.ISPContract, vc, "prorated contract"); err != nil {
			return nil, err
		}
		rep.VirtualCost = vc
	}

	// Usage per member since the last billing run. Member-name order
	// throughout: the usage total, the revenue sum and the ledger
	// entries are all float-order-sensitive, and map iteration would
	// make them drift at ULP scale run to run.
	usage := p.fabric.UsageByEndpoint()
	members := p.memberList()
	total := 0.0
	for _, m := range members {
		name := m.Name
		gb := usage[p.endpoints[name]] - p.billedGB[name]
		if gb < 0 {
			gb = 0
		}
		rep.UsageGB[name] = gb
		total += gb
	}
	cost := rep.LeaseCost + rep.VirtualCost
	if total > 0 {
		plan, err := market.BreakEvenUsagePlan(cost, total, p.cfg.ReserveMargin)
		if err != nil {
			return nil, err
		}
		rep.PricePerGB = plan.PerGB
		for _, m := range members {
			name := m.Name
			gb := rep.UsageGB[name]
			if gb == 0 {
				continue
			}
			charge := plan.Charge(gb)
			if err := p.ledger.Pay(p.memberID[name], p.pocID, market.POCAccess, charge, "usage"); err != nil {
				return nil, err
			}
			rep.MemberCharge[name] = charge
			rep.Revenue += charge
		}
	}
	for name, gb := range rep.UsageGB {
		p.billedGB[name] += gb
	}
	rep.POCNet = p.ledger.POCBalance(p.ledger.Epoch())
	p.ledger.CloseEpoch()
	p.epochs++
	if o := p.cfg.Obs; o != nil {
		o.Add("core.epochs", 1)
		o.AddFloat("core.lease_cost_total", rep.LeaseCost+rep.VirtualCost)
		o.AddFloat("core.revenue_total", rep.Revenue)
		o.Append("core.epoch.cost", rep.LeaseCost+rep.VirtualCost)
		o.Append("core.epoch.revenue", rep.Revenue)
		o.Append("core.epoch.net", rep.POCNet)
		o.Append("core.epoch.price_per_gb", rep.PricePerGB)
	}
	return rep, nil
}
