package poc

import (
	"fmt"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// ScenarioOptions sizes a paper-style experiment. The zero value plus
// Scale=1 reproduces the paper-scale instance: 20 BPs, ~4700 logical
// links (the paper reports 4674), a 20 Tbps gravity traffic matrix,
// standard bids with volume discounts, and an external ISP attached
// at four major hubs.
type ScenarioOptions struct {
	// Scale in (0,1] shrinks the instance: the zoo's network count
	// scales linearly and the traffic matrix quadratically (capacity
	// shrinks superlinearly with fewer networks). Scale 0.25–0.35
	// gives seconds-scale auctions for tests and benches; 1 is the
	// paper-scale instance. 0 means 1.
	Scale float64
	// Seed overrides the zoo seed (0 = default).
	Seed int64
	// NumBPs overrides the number of bandwidth providers (0 = 20).
	NumBPs int
	// MinColo overrides the colocation threshold for POC router
	// placement (0 = the paper's 4).
	MinColo int
	// FailureScenarios bounds Constraint-2 checks (0 = 8).
	FailureScenarios int
	// NoVirtualLinks omits the external ISP (used by the collusion
	// ablation; production POCs always keep the fallback).
	NoVirtualLinks bool
	// Workers bounds auction parallelism for POCs built from this
	// scenario (0 = auto). Any setting yields bit-identical results.
	Workers int
	// DenseVirtual attaches the external ISP at every router instead
	// of the four major hubs, so the fallback mesh keeps every BP
	// replaceable even when all non-SL links are withdrawn (the §3.3
	// collusion experiment needs this; the paper assumes external
	// ISPs "attach to the POC in multiple locations" and uses them as
	// the bound on collusion gains).
	DenseVirtual bool
	// Obs, when non-nil, is threaded through every layer built from
	// this scenario — auctions, POC deployments, their fabrics and
	// chaos engines — so one registry collects the whole experiment.
	// Nil (the default) makes the entire observability layer a no-op.
	Obs *Observer
}

// Scenario is an assembled experiment: topology, demand, bids and
// external contracts.
type Scenario struct {
	World   *World
	Zoo     []ZooNetwork
	Network *POCNetwork
	TM      *TrafficMatrix
	Pricing LeasePricing
	Bids    []Bid
	Virtual []VirtualLink
	Opts    ScenarioOptions
}

// NewScenario builds a deterministic experiment instance.
func NewScenario(opts ScenarioOptions) (*Scenario, error) {
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if opts.Scale < 0 || opts.Scale > 1 {
		return nil, fmt.Errorf("poc: scale %v out of (0,1]", opts.Scale)
	}
	if opts.NumBPs == 0 {
		opts.NumBPs = 20
	}
	if opts.MinColo == 0 {
		opts.MinColo = 4
	}
	if opts.FailureScenarios == 0 {
		opts.FailureScenarios = 8
	}

	w := topo.DefaultWorld()
	zoo := topo.DefaultZooConfig()
	if opts.Seed != 0 {
		zoo.Seed = opts.Seed
	}
	zoo.NumNetworks = int(float64(zoo.NumNetworks) * opts.Scale)
	if zoo.NumNetworks < opts.NumBPs {
		zoo.NumNetworks = opts.NumBPs
	}
	nets := topo.GenerateZoo(w, zoo)
	network := topo.BuildPOCNetwork(w, nets, opts.NumBPs, opts.MinColo, 0)
	if len(network.Routers) < 2 {
		return nil, fmt.Errorf("poc: scenario too small: %d POC routers", len(network.Routers))
	}

	gcfg := traffic.DefaultGravityConfig()
	gcfg.TotalGbps *= opts.Scale * opts.Scale
	tm := traffic.Gravity(len(network.Routers), gcfg,
		func(i int) float64 { return w.Cities[network.Routers[i]].Population },
		func(i, j int) float64 { return w.Distance(network.Routers[i], network.Routers[j]) })

	pricing := auction.DefaultLeasePricing()
	bids := auction.StandardBids(network, pricing)

	var virtual []VirtualLink
	if !opts.NoVirtualLinks {
		var attach []int
		if opts.DenseVirtual {
			for r := 0; r < len(network.Routers); r++ {
				attach = append(attach, r)
			}
		} else {
			for _, name := range []string{"NewYork", "London", "Tokyo", "SaoPaulo"} {
				if r := network.RouterIndex(w.CityIndex(name)); r >= 0 {
					attach = append(attach, r)
				}
			}
		}
		if len(attach) < 2 {
			attach = []int{0, len(network.Routers) / 2}
		}
		virtual = auction.StandardVirtualLinks(network, attach, 400, 3.0, pricing)
	}

	return &Scenario{
		World:   w,
		Zoo:     nets,
		Network: network,
		TM:      tm,
		Pricing: pricing,
		Bids:    bids,
		Virtual: virtual,
		Opts:    opts,
	}, nil
}

// RouteOptions returns the scenario's standard routing options.
func (s *Scenario) RouteOptions() RouteOptions {
	return provision.Options{FailureScenarios: s.Opts.FailureScenarios}
}

// Instance builds a runnable auction under the given constraint.
func (s *Scenario) Instance(c Constraint, maxChecks int) *AuctionInstance {
	return &auction.Instance{
		Network:    s.Network,
		Bids:       s.Bids,
		Virtual:    s.Virtual,
		TM:         s.TM,
		Constraint: c,
		RouteOpts:  s.RouteOptions(),
		MaxChecks:  maxChecks,
		Obs:        s.Opts.Obs,
	}
}

// Figure2 runs the paper's Figure 2 experiment on this scenario.
func (s *Scenario) Figure2(maxChecks int) (*Figure2Result, error) {
	return auction.RunFigure2(auction.Figure2Config{
		Network:   s.Network,
		TM:        s.TM,
		Bids:      s.Bids,
		Virtual:   s.Virtual,
		RouteOpts: s.RouteOptions(),
		MaxChecks: maxChecks,
	})
}

// NewFabric builds a data-plane fabric over the scenario's full
// offered link set with one LMP endpoint attached per POC router
// ("ep0".."epN-1") — the standing substrate for fabric benchmarks and
// equivalence tests that need flows without running an auction first.
// The returned endpoint IDs are in router order. The scenario's
// observer, if any, is attached.
func (s *Scenario) NewFabric() (*Fabric, []EndpointID, error) {
	f := netsim.New(s.Network, nil)
	if s.Opts.Obs != nil {
		f.SetObserver(s.Opts.Obs)
	}
	eps := make([]EndpointID, len(s.Network.Routers))
	for r := range s.Network.Routers {
		id, err := f.Attach(fmt.Sprintf("ep%d", r), netsim.LMPEndpoint, r)
		if err != nil {
			return nil, nil, err
		}
		eps[r] = id
	}
	return f, eps, nil
}

// NewPOC creates an Operator configured for this scenario.
func (s *Scenario) NewPOC(c Constraint) (*Operator, error) {
	return core.New(core.Config{
		Network:       s.Network,
		TM:            s.TM,
		Constraint:    c,
		RouteOpts:     s.RouteOptions(),
		ReserveMargin: 0.02,
		Workers:       s.Opts.Workers,
		Obs:           s.Opts.Obs,
	})
}

// Deploy runs the lease lifecycle of a new POC under constraint c:
// it submits every bid, adds the external ISP's virtual links, runs
// the auction and activates the fabric over the winners. The call
// order is fixed — obs exports and pocd journal replays depend on it.
func (s *Scenario) Deploy(c Constraint) (*Operator, *AuctionResult, error) {
	op, err := s.NewPOC(c)
	if err != nil {
		return nil, nil, err
	}
	for _, b := range s.Bids {
		if err := op.SubmitBid(b); err != nil {
			return nil, nil, err
		}
	}
	if err := op.AddVirtualLinks(s.Virtual); err != nil {
		return nil, nil, err
	}
	res, err := op.RunAuction()
	if err != nil {
		return nil, nil, err
	}
	if err := op.Activate(); err != nil {
		return nil, nil, err
	}
	return op, res, nil
}
