// Package scenario assembles the paper's instance — BPs, POC routers,
// gravity demand, standard bids and the external ISP — and runs the
// one lease lifecycle every deployment of it goes through.
package scenario

import (
	"fmt"

	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// The paper's instance: its BP count, the colocation threshold for
// POC router placement, and how many failure scenarios Constraint-2
// checks cover.
const (
	NumBPs           = 20
	MinColo          = 4
	failureScenarios = 8
)

// Options sizes a paper-style experiment. The zero value plus
// Scale=1 reproduces the paper-scale instance: 20 BPs, ~4700 logical
// links (the paper reports 4674), a 20 Tbps gravity traffic matrix,
// standard bids with volume discounts, and an external ISP attached
// at four major hubs.
type Options struct {
	// Scale in (0,1] shrinks the instance: the zoo's network count
	// scales linearly and the traffic matrix quadratically (capacity
	// shrinks superlinearly with fewer networks). Scale 0.25–0.35
	// gives seconds-scale auctions for tests and benches; 1 is the
	// paper-scale instance. 0 means 1.
	Scale float64
	// Seed overrides the zoo seed (0 = default).
	Seed int64
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
	Obs *obs.Registry
}

// Scenario is an assembled experiment: topology, demand, bids and
// external contracts.
type Scenario struct {
	World   *topo.World
	Zoo     []topo.Network
	Network *topo.POCNetwork
	TM      *traffic.Matrix
	Pricing auction.LeasePricing
	Bids    []auction.Bid
	Virtual []auction.VirtualLink
	Opts    Options
}

// New builds a deterministic experiment instance over the synthetic
// zoo.
func New(opts Options) (*Scenario, error) { return build(opts, "") }

// Corpus builds the instance over a directory of real GML files in
// place of the zoo; scale sizes the demand only. Small corpora rarely
// have four networks meeting in one city, so the colocation threshold
// drops to 2 and the BP count is capped at the corpus size.
func Corpus(dir string, scale float64) (*Scenario, error) {
	return build(Options{Scale: scale}, dir)
}

// build assembles the instance over the GML corpus in dir, or over the
// zoo if dir is empty.
func build(opts Options, dir string) (*Scenario, error) {
	if opts.Scale == 0 {
		opts.Scale = 1
	}
	if !(opts.Scale > 0 && opts.Scale <= 1) {
		return nil, fmt.Errorf("scenario: scale %v out of (0,1]", opts.Scale)
	}

	w := topo.DefaultWorld()
	var nets []topo.Network
	numBPs, minColo := NumBPs, MinColo
	if dir != "" {
		var err error
		if nets, err = topo.LoadGMLCorpus(w, dir, 100); err != nil {
			return nil, err
		}
		numBPs, minColo = min(NumBPs, len(nets)), 2
	} else {
		zoo := topo.DefaultZooConfig()
		if opts.Seed != 0 {
			zoo.Seed = opts.Seed
		}
		zoo.NumNetworks = int(float64(zoo.NumNetworks) * opts.Scale)
		if zoo.NumNetworks < NumBPs {
			zoo.NumNetworks = NumBPs
		}
		nets = topo.GenerateZoo(w, zoo)
	}
	network := topo.BuildPOCNetwork(w, nets, numBPs, minColo, 0)
	if len(network.Routers) < 2 {
		return nil, fmt.Errorf("scenario: too small: %d POC routers", len(network.Routers))
	}

	gcfg := traffic.DefaultGravityConfig()
	gcfg.TotalGbps *= opts.Scale * opts.Scale
	tm := traffic.Gravity(len(network.Routers), gcfg,
		func(i int) float64 { return w.Cities[network.Routers[i]].Population },
		func(i, j int) float64 { return w.Distance(network.Routers[i], network.Routers[j]) })

	pricing := auction.DefaultLeasePricing()
	bids := auction.StandardBids(network, pricing)

	var virtual []auction.VirtualLink
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
func (s *Scenario) RouteOptions() provision.Options {
	return provision.Options{FailureScenarios: failureScenarios}
}

// Instance builds a runnable auction under the given constraint.
func (s *Scenario) Instance(c provision.Constraint, maxChecks int) *auction.Instance {
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
func (s *Scenario) Figure2(maxChecks int) (*auction.Figure2Result, error) {
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
func (s *Scenario) NewFabric() (*netsim.Fabric, []netsim.EndpointID, error) {
	f := netsim.New(s.Network, nil)
	if s.Opts.Obs != nil {
		f.SetObserver(s.Opts.Obs)
	}
	eps := make([]netsim.EndpointID, len(s.Network.Routers))
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
func (s *Scenario) NewPOC(c provision.Constraint) (*core.POC, error) {
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

// Deploy creates a POC under constraint c (NewPOC) and leases it
// (Lease).
func (s *Scenario) Deploy(c provision.Constraint) (*core.POC, *auction.Result, error) {
	op, err := s.NewPOC(c)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Lease(op)
	if err != nil {
		return nil, nil, err
	}
	return op, res, nil
}

// Lease runs the lease lifecycle on op, a POC in its bidding phase
// over this scenario's network: it submits every bid, adds the
// external ISP's virtual links, runs the auction and activates the
// fabric over the winners. The call order is fixed — obs exports and
// pocd journal replays depend on it.
func (s *Scenario) Lease(op *core.POC) (*auction.Result, error) {
	for _, b := range s.Bids {
		if err := op.SubmitBid(b); err != nil {
			return nil, err
		}
	}
	if err := op.AddVirtualLinks(s.Virtual); err != nil {
		return nil, err
	}
	res, err := op.RunAuction()
	if err != nil {
		return nil, err
	}
	if err := op.Activate(); err != nil {
		return nil, err
	}
	return res, nil
}
