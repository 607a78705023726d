// Package poc is the public API of the Public Option for the Core
// reproduction (Harchol et al., SIGCOMM 2020). It re-exports the
// library's main types and provides the Scenario builder that
// assembles paper-scale experiments.
//
// The layering mirrors the paper:
//
//   - topology substrate (synthetic TopologyZoo, BPs, POC routers,
//     logical links) — see Scenario and its Network field;
//   - traffic matrices (gravity model) — Scenario.TM;
//   - the strategy-proof VCG bandwidth auction (§3.3) — RunAuction,
//     Figure2;
//   - the POC operator (lease lifecycle, neutral fabric, break-even
//     billing, terms-of-service enforcement) — NewPOC, Deploy;
//   - the §4 network-neutrality economics — the Econ* helpers.
//
// A minimal end-to-end use:
//
//	s, _ := poc.NewScenario(poc.ScenarioOptions{Scale: 0.3})
//	// Deploy submits s.Bids, adds s.Virtual, runs the auction and
//	// activates the fabric: the whole lease lifecycle.
//	operator, res, _ := s.Deploy(poc.Constraint1)
//	operator.AttachLMP("lmp-east", 0, poc.PeeringPolicy{})
//	fmt.Println("leased", len(res.Selected), "links")
package poc

import (
	"github.com/public-option/poc/internal/auction"
	"github.com/public-option/poc/internal/chaos"
	"github.com/public-option/poc/internal/core"
	"github.com/public-option/poc/internal/econ"
	"github.com/public-option/poc/internal/edge"
	"github.com/public-option/poc/internal/federation"
	"github.com/public-option/poc/internal/interdomain"
	"github.com/public-option/poc/internal/market"
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/regimesim"
	"github.com/public-option/poc/internal/topo"
	"github.com/public-option/poc/internal/traffic"
)

// Topology substrate.
type (
	// World is the city universe shared by all networks.
	World = topo.World
	// City is a geographic location with a population.
	City = topo.City
	// ZooNetwork is one synthetic topology-zoo network.
	ZooNetwork = topo.Network
	// ZooConfig controls the synthetic zoo generator.
	ZooConfig = topo.ZooConfig
	// POCNetwork is the auction input: POC routers and logical links.
	POCNetwork = topo.POCNetwork
	// LogicalLink is a BP-offered point-to-point connection.
	LogicalLink = topo.LogicalLink
	// BP is a bandwidth provider.
	BP = topo.BP
)

// Traffic matrices.
type (
	// TrafficMatrix is a Gbps demand matrix between attachment points.
	TrafficMatrix = traffic.Matrix
	// GravityConfig parameterises the gravity traffic model.
	GravityConfig = traffic.GravityConfig
)

// Provisioning.
type (
	// Constraint selects the auction acceptability family.
	Constraint = provision.Constraint
	// RouteOptions tunes the feasibility router.
	RouteOptions = provision.Options
	// Routing is a placement of a traffic matrix onto links.
	Routing = provision.Routing
)

// The three §3.3 auction constraints.
const (
	Constraint1 = provision.Constraint1
	Constraint2 = provision.Constraint2
	Constraint3 = provision.Constraint3
)

// Observability.
type (
	// Observer is the deterministic metrics registry: one instance is
	// threaded through every layer of a deployment (auction,
	// provisioning, fabric, billing, chaos) and exports a
	// byte-identical JSON ledger across runs and Workers settings.
	Observer = obs.Registry
	// TraceSpan is one exported trace interval on the monotonic step
	// clock.
	TraceSpan = obs.Span
)

// NewObserver returns an empty metrics registry ready to pass via
// ScenarioOptions.Obs or OperatorConfig.Obs.
func NewObserver() *Observer { return obs.New() }

// Auction.
type (
	// Bid is one BP's offer with a subset cost function.
	Bid = auction.Bid
	// CostFn prices subsets of a BP's links.
	CostFn = auction.CostFn
	// VirtualLink is an external-ISP contract link.
	VirtualLink = auction.VirtualLink
	// AuctionInstance is one runnable auction.
	AuctionInstance = auction.Instance
	// AuctionResult reports selection and Clarke payments.
	AuctionResult = auction.Result
	// LeasePricing converts link characteristics to lease prices.
	LeasePricing = auction.LeasePricing
	// Figure2Config assembles the Figure 2 experiment.
	Figure2Config = auction.Figure2Config
	// Figure2Result is the Figure 2 output.
	Figure2Result = auction.Figure2Result
	// CollusionResult compares honest and manipulated auctions.
	CollusionResult = auction.CollusionResult
)

// Operator.
type (
	// Operator runs the POC lease lifecycle end to end.
	Operator = core.POC
	// OperatorConfig configures an Operator.
	OperatorConfig = core.Config
	// EpochReport summarizes one billing epoch.
	EpochReport = core.EpochReport
	// ReauctionReport describes one re-leasing cycle.
	ReauctionReport = core.ReauctionReport
	// RecallReport describes one lease recall.
	RecallReport = core.RecallReport
)

// Fabric.
type (
	// Fabric is the flow-level POC data plane.
	Fabric = netsim.Fabric
	// Flow is one admitted aggregate flow.
	Flow = netsim.Flow
	// QoSClass is an open, posted-price service class.
	QoSClass = netsim.Class
	// EndpointID identifies a fabric attachment.
	EndpointID = netsim.EndpointID
)

// BestEffort is the default QoS class.
var BestEffort = netsim.BestEffort

// Chaos engineering (fault schedules, repair, recovery).
type (
	// ChaosEngine drives a POC through a fault schedule with recovery.
	ChaosEngine = chaos.Engine
	// ChaosSchedule is an ordered fault script over the epoch clock.
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one scheduled fault or repair.
	ChaosEvent = chaos.Event
	// RecoveryConfig tunes the recovery-policy ladder.
	RecoveryConfig = chaos.RecoveryConfig
	// RecoveryPolicy selects the highest ladder rung (reroute-only,
	// recall, reauction).
	RecoveryPolicy = chaos.Policy
	// SurvivabilityReport is a chaos run's delivered-fraction
	// timeline, recovery actions and totals.
	SurvivabilityReport = chaos.Report
)

// The recovery ladder rungs.
const (
	RecoverReroute   = chaos.RerouteOnly
	RecoverRecall    = chaos.Recall
	RecoverReauction = chaos.Reauction
)

// NewChaosEngine assembles a chaos engine over an active operator.
func NewChaosEngine(p *Operator, s ChaosSchedule, rc RecoveryConfig) (*ChaosEngine, error) {
	return chaos.New(p, s, rc)
}

// ParseRecoveryPolicy parses a -policy flag value.
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) { return chaos.ParsePolicy(s) }

// DefaultRecoveryConfig returns the documented default recovery
// tuning for a policy. RecoveryConfig fields mean exactly what they
// say (a zero Threshold never escalates; a zero PenaltyRate recalls
// penalty-free) — start from this and override.
func DefaultRecoveryConfig(p RecoveryPolicy) RecoveryConfig { return chaos.DefaultRecovery(p) }

// SingleBPOutage scripts one BP going dark and coming back.
func SingleBPOutage(bp, failEpoch, repairEpoch int) ChaosSchedule {
	return chaos.SingleBPOutage(bp, failEpoch, repairEpoch)
}

// FlappingLink scripts a link that alternates down and up.
func FlappingLink(link, start, downEpochs, upEpochs, cycles int) ChaosSchedule {
	return chaos.FlappingLink(link, start, downEpochs, upEpochs, cycles)
}

// CorrelatedCut scripts a geographic cut around a point.
func CorrelatedCut(lat, lon, radiusKm float64, failEpoch, repairEpoch int) ChaosSchedule {
	return chaos.CorrelatedCut(lat, lon, radiusKm, failEpoch, repairEpoch)
}

// RandomChaos generates a seeded stochastic fault schedule.
func RandomChaos(seed int64, horizon int, links []int, failProb, mttrEpochs float64) ChaosSchedule {
	return chaos.Random(seed, horizon, links, failProb, mttrEpochs)
}

// Peering / terms of service.
type (
	// PeeringPolicy is an LMP's declared traffic handling.
	PeeringPolicy = peering.Policy
	// PeeringRule is one traffic-handling rule.
	PeeringRule = peering.Rule
	// PeeringSelector matches a subset of traffic.
	PeeringSelector = peering.Selector
	// PeeringViolation is one audited terms breach.
	PeeringViolation = peering.Violation
)

// AuditPolicy checks a policy against the §3.4 peering conditions.
func AuditPolicy(p PeeringPolicy) []PeeringViolation { return peering.Audit(p) }

// Market.
type (
	// Ledger records and validates §3.2 payments.
	Ledger = market.Ledger
	// Plan prices access for a billing period.
	Plan = market.Plan
)

// Economics (§4).
type (
	// Demand is a willingness-to-pay distribution.
	Demand = econ.Demand
	// EconLMP describes an LMP in the bargaining model.
	EconLMP = econ.LMP
	// EconOutcome summarizes a service under a regime.
	EconOutcome = econ.Outcome
	// EconRegime selects NN / UR-unilateral / UR-bargain.
	EconRegime = econ.Regime
)

// The §4 regimes.
const (
	RegimeNN           = econ.NN
	RegimeURUnilateral = econ.URUnilateral
	RegimeURBargain    = econ.URBargain
)

// EvaluateRegime computes a service's §4 outcome under a regime.
func EvaluateRegime(d Demand, r EconRegime, lmps []EconLMP) (EconOutcome, error) {
	return econ.Evaluate(d, r, lmps)
}

// NBSFee returns the bilateral Nash-bargaining termination fee
// (p − r·c)/2 from §4.5.
func NBSFee(price, churn, access float64) float64 { return econ.NBSFee(price, churn, access) }

// RunFigure2 reproduces the paper's Figure 2.
func RunFigure2(cfg Figure2Config) (*Figure2Result, error) { return auction.RunFigure2(cfg) }

// RunCollusion runs the §3.3 withdraw-unselected-links manipulation
// experiment.
func RunCollusion(in *AuctionInstance) (*CollusionResult, error) { return auction.RunCollusion(in) }

// DefaultWorld returns the 60-city world map.
func DefaultWorld() *World { return topo.DefaultWorld() }

// DefaultZooConfig returns the paper-scale zoo configuration.
func DefaultZooConfig() ZooConfig { return topo.DefaultZooConfig() }

// DefaultLeasePricing returns the standard lease pricing.
func DefaultLeasePricing() LeasePricing { return auction.DefaultLeasePricing() }

// NewOperator creates a POC operator in the bidding phase.
func NewOperator(cfg OperatorConfig) (*Operator, error) { return core.New(cfg) }

// Edge services (§3.1–3.2).
type (
	// EdgeService is an open CDN/edge service at POC routers.
	EdgeService = edge.Service
	// EdgeDelivery records how one content delivery was served.
	EdgeDelivery = edge.Delivery
	// EdgeOffloadReport quantifies backbone offload from caches.
	EdgeOffloadReport = edge.OffloadReport
)

// EdgeOffload summarizes a set of deliveries.
func EdgeOffload(ds []*EdgeDelivery) EdgeOffloadReport { return edge.Offload(ds) }

// Federation (§1.2).
type (
	// Federation interconnects multiple POC fabrics.
	Federation = federation.Federation
	// FederationMemberID identifies a member POC.
	FederationMemberID = federation.MemberID
	// CrossFlow is a flow spanning two member POCs.
	CrossFlow = federation.CrossFlow
)

// NewFederation returns an empty federation.
func NewFederation() *Federation { return federation.New() }

// Market entry (§2.3/§2.5).
type (
	// EntryModel parameterises one LMP entry decision.
	EntryModel = econ.EntryModel
	// EntryAnalysis is the combined transit-squeeze and fee-gap view.
	EntryAnalysis = econ.EntryAnalysis
)

// Transit sources for the entry model.
const (
	IncumbentTransit = econ.IncumbentTransit
	POCTransit       = econ.POCTransit
)

// AnalyzeEntry runs the §2.3+§4.5 entry analysis.
func AnalyzeEntry(m EntryModel, cspPrice, incumbentChurn, entrantChurn float64) (EntryAnalysis, error) {
	return econ.AnalyzeEntry(m, cspPrice, incumbentChurn, entrantChurn)
}

// Regime simulation (§4 through the §3.2 ledger).
type (
	// RegimeService is one CSP product in the simulated market.
	RegimeService = regimesim.Service
	// RegimeProvider is one LMP in the simulated market.
	RegimeProvider = regimesim.Provider
	// RegimeResult is a full regime-simulation output.
	RegimeResult = regimesim.Result
)

// CompareRegimes runs the same market under NN, UR-bargain and
// UR-unilateral and returns the results keyed by regime.
func CompareRegimes(services []RegimeService, lmps []RegimeProvider, epochs int) (map[EconRegime]*RegimeResult, error) {
	return regimesim.Compare(services, lmps, epochs)
}

// Status-quo interdomain baseline (§2.1/§2.5).
type (
	// ASTopology is a BGP-style AS graph with Gao–Rexford routing.
	ASTopology = interdomain.Topology
	// ASHierarchy is the synthetic tier-1/regional/stub baseline.
	ASHierarchy = interdomain.Hierarchy
	// BaselineComparison contrasts status-quo and POC transit bills.
	BaselineComparison = interdomain.BaselineComparison
)

// NewASHierarchy builds the synthetic status-quo Internet baseline.
func NewASHierarchy(tier1, regionals, stubsPerRegional int) (*ASHierarchy, error) {
	return interdomain.SyntheticHierarchy(tier1, regionals, stubsPerRegional)
}
