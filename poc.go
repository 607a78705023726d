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
//   - the strategy-proof VCG bandwidth auction (§3.3) —
//     AuctionInstance, RunCollusion;
//   - the POC operator (lease lifecycle, neutral fabric, break-even
//     billing, terms-of-service enforcement) — Operator,
//     Scenario.Deploy;
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
	"github.com/public-option/poc/internal/netsim"
	"github.com/public-option/poc/internal/obs"
	"github.com/public-option/poc/internal/peering"
	"github.com/public-option/poc/internal/provision"
	"github.com/public-option/poc/internal/regimesim"
)

// Constraint selects the auction acceptability family.
type Constraint = provision.Constraint

// The three §3.3 auction constraints.
const (
	Constraint1 = provision.Constraint1
	Constraint2 = provision.Constraint2
	Constraint3 = provision.Constraint3
)

// Observer is the deterministic metrics registry: one instance is
// threaded through every layer of a deployment (auction, provisioning,
// fabric, billing, chaos) and exports a byte-identical JSON ledger
// across runs and Workers settings.
type Observer = obs.Registry

// NewObserver returns an empty metrics registry ready to pass via
// ScenarioOptions.Obs.
func NewObserver() *Observer { return obs.New() }

// Auction.
type (
	// AuctionInstance is one runnable auction.
	AuctionInstance = auction.Instance
	// CollusionResult compares honest and manipulated auctions.
	CollusionResult = auction.CollusionResult
)

// Operator runs the POC lease lifecycle end to end.
type Operator = core.POC

// Fabric.
type (
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
	// RecoveryConfig tunes the recovery-policy ladder.
	RecoveryConfig = chaos.RecoveryConfig
	// RecoveryPolicy selects the highest ladder rung (reroute-only,
	// recall, reauction).
	RecoveryPolicy = chaos.Policy
	// SurvivabilityReport is a chaos run's delivered-fraction
	// timeline, recovery actions and totals.
	SurvivabilityReport = chaos.Report
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

// RunCollusion runs the §3.3 withdraw-unselected-links manipulation
// experiment.
func RunCollusion(in *AuctionInstance) (*CollusionResult, error) { return auction.RunCollusion(in) }

// Edge services (§3.1–3.2).
type (
	// EdgeDelivery records how one content delivery was served.
	EdgeDelivery = edge.Delivery
	// EdgeOffloadReport quantifies backbone offload from caches.
	EdgeOffloadReport = edge.OffloadReport
)

// EdgeOffload summarizes a set of deliveries.
func EdgeOffload(ds []*EdgeDelivery) EdgeOffloadReport { return edge.Offload(ds) }

// Federation interconnects multiple POC fabrics (§1.2).
type Federation = federation.Federation

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
