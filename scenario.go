package poc

import "github.com/public-option/poc/internal/scenario"

// Paper-style experiments.
type (
	// ScenarioOptions sizes a paper-style experiment; Scale=1 is the
	// paper-scale instance.
	ScenarioOptions = scenario.Options
	// Scenario is an assembled experiment: topology, demand, bids and
	// external contracts. Deploy runs its whole lease lifecycle.
	Scenario = scenario.Scenario
)

// NewScenario builds a deterministic experiment instance.
func NewScenario(opts ScenarioOptions) (*Scenario, error) { return scenario.New(opts) }
