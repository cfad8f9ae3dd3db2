package toporouting

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"toporouting/internal/experiments"
	"toporouting/internal/routing"
	"toporouting/internal/sim"
)

// MAC selects the medium-access layer of a simulation.
type MAC int

// Available MAC layers.
const (
	// MACGiven offers every topology edge each step — the Section 3.2
	// scenario in which a perfect MAC underlies the routing layer.
	MACGiven MAC = iota
	// MACRandom is the randomized symmetry-breaking MAC of Section 3.3
	// (each edge active with probability 1/(2·I_e)).
	MACRandom
	// MACHoneycomb is the fixed-transmission-strength honeycomb
	// algorithm of Section 3.4.
	MACHoneycomb
)

// Traffic generates the injection stream of a simulation step.
type Traffic func(step int, rng *rand.Rand) []Packets

// SinksTraffic injects rate packets per step from uniform random sources
// to uniformly chosen sinks, for the first horizon steps.
func SinksTraffic(n int, sinks []int, rate, horizon int) Traffic {
	inj := sim.SinksInjector(n, sinks, rate, horizon)
	return func(step int, rng *rand.Rand) []Packets { return inj(step, rng) }
}

// SimulationOptions configures Simulate.
type SimulationOptions struct {
	// Points are the node positions (≥ 2).
	Points []Point
	// Theta, Range, Kappa, Delta follow Options semantics (zero =
	// default). MACHoneycomb ignores Theta/Range and uses unit range.
	Theta, Range, Kappa, Delta float64
	// MAC selects the medium-access layer.
	MAC MAC
	// Router parameterizes the (T,γ)-balancing algorithm.
	Router RouterOptions
	// Traffic produces injections; nil injects nothing.
	Traffic Traffic
	// Steps is the horizon (> 0).
	Steps int
	// MobilityEvery > 0 perturbs node positions (by ±MobilityStep per
	// coordinate) and rebuilds the topology every that many steps.
	MobilityEvery int
	MobilityStep  float64
	// ChurnEvery > 0 switches to incremental topology maintenance:
	// every that many steps, ChurnMoves random nodes are displaced by up
	// to ±ChurnStep per coordinate and the live topology is repaired
	// locally (no full rebuild) while the router keeps running. Mutually
	// exclusive with MobilityEvery; requires MACGiven or MACRandom.
	ChurnEvery int
	ChurnMoves int
	ChurnStep  float64
	// DistFaults, when non-nil, builds the topology with the asynchronous
	// message-passing protocol engine under the given fault plan instead of
	// the centralized builder, certifying each build's convergence.
	// Mutually exclusive with ChurnEvery; requires MACGiven or MACRandom.
	DistFaults *FaultPlan
	// Workers > 1 caps the worker pool of full topology rebuilds
	// (BuildNetworkContext semantics); 0 keeps the build sequential.
	Workers int
	// Seed drives all randomness.
	Seed int64
	// Telemetry, when non-nil, records step-level metrics across every
	// layer (topology build phases, MAC contention, router height/queue
	// series, rebuild timings) and — when constructed with a trace sink —
	// streams JSONL-able events. The snapshot of its instruments is
	// returned in SimulationResult.Metrics. nil disables instrumentation
	// at zero cost; telemetry never changes simulation results.
	Telemetry *Telemetry
}

// SimulationResult reports a completed simulation. It marshals to JSON
// (the routesim -json surface) with lower_snake_case keys.
type SimulationResult struct {
	Delivered int64   `json:"delivered"`
	Accepted  int64   `json:"accepted"`
	Dropped   int64   `json:"dropped"`
	Moves     int64   `json:"moves"`
	TotalCost float64 `json:"total_cost"`
	AvgCost   float64 `json:"avg_cost"`
	Queued    int     `json:"queued"`
	// I is the interference bound of the random MAC (0 otherwise).
	I int `json:"interference_bound,omitempty"`
	// MaxDegree is the topology's maximum degree at the last rebuild.
	MaxDegree int `json:"max_degree,omitempty"`
	// Rebuilds counts mobility-induced topology rebuilds.
	Rebuilds int `json:"rebuilds,omitempty"`
	// ChurnEvents counts incremental topology repairs; TouchedNodes sums
	// the nodes each repair recomputed (TouchedNodes/ChurnEvents is the
	// mean repair locality).
	ChurnEvents  int64 `json:"churn_events,omitempty"`
	TouchedNodes int64 `json:"touched_nodes,omitempty"`
	// Distributed-build accounting (DistFaults runs only): protocol
	// messages sent and lost across every build, the last build's
	// rounds-to-convergence, and whether every convergence certificate held.
	DistMsgs      int64 `json:"dist_msgs,omitempty"`
	DistDropped   int64 `json:"dist_dropped,omitempty"`
	DistRounds    int64 `json:"dist_rounds,omitempty"`
	DistConverged bool  `json:"dist_converged,omitempty"`
	// Metrics is the final snapshot of SimulationOptions.Telemetry; nil
	// when the run was not instrumented.
	Metrics *Metrics `json:"metrics,omitempty"`
}

// toSimConfig validates the options and converts them to the internal
// simulation configuration.
func toSimConfig(opts SimulationOptions) (sim.Config, error) {
	if len(opts.Points) < 2 {
		return sim.Config{}, errors.New("toporouting: simulation needs ≥ 2 points")
	}
	if opts.Steps <= 0 {
		return sim.Config{}, errors.New("toporouting: simulation needs steps > 0")
	}
	if opts.ChurnEvery > 0 {
		if opts.MobilityEvery > 0 {
			return sim.Config{}, errors.New("toporouting: ChurnEvery and MobilityEvery are mutually exclusive")
		}
		if opts.MAC == MACHoneycomb {
			return sim.Config{}, errors.New("toporouting: churn requires a ΘALG-based MAC (given or random)")
		}
	}
	if opts.DistFaults != nil {
		if opts.ChurnEvery > 0 {
			return sim.Config{}, errors.New("toporouting: DistFaults and ChurnEvery are mutually exclusive")
		}
		if opts.MAC == MACHoneycomb {
			return sim.Config{}, errors.New("toporouting: DistFaults requires a ΘALG-based MAC (given or random)")
		}
		if err := opts.DistFaults.Validate(); err != nil {
			return sim.Config{}, err
		}
	}
	if opts.Router.BufferSize <= 0 {
		return sim.Config{}, errors.New("toporouting: simulation needs a positive buffer size")
	}
	var kind sim.MACKind
	switch opts.MAC {
	case MACGiven:
		kind = sim.MACGiven
	case MACRandom:
		kind = sim.MACRandom
	case MACHoneycomb:
		kind = sim.MACHoneycomb
	default:
		return sim.Config{}, fmt.Errorf("toporouting: unknown MAC %d", int(opts.MAC))
	}
	var injector sim.Injector
	if opts.Traffic != nil {
		injector = func(step int, rng *rand.Rand) []routing.Injection { return opts.Traffic(step, rng) }
	}
	return sim.Config{
		Points: opts.Points,
		Theta:  opts.Theta,
		Range:  opts.Range,
		Delta:  opts.Delta,
		Kappa:  opts.Kappa,
		MAC:    kind,
		Router: routing.Params{
			T: opts.Router.T, Gamma: opts.Router.Gamma, BufferSize: opts.Router.BufferSize,
		},
		Inject:    injector,
		Steps:     opts.Steps,
		Mobility:  sim.Mobility{Every: opts.MobilityEvery, StepSize: opts.MobilityStep},
		Churn:     sim.Churn{Every: opts.ChurnEvery, Moves: opts.ChurnMoves, StepSize: opts.ChurnStep},
		Dist:      opts.DistFaults,
		Workers:   opts.Workers,
		Seed:      opts.Seed,
		Telemetry: opts.Telemetry,
	}, nil
}

// toResult converts an internal result, attaching the metrics snapshot when
// the run was instrumented.
func toResult(r sim.Result, tel *Telemetry) SimulationResult {
	var metrics *Metrics
	if tel.Enabled() {
		m := tel.Snapshot()
		metrics = &m
	}
	return SimulationResult{
		Delivered:     r.Delivered,
		Accepted:      r.Accepted,
		Dropped:       r.Dropped,
		Moves:         r.Moves,
		TotalCost:     r.TotalCost,
		AvgCost:       r.AvgCost,
		Queued:        r.Queued,
		I:             r.I,
		MaxDegree:     r.MaxDegree,
		Rebuilds:      r.Rebuilds,
		ChurnEvents:   r.ChurnEvents,
		TouchedNodes:  r.TouchedNodes,
		DistMsgs:      r.DistMsgs,
		DistDropped:   r.DistDropped,
		DistRounds:    r.DistRounds,
		DistConverged: r.DistConverged,
		Metrics:       metrics,
	}
}

// Simulate composes point set → ΘALG topology → MAC → (T,γ)-balancing
// router and runs it for the configured horizon.
func Simulate(opts SimulationOptions) (SimulationResult, error) {
	return SimulateContext(context.Background(), opts)
}

// SimulateContext is Simulate under a cancellation context: the run checks
// ctx once per simulation step (and inside topology builds), so a
// disconnected client or an expired deadline stops the simulation within
// one step. On cancellation the partial result accumulated so far is
// returned alongside ctx.Err(); option-validation errors are returned with
// a zero result as in Simulate.
func SimulateContext(ctx context.Context, opts SimulationOptions) (SimulationResult, error) {
	cfg, err := toSimConfig(opts)
	if err != nil {
		return SimulationResult{}, err
	}
	r, err := sim.RunContext(ctx, cfg)
	return toResult(r, opts.Telemetry), err
}

// SimulateMonteCarlo runs the configuration once per seed (opts.Seed is
// ignored), fanned out over a worker pool capped at workers (≤ 0 selects
// GOMAXPROCS), and returns results in seed order. Results are a pure
// function of (opts, seeds) — the worker count only changes the schedule,
// never the outcome. Workers share opts.Telemetry's instruments while
// per-step trace emission is suppressed inside them; each result carries
// the same final metrics snapshot.
func SimulateMonteCarlo(opts SimulationOptions, seeds []int64, workers int) ([]SimulationResult, error) {
	return SimulateMonteCarloContext(context.Background(), opts, seeds, workers)
}

// SimulateMonteCarloContext is SimulateMonteCarlo under a cancellation
// context: every worker's running simulation checks ctx once per step, so
// cancellation stops the whole fan-out within one step. Results computed
// before cancellation are returned alongside ctx.Err().
func SimulateMonteCarloContext(ctx context.Context, opts SimulationOptions, seeds []int64, workers int) ([]SimulationResult, error) {
	if len(seeds) == 0 {
		return nil, errors.New("toporouting: Monte Carlo needs at least one seed")
	}
	cfg, err := toSimConfig(opts)
	if err != nil {
		return nil, err
	}
	rs, err := sim.MonteCarloContext(ctx, cfg, seeds, workers)
	out := make([]SimulationResult, len(rs))
	for i, r := range rs {
		out[i] = toResult(r, opts.Telemetry)
	}
	return out, err
}

// RunExperiment executes one of the paper-reproduction experiments
// ("E1".."E12", "E7b", or "all") and returns the rendered table(s). full
// selects the paper-scale sweep; false runs the quick scale.
func RunExperiment(id string, full bool) (string, error) {
	return RunExperimentTraced(id, full, nil)
}

// RunExperimentTraced is RunExperiment with a telemetry scope threaded into
// the experiment harness: the simulation-backed experiments record their
// runs into it (and trace them when the scope has a sink). tel may be nil.
func RunExperimentTraced(id string, full bool, tel *Telemetry) (string, error) {
	scale := experiments.Small()
	if full {
		scale = experiments.Full()
	}
	scale.Telemetry = tel
	var out strings.Builder
	found := false
	for _, r := range experiments.All() {
		if id == "all" || strings.EqualFold(id, r.ID) {
			found = true
			out.WriteString(r.Run(scale).String())
			out.WriteByte('\n')
		}
	}
	if !found {
		return "", fmt.Errorf("toporouting: unknown experiment %q", id)
	}
	return out.String(), nil
}

// ExperimentIDs lists the available experiment identifiers in report
// order.
func ExperimentIDs() []string {
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	return ids
}
