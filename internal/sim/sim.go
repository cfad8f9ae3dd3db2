// Package sim composes the layers of the paper into a runnable system:
// point set → ΘALG topology → MAC (given / randomized / honeycomb) →
// (T,γ)-balancing router, driven by an injection process over a discrete
// time axis, with optional node mobility (topology rebuilds) or churn
// (incremental local topology repair through topology.Dynamic). A parallel
// Monte-Carlo runner fans simulations out over a worker pool with
// deterministic, seed-ordered results.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"toporouting/internal/dist"
	"toporouting/internal/geom"
	"toporouting/internal/interference"
	"toporouting/internal/mac"
	"toporouting/internal/mobility"
	"toporouting/internal/pointset"
	"toporouting/internal/routing"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// MACKind selects the medium-access layer.
type MACKind int

// Available MAC layers.
const (
	// MACGiven offers every topology edge each step (the Section 3.2
	// scenario: a perfect MAC below the routing layer).
	MACGiven MACKind = iota
	// MACRandom is the randomized symmetry-breaking MAC of Section 3.3.
	MACRandom
	// MACHoneycomb is the fixed-transmission-strength honeycomb
	// algorithm of Section 3.4 (ignores Theta/RangeSlack; uses unit
	// range).
	MACHoneycomb
)

// String returns the MAC layer name.
func (k MACKind) String() string {
	switch k {
	case MACGiven:
		return "given"
	case MACRandom:
		return "random"
	case MACHoneycomb:
		return "honeycomb"
	default:
		return fmt.Sprintf("MACKind(%d)", int(k))
	}
}

// Injector produces the injections for a step.
type Injector func(step int, rng *rand.Rand) []routing.Injection

// SinksInjector injects rate packets per step (during the first horizon
// steps), each from a uniformly random source to a uniformly random sink
// from the given list.
func SinksInjector(n int, sinks []int, rate, horizon int) Injector {
	if len(sinks) == 0 {
		panic("sim: SinksInjector needs sinks")
	}
	return func(step int, rng *rand.Rand) []routing.Injection {
		if step >= horizon {
			return nil
		}
		out := make([]routing.Injection, 0, rate)
		for i := 0; i < rate; i++ {
			out = append(out, routing.Injection{
				Node:  rng.Intn(n),
				Dest:  sinks[rng.Intn(len(sinks))],
				Count: 1,
			})
		}
		return out
	}
}

// Mobility periodically perturbs node positions and rebuilds the topology
// and MAC, modeling uncontrollable topology change.
type Mobility struct {
	// Every is the number of steps between moves (0 disables mobility).
	Every int
	// StepSize is the maximum per-coordinate displacement per move (used
	// by the default unbounded random-jitter model when Model is nil).
	StepSize float64
	// Model, when non-nil, advances positions instead of the default
	// jitter (e.g. mobility.NewRandomWaypoint or mobility.RandomWalk);
	// each move advances it by dt = 1.
	Model mobility.Model
}

// Churn configures incremental topology maintenance during a run: every
// Every steps, Moves random nodes are displaced and the topology is
// repaired locally through topology.Dynamic instead of rebuilt from
// scratch — the live-update workload the paper's 3-round locality makes
// cheap. Churn fixes the transmission range at its initial value (local
// repair cannot re-derive a global critical range) and is mutually
// exclusive with Mobility, whose models displace every node at once.
type Churn struct {
	// Every is the number of steps between churn epochs (0 disables).
	Every int
	// Moves is the number of distinct nodes displaced per epoch
	// (defaults to 1).
	Moves int
	// StepSize is the maximum per-coordinate displacement per move.
	StepSize float64
}

// Config assembles one simulation.
type Config struct {
	// Points are the node positions (mutated only under Mobility; the
	// simulator copies them).
	Points pointset.Set
	// Theta is the ΘALG cone angle (0 = default π/6).
	Theta float64
	// RangeSlack scales the critical range to set the transmission range
	// (values ≥ 1; 0 = default 1.3). MACHoneycomb ignores it and uses
	// unit range.
	RangeSlack float64
	// Range, when positive, fixes the transmission range directly and
	// overrides RangeSlack. Mobility rebuilds keep the fixed range.
	Range float64
	// Delta is the interference guard zone (0 = default).
	Delta float64
	// Kappa is the energy exponent for edge costs (0 = 2).
	Kappa float64
	// MAC selects the medium-access layer.
	MAC MACKind
	// Router parameterizes the (T,γ)-balancing algorithm.
	Router routing.Params
	// Inject produces the injection stream; nil injects nothing.
	Inject Injector
	// Steps is the simulation horizon (> 0).
	Steps int
	// Mobility optionally perturbs the node set.
	Mobility Mobility
	// Churn optionally drives incremental topology maintenance instead of
	// full rebuilds. Mutually exclusive with Mobility; ignored by
	// MACHoneycomb, which does not run ΘALG.
	Churn Churn
	// Dist, when non-nil, builds the topology with the message-passing
	// protocol engine (internal/dist) under the given fault plan instead of
	// the centralized BuildTheta, and certifies each build's convergence.
	// Mutually exclusive with Churn and MACHoneycomb, which bypass the
	// distributed protocol.
	Dist *dist.Faults
	// Workers caps the goroutines of centralized topology builds (0 keeps
	// them sequential; ignored under Dist and Churn, which build
	// incrementally or via the protocol engine). The same cap fans out the
	// interference-set computation behind the random MAC; results are
	// identical for every worker count.
	Workers int
	// Seed drives all randomness of the run.
	Seed int64
	// Telemetry, when non-nil, records step-level metrics across every
	// layer of the run (topology build phases, MAC contention, router
	// series, rebuild timings) and — when the scope has a trace sink —
	// emits JSONL-able events. nil (the default) leaves the hot path
	// uninstrumented; telemetry never affects simulation results.
	Telemetry *telemetry.Telemetry
}

// Result summarizes one simulation run.
type Result struct {
	Seed      int64
	Delivered int64
	Accepted  int64
	Dropped   int64
	Moves     int64
	TotalCost float64
	AvgCost   float64
	Queued    int
	// I is the interference bound used by the random MAC (0 otherwise).
	I int
	// MaxDegree is the topology's maximum degree (last rebuild).
	MaxDegree int
	// Rebuilds counts topology rebuilds due to mobility.
	Rebuilds int
	// ChurnEvents counts incremental topology repairs (one per moved
	// node); TouchedNodes sums the nodes each repair recomputed, so
	// TouchedNodes/ChurnEvents is the mean repair locality.
	ChurnEvents  int64
	TouchedNodes int64
	// Distributed-build accounting (Config.Dist runs only). DistMsgs and
	// DistDropped sum protocol messages sent and lost across every build of
	// the run; DistRounds is the rounds-to-convergence of the last build;
	// DistConverged reports that every build's convergence certificate held
	// (quiescent, connected, degree-bounded).
	DistMsgs      int64
	DistDropped   int64
	DistRounds    int64
	DistConverged bool
}

// Run executes one simulation.
func Run(cfg Config) Result {
	r, _ := RunContext(context.Background(), cfg)
	return r
}

// RunContext executes one simulation under a cancellation context. The
// step loop checks ctx once per step and topology (re)builds check it
// between row batches, so cancellation — a disconnected client, an expired
// deadline, a draining server — stops the run within one simulation step.
// On cancellation the partial Result accumulated so far is returned
// alongside ctx.Err(); a background context reproduces Run exactly.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if cfg.Steps <= 0 {
		panic("sim: non-positive step count")
	}
	if len(cfg.Points) < 2 {
		panic("sim: need at least two nodes")
	}
	if cfg.Kappa == 0 {
		cfg.Kappa = 2
	}
	if cfg.Delta == 0 {
		cfg.Delta = interference.DefaultDelta
	}
	if cfg.RangeSlack == 0 {
		cfg.RangeSlack = 1.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := append(pointset.Set(nil), cfg.Points...)
	n := len(pts)
	router := routing.New(n, cfg.Router)
	model := interference.NewModel(cfg.Delta)
	// The worker cap also fans out the interference-set computation behind
	// the random MAC (deterministic: the result is worker-count
	// independent).
	model.Workers = cfg.Workers
	tel := cfg.Telemetry
	router.SetTelemetry(tel)
	stopRun := tel.StartPhase("sim.run")
	ctx, spanRun := telemetry.StartChild(ctx, "sim.run")
	spanRun.SetAttr("n", float64(n))
	spanRun.SetAttr("steps", float64(cfg.Steps))

	var res Result
	res.Seed = cfg.Seed

	churn := cfg.Churn.Every > 0
	if churn {
		if cfg.Mobility.Every > 0 {
			panic("sim: Churn and Mobility are mutually exclusive")
		}
		if cfg.MAC == MACHoneycomb {
			panic("sim: Churn requires a ΘALG-based MAC (given or random)")
		}
		if cfg.Churn.Moves <= 0 {
			cfg.Churn.Moves = 1
		}
	}
	if cfg.Dist != nil {
		if churn {
			panic("sim: Dist and Churn are mutually exclusive")
		}
		if cfg.MAC == MACHoneycomb {
			panic("sim: Dist requires a ΘALG-based MAC (given or random)")
		}
		res.DistConverged = true
	}
	distBuilds := 0

	var (
		active  []routing.ActiveEdge // MACGiven: reused every step
		rmac    *mac.RandomMAC
		honey   *mac.Honeycomb
		dyn     *topology.Dynamic
		rebuild func() error
	)
	// install points the MAC layer at a (re)built or repaired topology.
	install := func(cur []geom.Point, top *topology.Topology) {
		res.MaxDegree = top.N.MaxDegree()
		cost := top.EnergyCost(cfg.Kappa)
		if cfg.MAC == MACGiven {
			active = active[:0]
			for _, e := range top.N.Edges() {
				active = append(active, routing.ActiveEdge{U: e.U, V: e.V, Cost: cost(e.U, e.V)})
			}
		} else {
			rmac = mac.NewRandomMAC(cur, top.N.Edges(), model, cost, rng)
			rmac.SetTelemetry(tel)
			res.I = rmac.I()
		}
	}
	rebuild = func() error {
		stopRebuild := tel.StartPhase("sim.rebuild")
		defer stopRebuild()
		rctx, spanRb := telemetry.StartChild(ctx, "sim.rebuild")
		defer spanRb.End()
		switch cfg.MAC {
		case MACGiven, MACRandom:
			d := cfg.Range
			if d <= 0 {
				d = unitdisk.CriticalRange(pts) * cfg.RangeSlack
			}
			if churn {
				dyn = topology.NewDynamic(pts, topology.Config{Theta: cfg.Theta, Range: d, Telemetry: tel})
				install(dyn.Points(), dyn.Topology())
				return nil
			}
			if cfg.Dist != nil {
				// Each build gets its own derived seed so mobility rebuilds
				// sample fresh fault outcomes while staying reproducible.
				distBuilds++
				out, err := dist.BuildContext(rctx, pts, dist.Config{
					Theta:     cfg.Theta,
					Range:     d,
					Seed:      cfg.Seed + 7919*int64(distBuilds),
					Faults:    *cfg.Dist,
					Telemetry: tel,
				})
				if err != nil {
					if ctx.Err() != nil {
						return ctx.Err()
					}
					panic(fmt.Sprintf("sim: invalid fault plan: %v", err))
				}
				cert := out.Certify()
				res.DistMsgs += out.Stats.Sent
				res.DistDropped += out.Stats.Dropped
				res.DistRounds = cert.Rounds
				res.DistConverged = res.DistConverged && cert.Holds()
				install(pts, out.Top)
				return nil
			}
			top, err := topology.BuildThetaContext(rctx, pts, topology.Config{Theta: cfg.Theta, Range: d, Telemetry: tel}, cfg.Workers)
			if err != nil {
				return err
			}
			if cfg.Workers > 0 {
				tel.Gauge("topology.build_workers").Set(float64(cfg.Workers))
			}
			install(pts, top)
		case MACHoneycomb:
			honey = mac.NewHoneycomb(pts, mac.HoneycombConfig{
				Delta:     cfg.Delta,
				T:         cfg.Router.T,
				Rng:       rng,
				Telemetry: tel,
			})
			res.MaxDegree = 0
		default:
			panic(fmt.Sprintf("sim: unknown MAC kind %d", int(cfg.MAC)))
		}
		return nil
	}
	if err := rebuild(); err != nil {
		stopRun()
		spanRun.End()
		return res, err
	}

	// Nil-safe handle: a disabled scope makes this a no-op pointer, so the
	// step loop pays one nil check per step.
	offeredC := tel.Counter("sim.offered_edges")
	// One span covers the whole routing loop: per-step spans would bloat
	// every trace to Steps records, so route-step cost distributions live
	// in the router.step_ms bucket histogram instead.
	_, spanSteps := telemetry.StartChild(ctx, "sim.steps")
	spanSteps.SetAttr("steps", float64(cfg.Steps))
	var runErr error
	for step := 0; step < cfg.Steps; step++ {
		// One cancellation check per step: a cancelled context (client
		// disconnect, deadline, server drain) stops the run before the next
		// step's work begins.
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		if churn && step > 0 && step%cfg.Churn.Every == 0 {
			// Churn epoch: displace random nodes one at a time, repairing
			// the live topology locally after each move. The router keeps
			// its queues and heights — the topology changes under it.
			var touched int64
			for i := 0; i < cfg.Churn.Moves; i++ {
				x := rng.Intn(dyn.N())
				q := dyn.Points()[x]
				to := geom.Pt(
					q.X+(rng.Float64()*2-1)*cfg.Churn.StepSize,
					q.Y+(rng.Float64()*2-1)*cfg.Churn.StepSize,
				)
				if dyn.HasNodeAt(to) {
					continue // vanishing-probability collision: skip the move
				}
				st := dyn.Apply(topology.Event{Kind: topology.Move, Node: x, Pos: to})
				res.ChurnEvents++
				touched += int64(st.Touched)
			}
			res.TouchedNodes += touched
			install(dyn.Points(), dyn.Topology())
			tel.Counter("sim.churn_epochs").Inc()
			if tel.Tracing() {
				tel.Emit(telemetry.Event{Layer: "sim", Kind: "churn", Step: step, Seed: cfg.Seed, Fields: map[string]float64{
					"moves":      float64(cfg.Churn.Moves),
					"touched":    float64(touched),
					"max_degree": float64(res.MaxDegree),
				}})
			}
		}
		if cfg.Mobility.Every > 0 && step > 0 && step%cfg.Mobility.Every == 0 {
			if cfg.Mobility.Model != nil {
				cfg.Mobility.Model.Step(pts, 1)
			} else {
				for i := range pts {
					pts[i] = geom.Pt(
						pts[i].X+(rng.Float64()*2-1)*cfg.Mobility.StepSize,
						pts[i].Y+(rng.Float64()*2-1)*cfg.Mobility.StepSize,
					)
				}
			}
			if err := rebuild(); err != nil {
				runErr = err
				break
			}
			res.Rebuilds++
			tel.Counter("sim.rebuilds").Inc()
			if tel.Tracing() {
				tel.Emit(telemetry.Event{Layer: "sim", Kind: "rebuild", Step: step, Seed: cfg.Seed, Fields: map[string]float64{
					"rebuilds":   float64(res.Rebuilds),
					"max_degree": float64(res.MaxDegree),
					"i":          float64(res.I),
				}})
			}
		}
		var offered []routing.ActiveEdge
		switch cfg.MAC {
		case MACGiven:
			offered = active
		case MACRandom:
			offered, _ = rmac.Step()
		case MACHoneycomb:
			offered, _ = honey.Step(router)
		}
		var inj []routing.Injection
		if cfg.Inject != nil {
			inj = cfg.Inject(step, rng)
		}
		offeredC.Add(int64(len(offered)))
		router.Step(offered, inj)
	}

	spanSteps.End()
	res.Delivered = router.Delivered()
	res.Accepted = router.Accepted()
	res.Dropped = router.Dropped()
	res.Moves = router.Moves()
	res.TotalCost = router.TotalCost()
	res.AvgCost = router.AvgCostPerDelivery()
	res.Queued = router.TotalQueued()
	stopRun()
	spanRun.SetAttr("delivered", float64(res.Delivered))
	spanRun.SetAttr("queued", float64(res.Queued))
	spanRun.End()
	if tel.Enabled() {
		tel.Counter("sim.runs").Inc()
		tel.Counter("sim.steps").Add(int64(cfg.Steps))
		tel.Gauge("sim.queued").Set(float64(res.Queued))
	}
	if tel.Tracing() {
		tel.Emit(telemetry.Event{Layer: "sim", Kind: "run", Seed: cfg.Seed, Fields: map[string]float64{
			"steps":      float64(cfg.Steps),
			"delivered":  float64(res.Delivered),
			"accepted":   float64(res.Accepted),
			"dropped":    float64(res.Dropped),
			"moves":      float64(res.Moves),
			"total_cost": res.TotalCost,
			"queued":     float64(res.Queued),
			"rebuilds":   float64(res.Rebuilds),
		}})
	}
	return res, runErr
}

// MonteCarlo runs the configuration once per seed, fanned out over a worker
// pool, and returns results in seed order. parallelism ≤ 0 uses
// GOMAXPROCS workers. Results are a pure function of (cfg, seeds) — the
// worker count only changes the schedule, never the outcome.
//
// When cfg.Telemetry is set, workers share its instruments (counters and
// histograms aggregate across runs) but per-step trace emission is
// suppressed inside workers (Telemetry.WithoutTrace) so concurrent runs do
// not interleave step events; instead the runner records each run's wall
// time into the "sim.mc.run_ms" histogram and, when tracing, emits one
// {layer: "sim", kind: "mc_run"} event per seed — in seed order — carrying
// the worker index and duration.
func MonteCarlo(cfg Config, seeds []int64, parallelism int) []Result {
	rs, _ := MonteCarloContext(context.Background(), cfg, seeds, parallelism)
	return rs
}

// MonteCarloContext is MonteCarlo under a cancellation context: workers
// check ctx before starting each run and every running simulation checks it
// once per step, so cancellation stops the fan-out within one step across
// the pool. The seed-ordered results computed before cancellation are
// returned alongside ctx.Err(); unstarted or interrupted seeds are left as
// zero Results.
func MonteCarloContext(ctx context.Context, cfg Config, seeds []int64, parallelism int) ([]Result, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(seeds) {
		parallelism = len(seeds)
	}
	tel := cfg.Telemetry
	stopMC := tel.StartPhase("sim.montecarlo")
	workerCfg := cfg
	workerCfg.Telemetry = tel.WithoutTrace()
	results := make([]Result, len(seeds))
	type runMeta struct {
		worker int
		ms     float64
	}
	var metas []runMeta
	if tel.Enabled() {
		metas = make([]runMeta, len(seeds))
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range work {
				if ctx.Err() != nil {
					continue // cancelled: drain the channel without running
				}
				c := workerCfg
				c.Seed = seeds[i]
				if metas == nil {
					results[i], _ = RunContext(ctx, c)
					continue
				}
				t0 := time.Now()
				results[i], _ = RunContext(ctx, c)
				metas[i] = runMeta{worker: worker, ms: float64(time.Since(t0)) / float64(time.Millisecond)}
			}
		}(w)
	}
	for i := range seeds {
		work <- i
	}
	close(work)
	wg.Wait()
	stopMC()
	if metas != nil {
		h := tel.Histogram("sim.mc.run_ms")
		for i, m := range metas {
			h.Observe(m.ms)
			if !tel.Tracing() {
				continue
			}
			tel.Emit(telemetry.Event{Layer: "sim", Kind: "mc_run", Seed: seeds[i], Worker: m.worker, DurMS: m.ms, Fields: map[string]float64{
				"delivered": float64(results[i].Delivered),
				"accepted":  float64(results[i].Accepted),
				"dropped":   float64(results[i].Dropped),
				"queued":    float64(results[i].Queued),
			}})
		}
	}
	return results, ctx.Err()
}
