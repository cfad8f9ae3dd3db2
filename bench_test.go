package toporouting

// The benchmark harness regenerates every experiment of the reproduction
// (E1–E12 for the paper's claims, E13–E17 for extensions; the paper is a
// theory paper, so its "tables and figures" are its theorems — see
// DESIGN.md for the experiment index). Each BenchmarkE*
// executes the corresponding experiment at bench scale and reports custom
// metrics extracted from the run alongside time/allocations. Microbenches
// for the core primitives (topology build, θ-paths, interference sets,
// balancing steps) follow.
//
// Run:  go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"toporouting/internal/experiments"
	"toporouting/internal/georouting"
	"toporouting/internal/interference"
	"toporouting/internal/optimal"
	"toporouting/internal/pointset"
	"toporouting/internal/proximity"
	"toporouting/internal/routing"
	"toporouting/internal/sim"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// benchScale is the sweep used by the experiment benchmarks: large enough
// to show the asymptotic shapes, small enough for a bench loop.
func benchScale() experiments.Scale {
	return experiments.Scale{Sizes: []int{100, 200, 400}, Seeds: 2, Steps: 600}
}

func benchExperiment(b *testing.B, run func(experiments.Scale) *experiments.Table) {
	b.ReportAllocs()
	var rows int
	for i := 0; i < b.N; i++ {
		t := run(benchScale())
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE1DegreeConnectivity(b *testing.B) {
	benchExperiment(b, experiments.E1DegreeConnectivity)
}

func BenchmarkE2EnergyStretch(b *testing.B) {
	benchExperiment(b, experiments.E2EnergyStretch)
}

func BenchmarkE3DistanceStretch(b *testing.B) {
	benchExperiment(b, experiments.E3DistanceStretch)
}

func BenchmarkE4Interference(b *testing.B) {
	benchExperiment(b, experiments.E4Interference)
}

func BenchmarkE5ThetaPathOverlap(b *testing.B) {
	benchExperiment(b, experiments.E5ThetaPathOverlap)
}

func BenchmarkE6ScheduleEmulation(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{100, 200}
		return experiments.E6ScheduleEmulation(sc)
	})
}

func BenchmarkE7BalancingCompetitive(b *testing.B) {
	benchExperiment(b, experiments.E7BalancingCompetitive)
}

func BenchmarkE7bCostAwareness(b *testing.B) {
	benchExperiment(b, experiments.E7bCostAwareness)
}

func BenchmarkE8MACCollision(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{100, 200}
		sc.Steps = 300
		return experiments.E8MACCollision(sc)
	})
}

func BenchmarkE9TopologyRouting(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{80, 160}
		sc.Steps = 300
		return experiments.E9TopologyRouting(sc)
	})
}

func BenchmarkE10RandomThroughput(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{80, 160}
		sc.Steps = 300
		return experiments.E10RandomThroughput(sc)
	})
}

func BenchmarkE11Honeycomb(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{80, 160}
		sc.Steps = 250
		return experiments.E11Honeycomb(sc)
	})
}

func BenchmarkE12Baselines(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{200}
		sc.Seeds = 1
		return experiments.E12Baselines(sc)
	})
}

// --- core primitive microbenches ---

func benchPoints(n int) pointset.Set {
	return pointset.Generate(pointset.KindUniform, n, 1)
}

func BenchmarkBuildTheta(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		pts := benchPoints(n)
		d := unitdisk.CriticalRange(pts) * 1.3
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: d})
			}
		})
	}
}

func BenchmarkBuildThetaDistributed(b *testing.B) {
	pts := benchPoints(400)
	d := unitdisk.CriticalRange(pts) * 1.3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topology.BuildThetaDistributed(pts, topology.Config{Theta: math.Pi / 6, Range: d})
	}
}

func BenchmarkThetaPath(b *testing.B) {
	pts := benchPoints(400)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: d})
	gstar := unitdisk.Build(pts, d)
	edges := gstar.Edges()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		top.ThetaPath(e.U, e.V)
	}
}

func BenchmarkInterferenceSets(b *testing.B) {
	for _, n := range []int{500, 2000} {
		pts := benchPoints(n)
		d := unitdisk.CriticalRange(pts) * 1.3
		top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: d})
		edges := top.N.Edges()
		m := interference.NewModel(interference.DefaultDelta)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Sets(pts, edges)
			}
		})
	}
}

// BenchmarkBalancerStepManyDests isolates the router hot path under many
// concurrent flows: n=1000 nodes, traffic spread over 10/100/1000 distinct
// destinations. The dense scan is O(edges × dests) per step, so the dests
// sweep exposes the quadratic blowup the sparse hot-slot index removes.
func BenchmarkBalancerStepManyDests(b *testing.B) {
	const n = 1000
	pts := benchPoints(n)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: d})
	var active []routing.ActiveEdge
	cost := top.EnergyCost(2)
	for _, e := range top.N.Edges() {
		active = append(active, routing.ActiveEdge{U: e.U, V: e.V, Cost: cost(e.U, e.V)})
	}
	for _, dests := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("dests%d", dests), func(b *testing.B) {
			bal := routing.New(n, routing.Params{T: 0, Gamma: 0, BufferSize: 50})
			rng := rand.New(rand.NewSource(1))
			inj := make([]routing.Injection, 0, 4*dests)
			for i := 0; i < 4*dests; i++ {
				inj = append(inj, routing.Injection{Node: rng.Intn(n), Dest: (i * 7919) % dests, Count: 1})
			}
			bal.Step(nil, inj)
			// Steady trickle keeps every destination slot live without
			// letting queues drain to empty over the bench loop.
			trickle := make([]routing.Injection, 0, dests/10+1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trickle = trickle[:0]
				for k := 0; k <= dests/10; k++ {
					trickle = append(trickle, routing.Injection{Node: rng.Intn(n), Dest: (i + k*11) % dests, Count: 1})
				}
				bal.Step(active, trickle)
			}
		})
	}
}

// BenchmarkMaxBenefit measures the per-pair benefit evaluation the
// honeycomb MAC performs for every candidate sender-receiver pair: with the
// dense layout it is O(dests) per call regardless of how many buffers are
// actually occupied at the sender.
func BenchmarkMaxBenefit(b *testing.B) {
	const n = 1000
	for _, dests := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("dests%d", dests), func(b *testing.B) {
			bal := routing.New(n, routing.Params{T: 0, Gamma: 0, BufferSize: 50})
			rng := rand.New(rand.NewSource(1))
			var inj []routing.Injection
			for i := 0; i < 4*dests; i++ {
				inj = append(inj, routing.Injection{Node: rng.Intn(n), Dest: (i * 7919) % dests, Count: 1})
			}
			bal.Step(nil, inj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bal.MaxBenefit(i%n, (i+17)%n)
			}
		})
	}
}

func BenchmarkBalancerStep(b *testing.B) {
	pts := benchPoints(400)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: d})
	var active []routing.ActiveEdge
	cost := top.EnergyCost(2)
	for _, e := range top.N.Edges() {
		active = append(active, routing.ActiveEdge{U: e.U, V: e.V, Cost: cost(e.U, e.V)})
	}
	bal := routing.New(400, routing.Params{T: 0, Gamma: 0, BufferSize: 50})
	rng := rand.New(rand.NewSource(1))
	// Pre-load traffic toward three sinks.
	var inj []routing.Injection
	for i := 0; i < 300; i++ {
		inj = append(inj, routing.Injection{Node: rng.Intn(400), Dest: []int{7, 130, 311}[i%3], Count: 1})
	}
	bal.Step(nil, inj)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal.Step(active, nil)
	}
}

// BenchmarkSimulate is the telemetry-overhead reference: a full
// random-MAC simulation with telemetry disabled. The observability layer's
// contract is that this benchmark shows no added allocations and no
// measurable ns/op regression versus an uninstrumented build; compare with
// BenchmarkSimulateTelemetry for the cost of live counters and with
// BenchmarkSimulateTraced for full step tracing.
func BenchmarkSimulate(b *testing.B) {
	cfg := sim.Config{
		Points: benchPoints(200),
		MAC:    sim.MACRandom,
		Router: routing.Params{T: 0, Gamma: 0, BufferSize: 40},
		Inject: sim.SinksInjector(200, []int{11, 97}, 1, 1<<30),
		Steps:  500,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		sim.Run(cfg)
	}
}

// BenchmarkSimulateTelemetry measures the same run with metrics recording
// enabled (counters, gauges, phase timers; no trace sink).
func BenchmarkSimulateTelemetry(b *testing.B) {
	cfg := sim.Config{
		Points:    benchPoints(200),
		MAC:       sim.MACRandom,
		Router:    routing.Params{T: 0, Gamma: 0, BufferSize: 40},
		Inject:    sim.SinksInjector(200, []int{11, 97}, 1, 1<<30),
		Steps:     500,
		Telemetry: telemetry.New(nil),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		sim.Run(cfg)
	}
}

// BenchmarkSimulateTraced measures the fully traced run: every router and
// MAC step emits an event into an in-memory sink.
func BenchmarkSimulateTraced(b *testing.B) {
	cfg := sim.Config{
		Points: benchPoints(200),
		MAC:    sim.MACRandom,
		Router: routing.Params{T: 0, Gamma: 0, BufferSize: 40},
		Inject: sim.SinksInjector(200, []int{11, 97}, 1, 1<<30),
		Steps:  500,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		cfg.Telemetry = telemetry.New(&telemetry.MemorySink{})
		sim.Run(cfg)
	}
}

func BenchmarkSimulationStep(b *testing.B) {
	pts := benchPoints(200)
	cfg := sim.Config{
		Points: pts,
		MAC:    sim.MACRandom,
		Router: routing.Params{T: 0, Gamma: 0, BufferSize: 40},
		Inject: sim.SinksInjector(200, []int{11, 97}, 1, 1<<30),
		Steps:  500,
		Seed:   1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		sim.Run(cfg)
	}
}

// BenchmarkIncrementalVsRebuild is the headline number of the dynamic
// maintenance subsystem: on a 2000-node uniform instance, repairing the
// topology after a single churn event (topology.Dynamic) versus rebuilding
// it from scratch (BuildTheta). The incremental path must touch only the
// 2D-ball around the event — a few percent of the nodes, reported as
// "touched/op" — and come out well over an order of magnitude faster.
func BenchmarkIncrementalVsRebuild(b *testing.B) {
	const n = 2000
	pts := benchPoints(n)
	d := unitdisk.CriticalRange(pts) * 1.3
	cfg := topology.Config{Theta: math.Pi / 6, Range: d}

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topology.BuildTheta(pts, cfg)
		}
		b.ReportMetric(float64(n), "touched/op")
	})

	b.Run("incremental-move", func(b *testing.B) {
		dyn := topology.NewDynamic(pts, cfg)
		rng := rand.New(rand.NewSource(7))
		var touched int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := rng.Intn(dyn.N())
			to := dyn.Points()[v]
			to.X += (rng.Float64() - 0.5) * 0.02
			to.Y += (rng.Float64() - 0.5) * 0.02
			if dyn.HasNodeAt(to) {
				continue
			}
			st := dyn.Apply(topology.Event{Kind: topology.Move, Node: v, Pos: to})
			touched += int64(st.Touched)
		}
		b.ReportMetric(float64(touched)/float64(b.N), "touched/op")
	})

	b.Run("incremental-leave-join", func(b *testing.B) {
		dyn := topology.NewDynamic(pts, cfg)
		rng := rand.New(rand.NewSource(11))
		var touched int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := rng.Intn(dyn.N())
			p := dyn.Points()[v]
			st := dyn.Apply(topology.Event{Kind: topology.Leave, Node: v})
			touched += int64(st.Touched)
			p.X += (rng.Float64() - 0.5) * 0.01
			p.Y += (rng.Float64() - 0.5) * 0.01
			if dyn.HasNodeAt(p) {
				continue
			}
			st = dyn.Apply(topology.Event{Kind: topology.Join, Pos: p})
			touched += int64(st.Touched)
		}
		b.ReportMetric(float64(touched)/float64(2*b.N), "touched/op")
	})
}

// BenchmarkBuildThetaParallel measures the from-scratch n=2000 build across
// worker counts (the output is bit-identical for all of them; see
// TestBuildThetaParallelDeterminism).
func BenchmarkBuildThetaParallel(b *testing.B) {
	pts := benchPoints(2000)
	d := unitdisk.CriticalRange(pts) * 1.3
	cfg := topology.Config{Theta: math.Pi / 6, Range: d}
	for _, workers := range []int{1, 2, 4, 0} { // 0 = GOMAXPROCS
		name := fmt.Sprintf("workers%d", workers)
		if workers == 0 {
			name = "workersMax"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			w := workers
			if w == 0 {
				w = runtime.GOMAXPROCS(0)
			}
			for i := 0; i < b.N; i++ {
				if _, err := topology.BuildThetaContext(context.Background(), pts, cfg, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildThetaTiled measures the from-scratch build across
// GOMAXPROCS workers at the scales tiling exists for: the builder keeps
// n=10⁴ on one grid and tiles n=10⁵. The transmission range is the standard
// Θ(√(log n / n)) connectivity radius (a fixed formula — CriticalRange's
// global MST would dominate setup at these sizes). The n=10⁶ variant lives
// behind -tags bigbench in bench_big_test.go.
func BenchmarkBuildThetaTiled(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		pts := benchPoints(n)
		d := 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
		cfg := topology.Config{Theta: math.Pi / 6, Range: d}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := topology.BuildThetaContext(context.Background(), pts, cfg, runtime.GOMAXPROCS(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1000:
		return "n1600"
	case n >= 500:
		return "n800"
	case n >= 300:
		return "n400"
	case n >= 150:
		return "n200"
	default:
		return "n100"
	}
}

func BenchmarkE13ExactOPT(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{60}
		sc.Steps = 150
		return experiments.E13ExactOPT(sc)
	})
}

func BenchmarkE14GeoRouting(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{100, 200}
		return experiments.E14GeoRouting(sc)
	})
}

func BenchmarkE15PhysicalModel(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{100, 200}
		return experiments.E15PhysicalModel(sc)
	})
}

func BenchmarkE16Resilience(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{100}
		return experiments.E16Resilience(sc)
	})
}

func BenchmarkE17ThetaSweep(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{200}
		return experiments.E17ThetaSweep(sc)
	})
}

func BenchmarkGabriel(b *testing.B) {
	pts := benchPoints(400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proximity.Gabriel(pts, 0)
	}
}

func BenchmarkDelaunay(b *testing.B) {
	pts := benchPoints(400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proximity.Delaunay(pts)
	}
}

func BenchmarkDinicTimeExpanded(b *testing.B) {
	pts := benchPoints(60)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: d})
	var inj []optimal.Injection
	for s := 0; s < 50; s++ {
		inj = append(inj, optimal.Injection{Node: (s * 7) % 60, Step: s, Count: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimal.MaxDeliveries(optimal.Config{Graph: top.N, Dest: 5, Horizon: 200, Injections: inj})
	}
}

func BenchmarkGPSRRoute(b *testing.B) {
	pts := benchPoints(400)
	d := unitdisk.CriticalRange(pts) * 1.3
	gab := proximity.Gabriel(pts, d)
	r := georouting.NewPlanarRouter(gab, pts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Route(i%400, (i*73+199)%400, 0)
	}
}

func BenchmarkE18ProtocolCost(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Sizes = []int{100}
		return experiments.E18ProtocolCost(sc)
	})
}

func BenchmarkE19ControlTraffic(b *testing.B) {
	benchExperiment(b, func(sc experiments.Scale) *experiments.Table {
		sc.Steps = 150
		return experiments.E19ControlTraffic(sc)
	})
}
