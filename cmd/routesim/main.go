// Command routesim runs an adversarial routing simulation: ΘALG topology,
// a selectable MAC layer, and the (T,γ)-balancing router under sustained
// sink-directed traffic.
//
// Usage:
//
//	routesim [-dist uniform] [-n 200] [-seed 1] [-mac given|random|honeycomb]
//	         [-steps 4000] [-rate 2] [-sinks 3] [-buffer 60] [-T 0] [-gamma 0]
//	         [-mobility 0] [-mobstep 0.01]
//	         [-churn 0] [-churn-every 50] [-churn-step 0.02]
//	         [-distributed] [-drop 0] [-delay 0] [-crash 0]
//	         [-workers 0]
//	         [-json] [-metrics] [-trace run.jsonl]
//	         [-cpuprofile cpu.out] [-memprofile mem.out] [-pprof-addr :6060]
//
// Churn: -churn k displaces k random nodes every -churn-every steps and
// repairs the live topology incrementally (topology.Dynamic) instead of
// rebuilding it, while the router keeps its queues; the summary reports
// repairs and mean nodes touched per repair. Mutually exclusive with
// -mobility.
//
// Distributed mode: -distributed builds the topology with the asynchronous
// message-passing protocol engine (every node an independent actor over a
// faulty medium) instead of the centralized builder; -drop, -delay, and
// -crash inject per-link Bernoulli loss, bounded random delivery delay, and
// node crash/restart cycles. The summary reports the protocol traffic,
// rounds-to-convergence, and whether the convergence certificate held.
// Mutually exclusive with -churn; requires a ΘALG MAC (given or random).
//
// -workers caps the worker pool of centralized topology builds (0 = a
// sequential build) and of interference-set construction; output is
// bit-identical for every worker count.
//
// Observability: -trace streams one JSON event per line (router steps, MAC
// rounds, topology builds, rebuilds) into the given file; -metrics prints
// the telemetry snapshot after the run; -json emits the SimulationResult
// (including the metrics snapshot when telemetry is active) as a single
// JSON object on stdout for scripting; -cpuprofile/-memprofile write
// runtime/pprof profiles; -pprof-addr serves net/http/pprof and expvar
// (the live snapshot is published under "telemetry").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"toporouting"
)

// main delegates to run so deferred cleanups (trace sink flush, profile
// writers) execute even on error paths — os.Exit here would skip them.
func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "routesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dist     = flag.String("dist", "uniform", "point distribution")
		n        = flag.Int("n", 200, "number of nodes")
		seed     = flag.Int64("seed", 1, "seed")
		macName  = flag.String("mac", "given", "MAC layer: given|random|honeycomb")
		steps    = flag.Int("steps", 4000, "simulation steps")
		rate     = flag.Int("rate", 2, "packets injected per step")
		sinks    = flag.Int("sinks", 3, "number of sink destinations")
		buffer   = flag.Int("buffer", 60, "per-(node,dest) buffer size")
		tParam   = flag.Float64("T", 0, "balancing threshold T")
		gamma    = flag.Float64("gamma", 0, "cost sensitivity γ")
		mobility = flag.Int("mobility", 0, "rebuild topology every k steps (0 = static)")
		mobstep  = flag.Float64("mobstep", 0.01, "mobility displacement per move")

		churn      = flag.Int("churn", 0, "incremental churn: displace this many nodes per epoch, repairing the topology locally (0 = off)")
		churnEvery = flag.Int("churn-every", 50, "steps between churn epochs")
		churnStep  = flag.Float64("churn-step", 0.02, "max per-coordinate churn displacement")

		distributed = flag.Bool("distributed", false, "build the topology with the asynchronous message-passing protocol engine")
		drop        = flag.Float64("drop", 0, "distributed mode: per-link message drop probability [0, 1)")
		delay       = flag.Int("delay", 0, "distributed mode: max extra delivery delay (ticks)")
		crash       = flag.Int("crash", 0, "distributed mode: number of node crash/restart cycles")

		workers = flag.Int("workers", 0, "cap the topology-build, interference-set and Monte-Carlo worker pools (0 = sequential build, GOMAXPROCS Monte-Carlo)")
		runs    = flag.Int("runs", 1, "Monte-Carlo repetitions over seeds seed..seed+runs-1 (reports per-seed delivery)")

		jsonOut    = flag.Bool("json", false, "emit the result as a single JSON object")
		metricsOut = flag.Bool("metrics", false, "print the telemetry snapshot after the run")
		tracePath  = flag.String("trace", "", "write a JSONL step-level trace to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof and expvar on this address (e.g. :6060)")
	)
	flag.Parse()

	stopProf, err := toporouting.StartProfiling(*cpuProf, *memProf, *pprofAddr)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "routesim: profiling:", err)
		}
	}()

	var tel *toporouting.Telemetry
	if *tracePath != "" {
		sink, err := toporouting.CreateJSONLTrace(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "routesim: trace:", err)
			}
		}()
		tel = toporouting.NewTracedTelemetry(sink)
	} else if *metricsOut || *jsonOut || *pprofAddr != "" {
		tel = toporouting.NewTelemetry()
	}
	toporouting.PublishExpvar("telemetry", tel)

	pts, err := toporouting.GeneratePoints(*dist, *n, *seed)
	if err != nil {
		return err
	}
	var mac toporouting.MAC
	switch *macName {
	case "given":
		mac = toporouting.MACGiven
	case "random":
		mac = toporouting.MACRandom
	case "honeycomb":
		mac = toporouting.MACHoneycomb
	default:
		return fmt.Errorf("unknown MAC %q", *macName)
	}
	var faults *toporouting.FaultPlan
	if *distributed {
		faults = &toporouting.FaultPlan{Drop: *drop, MaxDelay: *delay, Crashes: *crash}
	} else if *drop != 0 || *delay != 0 || *crash != 0 {
		return fmt.Errorf("-drop/-delay/-crash require -distributed")
	}
	sinkIDs := make([]int, *sinks)
	for i := range sinkIDs {
		sinkIDs[i] = (i*len(pts))/(*sinks+1) + 1
	}
	simOpts := toporouting.SimulationOptions{
		Points:        pts,
		MAC:           mac,
		Router:        toporouting.RouterOptions{T: *tParam, Gamma: *gamma, BufferSize: *buffer},
		Traffic:       toporouting.SinksTraffic(len(pts), sinkIDs, *rate, *steps/2),
		Steps:         *steps,
		MobilityEvery: *mobility,
		MobilityStep:  *mobstep,
		ChurnEvery:    churnEveryOrZero(*churn, *churnEvery),
		ChurnMoves:    *churn,
		ChurnStep:     *churnStep,
		DistFaults:    faults,
		Workers:       *workers,
		Seed:          *seed,
		Telemetry:     tel,
	}

	if *runs > 1 {
		seeds := make([]int64, *runs)
		for i := range seeds {
			seeds[i] = *seed + int64(i)
		}
		results, err := toporouting.SimulateMonteCarlo(simOpts, seeds, *workers)
		if err != nil {
			return err
		}
		if *jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(results)
		}
		fmt.Printf("monte carlo    %d runs, worker cap %d\n", *runs, *workers)
		for i, r := range results {
			fmt.Printf("seed %-8d delivered %d/%d (%.1f%%), dropped %d, cost/delivery %.4f\n",
				seeds[i], r.Delivered, r.Accepted, pct(r.Delivered, r.Accepted), r.Dropped, r.AvgCost)
		}
		if *metricsOut && results[0].Metrics != nil {
			fmt.Println()
			fmt.Print(results[0].Metrics.String())
		}
		return nil
	}

	res, err := toporouting.Simulate(simOpts)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	fmt.Printf("mac            %s\n", *macName)
	fmt.Printf("steps          %d (injecting %d/step for first half)\n", *steps, *rate)
	fmt.Printf("accepted       %d\n", res.Accepted)
	fmt.Printf("delivered      %d (%.1f%% of accepted)\n", res.Delivered, pct(res.Delivered, res.Accepted))
	fmt.Printf("dropped        %d (admission control)\n", res.Dropped)
	fmt.Printf("still queued   %d\n", res.Queued)
	fmt.Printf("transmissions  %d\n", res.Moves)
	fmt.Printf("total cost     %.3f (%.4f per delivery)\n", res.TotalCost, res.AvgCost)
	if res.I > 0 {
		fmt.Printf("interference   I=%d (random MAC activation 1/(2I_e))\n", res.I)
	}
	if res.Rebuilds > 0 {
		fmt.Printf("mobility       %d topology rebuilds\n", res.Rebuilds)
	}
	if res.ChurnEvents > 0 {
		fmt.Printf("churn          %d incremental repairs, %.1f nodes touched/repair\n",
			res.ChurnEvents, float64(res.TouchedNodes)/float64(res.ChurnEvents))
	}
	if *distributed {
		fmt.Printf("protocol       %d msgs sent, %d lost (drop=%.2f delay≤%d crashes=%d)\n",
			res.DistMsgs, res.DistDropped, *drop, *delay, *crash)
		fmt.Printf("convergence    %d rounds, certificate held: %v\n", res.DistRounds, res.DistConverged)
	}
	if res.MaxDegree > 0 {
		fmt.Printf("max degree     %d\n", res.MaxDegree)
	}
	if *metricsOut && res.Metrics != nil {
		fmt.Println()
		fmt.Print(res.Metrics.String())
	}
	return nil
}

// churnEveryOrZero disables churn entirely (ChurnEvery = 0) when no moves
// are requested, so plain runs never enter the incremental path.
func churnEveryOrZero(moves, every int) int {
	if moves <= 0 {
		return 0
	}
	return every
}

func pct(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
