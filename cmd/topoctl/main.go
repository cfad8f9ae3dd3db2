// Command topoctl builds a ΘALG topology over a generated point set and
// reports its structural properties: degree, connectivity, energy- and
// distance-stretch, and interference number.
//
// Usage:
//
//	topoctl [-dist uniform] [-n 400] [-seed 1] [-theta 0.5236]
//	        [-kappa 2] [-delta 0.5] [-sources 40] [-distributed] [-edges]
//	        [-workers 0]
//	        [-metrics] [-trace build.jsonl]
//	        [-cpuprofile cpu.out] [-memprofile mem.out] [-pprof-addr :6060]
//
//	topoctl dist-build [-dist uniform] [-n 400] [-seed 1] [-theta 0.5236]
//	        [-drop 0] [-delay 0] [-crash 0] [-edges] [-metrics]
//	        [-trace dist.jsonl]
//
// The dist-build subcommand runs the asynchronous message-passing protocol
// engine: every node is an independent actor exchanging HELLO / SELECT /
// GRANT / ACK messages over a faulty medium (-drop, -delay, -crash), and the
// run is certified against the centralized builder — edge-identical when
// loss-free, connected and degree-bounded under faults. -workers on the main
// command caps the goroutines of the centralized build (0 = sequential);
// the builder tiles large point sets on its own, and the topology is
// identical for every worker count.
//
// Observability: -trace streams the ΘALG build events (phase timings,
// distributed protocol rounds) as JSONL; -metrics prints the telemetry
// snapshot after the build; -cpuprofile/-memprofile write runtime/pprof
// profiles; -pprof-addr serves net/http/pprof and expvar.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"toporouting"
)

// main delegates to run/distBuild so deferred cleanups (trace sink flush,
// profile writers) execute even on error paths — os.Exit here would skip
// them.
func main() {
	var err error
	if len(os.Args) > 1 && os.Args[1] == "dist-build" {
		err = distBuild(os.Args[2:])
	} else {
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoctl:", err)
		os.Exit(1)
	}
}

// newTrace installs the optional JSONL trace sink and returns the telemetry
// scope plus a cleanup for the caller to defer.
func newTrace(tracePath string, metricsOut bool) (*toporouting.Telemetry, func(), error) {
	if tracePath != "" {
		sink, err := toporouting.CreateJSONLTrace(tracePath)
		if err != nil {
			return nil, nil, err
		}
		cleanup := func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "topoctl: trace:", err)
			}
		}
		return toporouting.NewTracedTelemetry(sink), cleanup, nil
	}
	if metricsOut {
		return toporouting.NewTelemetry(), func() {}, nil
	}
	return nil, func() {}, nil
}

// distBuild is the dist-build subcommand: build through the asynchronous
// message-passing engine and report the protocol run and its convergence
// certificate.
func distBuild(args []string) error {
	fs := flag.NewFlagSet("topoctl dist-build", flag.ExitOnError)
	var (
		dist      = fs.String("dist", "uniform", "point distribution: uniform|civilized|clustered|grid|expchain|ring|bridge")
		n         = fs.Int("n", 400, "number of nodes")
		seed      = fs.Int64("seed", 1, "generator and protocol seed")
		theta     = fs.Float64("theta", math.Pi/6, "ΘALG cone angle (0, π/3]")
		drop      = fs.Float64("drop", 0, "per-link message drop probability [0, 1)")
		delay     = fs.Int("delay", 0, "max extra delivery delay (ticks)")
		crash     = fs.Int("crash", 0, "number of node crash/restart cycles")
		edges     = fs.Bool("edges", false, "dump the edge list")
		metricsOK = fs.Bool("metrics", false, "print the telemetry snapshot after the build")
		tracePath = fs.String("trace", "", "write a JSONL build trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tel, cleanup, err := newTrace(*tracePath, *metricsOK)
	if err != nil {
		return err
	}
	defer cleanup()

	pts, err := toporouting.GeneratePoints(*dist, *n, *seed)
	if err != nil {
		return err
	}
	faults := toporouting.FaultPlan{Drop: *drop, MaxDelay: *delay, Crashes: *crash}
	nw, rep, err := toporouting.BuildNetworkDistributedAsync(pts, toporouting.Options{Theta: *theta, Telemetry: tel}, faults, *seed)
	if err != nil {
		return err
	}

	st, cert := rep.Stats, rep.Certificate
	fmt.Printf("distribution   %s (n=%d, seed=%d)\n", *dist, len(pts), *seed)
	fmt.Printf("faults         drop=%.2f delay≤%d crashes=%d\n", *drop, *delay, *crash)
	fmt.Printf("messages       %d sent, %d delivered, %d lost (%d hello, %d reply, %d select, %d grant, %d ack)\n",
		st.Sent, st.Delivered, st.Dropped, st.Hellos, st.HelloReplies, st.Selects, st.Grants, st.Acks)
	fmt.Printf("reliability    %d retries, %d transfers expired, mailbox high-water %d (%d overflow drops)\n",
		st.Retries, st.Expired, st.MailboxHighWater, st.MailboxDropped)
	if st.Crashes > 0 {
		fmt.Printf("faults fired   %d crashes, %d restarts\n", st.Crashes, st.Restarts)
	}
	fmt.Printf("convergence    %s\n", cert)
	fmt.Printf("certificate    held: %v\n", cert.Holds())
	fmt.Printf("edges          %d\n", nw.NumEdges())
	fmt.Printf("max degree     %d (Lemma 2.1 bound %d)\n", nw.MaxDegree(), nw.DegreeBound())
	fmt.Printf("connected      %v (G*: %v)\n", nw.Connected(), nw.TransmissionGraphConnected())
	if *edges {
		for _, e := range nw.Edges() {
			fmt.Printf("%d %d\n", e[0], e[1])
		}
	}
	if *metricsOK && tel != nil {
		fmt.Println()
		fmt.Print(tel.Snapshot().String())
	}
	return nil
}

func run() error {
	var (
		dist        = flag.String("dist", "uniform", "point distribution: uniform|civilized|clustered|grid|expchain|ring|bridge")
		n           = flag.Int("n", 400, "number of nodes")
		seed        = flag.Int64("seed", 1, "generator seed")
		theta       = flag.Float64("theta", math.Pi/6, "ΘALG cone angle (0, π/3]")
		kappa       = flag.Float64("kappa", 2, "path-loss exponent κ ≥ 2")
		delta       = flag.Float64("delta", 0.5, "interference guard zone Δ > 0")
		srcs        = flag.Int("sources", 40, "Dijkstra sources for stretch (0 = exact)")
		distributed = flag.Bool("distributed", false, "use the 3-round message-passing protocol")
		workers     = flag.Int("workers", 0, "cap the centralized build's goroutines (0 = sequential build)")
		edges       = flag.Bool("edges", false, "dump the edge list")
		svgPath     = flag.String("svg", "", "write an SVG rendering (G* faint, N bold) to this file")
		pointsIn    = flag.String("points", "", "read node positions from this file instead of generating")
		pointsOut   = flag.String("savepoints", "", "write the node positions to this file")

		metricsOut = flag.Bool("metrics", false, "print the telemetry snapshot after the build")
		tracePath  = flag.String("trace", "", "write a JSONL build trace to this file")
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
			fmt.Fprintln(os.Stderr, "topoctl: profiling:", err)
		}
	}()

	tel, cleanup, err := newTrace(*tracePath, *metricsOut || *pprofAddr != "")
	if err != nil {
		return err
	}
	defer cleanup()
	toporouting.PublishExpvar("telemetry", tel)

	var pts []toporouting.Point
	if *pointsIn != "" {
		f, ferr := os.Open(*pointsIn)
		if ferr != nil {
			return ferr
		}
		pts, err = toporouting.ReadPointsFrom(f)
		f.Close()
	} else {
		pts, err = toporouting.GeneratePoints(*dist, *n, *seed)
	}
	if err != nil {
		return err
	}
	if *pointsOut != "" {
		f, ferr := os.Create(*pointsOut)
		if ferr != nil {
			return ferr
		}
		if err := toporouting.WritePointsTo(f, pts); err != nil {
			f.Close()
			return err
		}
		f.Close()
	}
	opts := toporouting.Options{Theta: *theta, Kappa: *kappa, Delta: *delta, Telemetry: tel}

	var nw *toporouting.Network
	switch {
	case *distributed:
		var st toporouting.ProtocolStats
		nw, st, err = toporouting.BuildNetworkDistributed(pts, opts)
		if err == nil {
			fmt.Printf("protocol: %d position, %d neighborhood, %d connection msgs (%d deliveries)\n",
				st.PositionMsgs, st.NeighborhoodMsgs, st.ConnectionMsgs, st.Deliveries)
		}
	default:
		nw, err = toporouting.BuildNetworkContext(context.Background(), pts, opts, *workers, nil)
	}
	if err != nil {
		return err
	}

	o := nw.Options()
	fmt.Printf("distribution   %s (n=%d, seed=%d)\n", *dist, len(pts), *seed)
	fmt.Printf("theta          %.4f rad (%d sectors)\n", o.Theta, int(math.Round(2*math.Pi/o.Theta)))
	fmt.Printf("range          %.5f\n", o.Range)
	fmt.Printf("edges          %d\n", nw.NumEdges())
	fmt.Printf("max degree     %d (Lemma 2.1 bound %d)\n", nw.MaxDegree(), nw.DegreeBound())
	fmt.Printf("connected      %v (G*: %v)\n", nw.Connected(), nw.TransmissionGraphConnected())
	es := nw.EnergyStretch(*srcs)
	fmt.Printf("energy stretch max=%.3f mean=%.3f p95=%.3f (κ=%.1f, %d pairs)\n",
		es.Max, es.Mean, es.P95, o.Kappa, es.Pairs)
	ds := nw.DistanceStretch(*srcs)
	fmt.Printf("dist stretch   max=%.3f mean=%.3f p95=%.3f\n", ds.Max, ds.Mean, ds.P95)
	fmt.Printf("interference   I=%d (Δ=%.2f)\n", nw.InterferenceNumber(), o.Delta)

	if *edges {
		for _, e := range nw.Edges() {
			fmt.Printf("%d %d\n", e[0], e[1])
		}
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := nw.WriteSVG(f, nil); err != nil {
			return err
		}
		fmt.Printf("svg            %s\n", *svgPath)
	}
	if *metricsOut && tel != nil {
		fmt.Println()
		fmt.Print(tel.Snapshot().String())
	}
	return nil
}
