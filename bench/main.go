// Command bench is the repository benchmark. Each invocation runs one
// workload against freshly booted toporoutingd processes on loopback and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Run it through bench/run.sh, which builds the daemon and this program
// from the checkout first:
//
//	bash bench/run.sh --workload topo_cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it reports the per-layer metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

func main() {
	// The client keeps little live data; collecting it less often keeps
	// the load generator's own GC cycles out of the daemon's latencies.
	debug.SetGCPercent(400)
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	daemon   string // toporoutingd binary
	logs     string // directory for daemon logs
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/toporoutingd", "toporoutingd binary")
	fs.StringVar(&cfg.logs, "logs", ".bench_build/logs", "directory for daemon logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, ok := lookupWorkload(cfg.workload)
	if !ok || !spec.hasWorkload(cfg.workload) {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.logs, 0o755); err != nil {
		return err
	}

	var res runResult
	if cfg.trace {
		res, err = runTraced(cfg, w, traceTimeline(cfg.seconds))
	} else {
		res, err = runE2E(cfg, w, setupRuns, timeline(cfg.seconds))
	}
	if err != nil {
		return err
	}
	if res.attempted < 1 {
		return errors.New("no requests were attempted")
	}
	out := result{Correct: res.audit == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range spec.metrics(cfg.trace) {
		v, ok := res.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("workload %s produced no finite value for %s", w.name, m.Name)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return res.audit
}

// runResult is what a run measured, before it is matched against the
// spec's metric list. audit is the correctness audit's verdict.
type runResult struct {
	attempted, failed int
	metrics           map[string]float64
	audit             error
}

// setupRuns is how many times a run boots a daemon (and creates the
// workload's sessions); setup_s is the median. All but the last daemon are
// stopped again at once.
const setupRuns = 5

// phases are the lengths of a run's load phases. The warm-up is discarded.
type phases struct {
	warm, open, closed time.Duration
}

const warmup = 2 * time.Second

// timeline splits an end-to-end run's measured seconds: 60% open loop
// (latency), 40% closed loop (throughput and CPU per request).
func timeline(seconds float64) phases {
	total := time.Duration(seconds * float64(time.Second))
	return phases{warm: warmup, open: total * 6 / 10, closed: total * 4 / 10}
}

// traceTimeline splits a traced run's measured seconds between two open
// phases, one per daemon.
func traceTimeline(seconds float64) phases {
	total := time.Duration(seconds * float64(time.Second))
	return phases{warm: warmup, open: total / 2}
}

// senders is the number of sender goroutines and connections: one per
// processor, so the client never needs more parallelism than the host has.
func senders() int { return runtime.GOMAXPROCS(0) }

// boot starts a daemon and attaches the workload client, returning the
// set-up time: process start to ready, plus the workload's set-up.
func boot(cfg config, w workload, wc workloadClient, args []string) (*daemon, float64, error) {
	logPath := filepath.Join(cfg.logs, w.name+".log")
	d, ready, err := startDaemon(cfg.daemon, logPath, args)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := wc.attach(d.base, newLoadClient(senders())); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, ready.Seconds() + time.Since(t0).Seconds(), nil
}

// runE2E measures the end-to-end metrics: set-up, an open phase at the
// workload's rate timed from due times, and a closed phase with one
// connection per processor. Time-valued metrics are scaled to the
// reference host by the speed probe running alongside each part.
func runE2E(cfg config, w workload, setups int, ph phases) (runResult, error) {
	wc := w.build(cfg.seed)
	var (
		d      *daemon
		setupS []float64
	)
	probe := startProbe()
	for k := 0; k < setups; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				probe.finish()
				return runResult{}, err
			}
		}
		var s float64
		var err error
		if d, s, err = boot(cfg, w, wc, w.args); err != nil {
			probe.finish()
			return runResult{}, err
		}
		setupS = append(setupS, s)
	}
	setupSpeed := probe.finish()
	defer d.kill()

	f := startFeed(wc)
	runOpen(wc, f, w.rate, ph.warm, senders())
	probe = startProbe()
	openPhase := runOpen(wc, f, w.rate, ph.open, senders())
	openSpeed := probe.finish()
	open, scaled := summarize(openPhase), summarizeScaled(openPhase, openSpeed)
	probe = startProbe()
	closedPhase, marks, err := runClosedMarked(wc, f, ph.closed, senders(), d.pid())
	closedSpeed := probe.finish()
	f.stop()
	if err != nil {
		return runResult{}, err
	}
	closed := summarize(closedPhase)
	okPerSec, cpuPerOp := windowRates(closedPhase.samples, marks)
	if math.IsNaN(okPerSec) {
		return runResult{}, errors.New("closed phase completed no request")
	}
	rss, err := peakRSS(d.pid())
	if err != nil {
		return runResult{}, err
	}
	audit := wc.audit()
	if err := d.stop(); err != nil {
		return runResult{}, err
	}

	warnf("%s: open phase %d requests, generator lag p99 %.3f ms; closed phase %d requests",
		w.name, open.attempted, open.lagP99, closed.attempted)
	warnf("%s: raw p50 %.4g ms, p95 %.4g ms, p99 %.4g ms, %.4g ops/s, %.4g ms CPU/op, set-up %.4g s; host speed set-up %.3f open %.3f closed %.3f; scaled p99 %.4g ms",
		w.name, open.p50, open.p95, open.p99, okPerSec, cpuPerOp, median(setupS), setupSpeed, openSpeed, closedSpeed, scaled.p99)
	if open.lagP99 > 2 {
		warnf("%s: generator lag p99 %.3f ms exceeds 2 ms; the open-loop schedule slipped", w.name, open.lagP99)
	}
	return runResult{
		attempted: open.attempted + closed.attempted,
		failed:    open.failed + closed.failed,
		metrics: map[string]float64{
			"throughput_ops": okPerSec / closedSpeed,
			"p50_ms":         scaled.p50,
			"p95_ms":         scaled.p95,
			"cpu_ms_per_op":  cpuPerOp * closedSpeed,
			"peak_rss_mb":    rss,
			"setup_s":        median(setupS) * setupSpeed,
		},
		audit: audit,
	}, nil
}

// traceArgs make the daemon retain a uniform sample of up to 4096 request
// traces, enough to keep every request of a low-rate phase.
var traceArgs = []string{"-trace-slow", "0", "-trace-sample", "4096"}

// runTraced measures the per-layer metrics: an open phase on a default
// daemon and another on a daemon retaining traces (their p50 ratio is the
// tracing overhead), /metrics, memstats and span self times around the
// traced phase, then the in-process harness. Per-layer values are raw.
func runTraced(cfg config, w workload, ph phases) (runResult, error) {
	wc := w.build(cfg.seed)

	d, _, err := boot(cfg, w, wc, w.args)
	if err != nil {
		return runResult{}, err
	}
	f := startFeed(wc)
	runOpen(wc, f, w.rate, ph.warm, senders())
	base := summarize(runOpen(wc, f, w.rate, ph.open, senders()))
	f.stop()
	if err := d.stop(); err != nil {
		return runResult{}, err
	}

	d, _, err = boot(cfg, w, wc, append(append([]string(nil), w.args...), traceArgs...))
	if err != nil {
		return runResult{}, err
	}
	defer d.kill()
	f = startFeed(wc)
	runOpen(wc, f, w.rate, ph.warm, senders())
	prom0, err1 := d.scrapeMetrics()
	mem0, err2 := d.memStats()
	wc.resetCounts()
	tracedPhase := runOpen(wc, f, w.rate, ph.open, senders())
	f.stop()
	counts := wc.counts()
	prom1, err3 := d.scrapeMetrics()
	mem1, err4 := d.memStats()
	traces, err5 := d.fetchTraces()
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return runResult{}, err
	}
	audit := wc.audit()
	if err := d.stop(); err != nil {
		return runResult{}, err
	}

	traced := summarize(tracedPhase)
	ops := float64(traced.attempted)
	bd := breakdown(traces, tracedPhase.samples)
	if bd.traces == 0 {
		return runResult{}, errors.New("no daemon trace matched a client request")
	}
	m := map[string]float64{
		"loadgen.gen_lag_p99_ms":            traced.lagP99,
		"loadgen.queue_ms":                  bd.queue,
		"server.root_self_ms":               bd.rootSelf,
		"server.encode_ms":                  bd.self["encode"],
		"server.transport_ms":               bd.transport,
		"server.resp_bytes_per_op":          float64(traced.bytes) / ops,
		"server.job_wait_ms":                histMean(nil, prom1, "toporouting_server_job_wait_ms", nil),
		"server.job_run_ms":                 histMean(nil, prom1, "toporouting_server_job_run_ms", nil),
		"trace.explained_ratio":             bd.explained() / traced.p50,
		"trace.overhead_pct":                (traced.p50/base.p50 - 1) * 100,
		"topocache.hit_ratio":               ratio(delta(prom0, prom1, "toporouting_topocache_hits"), delta(prom0, prom1, "toporouting_topocache_misses")),
		"topocache.evictions_per_kop":       delta(prom0, prom1, "toporouting_topocache_evictions") / ops * 1000,
		"session.delta_hit_ratio":           ratio(float64(counts.notModified+counts.deltas), float64(counts.fulls)),
		"cluster.replica_read_share":        ratio(float64(counts.replicaReads), float64(counts.primaryReads)),
		"cluster.replica_fallbacks_per_kop": delta(prom0, prom1, "toporouting_cluster_replica_fallbacks") / ops * 1000,
		"cluster.replica_lag_gens":          histMean(prom0, prom1, "toporouting_cluster_replica_lag_gens", nil),
		"runtime.allocs_per_op":             float64(mem1.Mallocs-mem0.Mallocs) / ops,
		"runtime.gc_pause_ms_per_s":         float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6 / tracedPhase.elapsed.Seconds(),
		"runtime.heap_inuse_mb":             float64(mem1.HeapInuse) / (1 << 20),
	}
	reportSpans(w.name, bd, traced.p50)
	checkClaims(w.name, m)

	hm, err := runHarness(cfg.seed)
	if err != nil {
		return runResult{}, err
	}
	for k, v := range hm {
		m[k] = v
	}
	return runResult{
		attempted: base.attempted + traced.attempted,
		failed:    base.failed + traced.failed,
		metrics:   m,
		audit:     audit,
	}, nil
}

func delta(before, after promScrape, name string) float64 {
	return after.sum(name, nil) - before.sum(name, nil)
}

// ratio is a/(a+b), or 0 when both are 0 (the layer saw no traffic).
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// reportSpans prints the traced request's layer table to standard error.
func reportSpans(workload string, bd layerBreakdown, p50 float64) {
	names := make([]string, 0, len(bd.self))
	for n := range bd.self {
		names = append(names, n)
	}
	sort.Strings(names)
	warnf("%s: %d traces joined; traced p50 %.3f ms, explained %.3f ms", workload, bd.traces, p50, bd.explained())
	warnf("  %-24s %10.3f ms", "client queue", bd.queue)
	warnf("  %-24s %10.3f ms", "root (self)", bd.rootSelf)
	for _, n := range names {
		warnf("  %-24s %10.3f ms  (in %.0f%% of traces)", n, bd.self[n], 100*bd.share[n])
	}
	warnf("  %-24s %10.3f ms", "transport", bd.transport)
}

// checkClaims warns when a workload does not exercise what it claims to.
func checkClaims(workload string, m map[string]float64) {
	in := func(name string, lo, hi float64) {
		if v := m[name]; v < lo || v > hi {
			warnf("%s: %s = %.3f outside the expected [%g, %g]", workload, name, v, lo, hi)
		}
	}
	switch workload {
	case "topo_cold":
		in("topocache.hit_ratio", 0, 0)
	case "topo_zipf":
		in("topocache.hit_ratio", 0.7, 0.95)
	case "session_churn":
		in("session.delta_hit_ratio", 0.9, 1)
	case "cluster_replica":
		in("cluster.replica_read_share", 0.5, 1)
	}
	in("loadgen.gen_lag_p99_ms", 0, 2)
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
