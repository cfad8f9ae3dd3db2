package sim

import (
	"fmt"
	"runtime"
	"testing"

	"toporouting/internal/telemetry"
)

// TestMonteCarloDeterministicAcrossParallelism is the determinism
// regression guard for the parallel runner: for the same seed list the
// results must be byte-identical whether the pool has one worker or
// NumCPU workers — the worker count may only change the schedule, never
// the outcome.
func TestMonteCarloDeterministicAcrossParallelism(t *testing.T) {
	cfg := baseConfig(50, 7)
	cfg.MAC = MACRandom
	cfg.Steps = 300
	cfg.Mobility = Mobility{Every: 97, StepSize: 0.01}
	seeds := []int64{11, 3, 27, 5, 42, 8, 19, 1}

	serial := MonteCarlo(cfg, seeds, 1)
	parallel := MonteCarlo(cfg, seeds, runtime.NumCPU())

	serialBytes := fmt.Sprintf("%+v", serial)
	parallelBytes := fmt.Sprintf("%+v", parallel)
	if serialBytes != parallelBytes {
		t.Fatalf("Monte-Carlo results depend on parallelism:\n  1 worker: %s\n  %d workers: %s",
			serialBytes, runtime.NumCPU(), parallelBytes)
	}
}

// TestRunTelemetryNeverChangesResults asserts the observability contract:
// an instrumented run (counters + full tracing) must produce exactly the
// results of an uninstrumented one.
func TestRunTelemetryNeverChangesResults(t *testing.T) {
	for _, kind := range []MACKind{MACGiven, MACRandom, MACHoneycomb} {
		cfg := baseConfig(40, 3)
		cfg.MAC = kind
		cfg.Steps = 200
		cfg.Mobility = Mobility{Every: 77, StepSize: 0.01}
		bare := Run(cfg)

		traced := cfg
		traced.Telemetry = telemetry.New(&telemetry.MemorySink{})
		got := Run(traced)
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", bare) {
			t.Errorf("%v: telemetry changed the result:\nbare:   %+v\ntraced: %+v", kind, bare, got)
		}
	}
}

// TestRunTelemetryCounters checks that the layer instruments agree with
// the run's own accounting.
func TestRunTelemetryCounters(t *testing.T) {
	tel := telemetry.New(nil)
	cfg := baseConfig(50, 5)
	cfg.MAC = MACRandom
	cfg.Steps = 400
	cfg.Mobility = Mobility{Every: 113, StepSize: 0.02}
	cfg.Telemetry = tel
	res := Run(cfg)

	m := tel.Snapshot()
	if got := m.Counters["router.delivered"]; got != res.Delivered {
		t.Errorf("router.delivered = %d, result says %d", got, res.Delivered)
	}
	if got := m.Counters["router.accepted"]; got != res.Accepted {
		t.Errorf("router.accepted = %d, result says %d", got, res.Accepted)
	}
	if got := m.Counters["router.dropped"]; got != res.Dropped {
		t.Errorf("router.dropped = %d, result says %d", got, res.Dropped)
	}
	if got := m.Counters["router.moved"]; got != res.Moves {
		t.Errorf("router.moved = %d, result says %d", got, res.Moves)
	}
	if got := m.Counters["sim.steps"]; got != int64(cfg.Steps) {
		t.Errorf("sim.steps = %d, want %d", got, cfg.Steps)
	}
	if got := m.Counters["sim.rebuilds"]; got != int64(res.Rebuilds) {
		t.Errorf("sim.rebuilds = %d, result says %d", got, res.Rebuilds)
	}
	if got := m.Counters["topology.builds"]; got != int64(res.Rebuilds)+1 {
		t.Errorf("topology.builds = %d, want %d (initial + rebuilds)", got, res.Rebuilds+1)
	}
	if m.Counters["mac.random.activated"] < m.Counters["mac.random.successful"] {
		t.Errorf("mac counters inconsistent: %v", m.Counters)
	}
	// Phase timers must have fired: one run, builds, and per-build phases.
	if hs := m.Buckets["phase.sim.run.ms"]; hs.Count != 1 {
		t.Errorf("phase.sim.run.ms n = %d, want 1", hs.Count)
	}
	if hs := m.Buckets["phase.topology.build.ms"]; hs.Count != uint64(res.Rebuilds)+1 {
		t.Errorf("phase.topology.build.ms n = %d, want %d", hs.Count, res.Rebuilds+1)
	}
}

// TestRunTraceEvents checks the step-level event stream of a traced run.
func TestRunTraceEvents(t *testing.T) {
	sink := &telemetry.MemorySink{}
	cfg := baseConfig(40, 9)
	cfg.MAC = MACRandom
	cfg.Steps = 50
	cfg.Telemetry = telemetry.New(sink)
	res := Run(cfg)

	var routerSteps, macSteps, builds, runs int
	var delivered float64
	for _, ev := range sink.Events() {
		switch {
		case ev.Layer == "router" && ev.Kind == "step":
			routerSteps++
			delivered += ev.Fields["delivered"]
		case ev.Layer == "mac" && ev.Kind == "step":
			macSteps++
		case ev.Layer == "topology" && ev.Kind == "build":
			builds++
		case ev.Layer == "sim" && ev.Kind == "run":
			runs++
		}
	}
	if routerSteps != cfg.Steps {
		t.Errorf("router step events = %d, want %d", routerSteps, cfg.Steps)
	}
	if macSteps != cfg.Steps {
		t.Errorf("mac step events = %d, want %d", macSteps, cfg.Steps)
	}
	if builds != 1 || runs != 1 {
		t.Errorf("builds = %d, runs = %d, want 1 and 1", builds, runs)
	}
	if int64(delivered) != res.Delivered {
		t.Errorf("trace delivered sum = %v, result says %d", delivered, res.Delivered)
	}
}

// TestMonteCarloTelemetry checks the runner's per-run records: workers
// suppress step events, while the runner emits one seed-ordered mc_run
// event per seed and fills the run-time histogram.
func TestMonteCarloTelemetry(t *testing.T) {
	sink := &telemetry.MemorySink{}
	tel := telemetry.New(sink)
	cfg := baseConfig(40, 2)
	cfg.Steps = 100
	cfg.Telemetry = tel
	seeds := []int64{9, 4, 77, 13}
	results := MonteCarlo(cfg, seeds, 2)

	var mcRuns []telemetry.Event
	for _, ev := range sink.Events() {
		if ev.Kind == "mc_run" {
			mcRuns = append(mcRuns, ev)
		} else if ev.Kind == "step" {
			t.Fatalf("worker leaked a step event: %+v", ev)
		}
	}
	if len(mcRuns) != len(seeds) {
		t.Fatalf("mc_run events = %d, want %d", len(mcRuns), len(seeds))
	}
	for i, ev := range mcRuns {
		if ev.Seed != seeds[i] {
			t.Errorf("mc_run[%d].Seed = %d, want %d (seed order)", i, ev.Seed, seeds[i])
		}
		if ev.Worker < 0 || ev.Worker >= 2 {
			t.Errorf("mc_run[%d].Worker = %d outside pool", i, ev.Worker)
		}
		if ev.Fields["delivered"] != float64(results[i].Delivered) {
			t.Errorf("mc_run[%d] delivered %v, result %d", i, ev.Fields["delivered"], results[i].Delivered)
		}
	}
	m := tel.Snapshot()
	if hs := m.Buckets["sim.mc.run_ms"]; hs.Count != uint64(len(seeds)) {
		t.Errorf("sim.mc.run_ms n = %d, want %d", hs.Count, len(seeds))
	}
	// Worker counters still aggregated into the shared registry.
	var total int64
	for _, r := range results {
		total += r.Delivered
	}
	if got := m.Counters["router.delivered"]; got != total {
		t.Errorf("aggregated router.delivered = %d, want %d", got, total)
	}
}
