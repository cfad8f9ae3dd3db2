package toporouting

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// simTelemetryOptions is a small instrumented honeycomb scenario shared by
// the public-API telemetry tests.
func simTelemetryOptions(t *testing.T, tel *Telemetry) SimulationOptions {
	t.Helper()
	pts := mustPoints(t, "uniform", 60, 3)
	return SimulationOptions{
		Points:    pts,
		MAC:       MACRandom,
		Router:    RouterOptions{BufferSize: 40},
		Traffic:   SinksTraffic(len(pts), []int{3, 17}, 2, 100),
		Steps:     200,
		Seed:      3,
		Telemetry: tel,
	}
}

func TestSimulateMetricsSnapshot(t *testing.T) {
	bare, err := Simulate(simTelemetryOptions(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if bare.Metrics != nil {
		t.Fatal("uninstrumented run returned metrics")
	}

	tel := NewTelemetry()
	res, err := Simulate(simTelemetryOptions(t, tel))
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("instrumented run returned no metrics snapshot")
	}
	if got := res.Metrics.Counters["router.delivered"]; got != res.Delivered {
		t.Errorf("metrics delivered = %d, result says %d", got, res.Delivered)
	}
	if res.Delivered != bare.Delivered || res.Queued != bare.Queued || res.Moves != bare.Moves {
		t.Errorf("telemetry changed results: %+v vs %+v", res, bare)
	}
	if res.Metrics.Buckets["phase.sim.run.ms"].Count != 1 {
		t.Errorf("missing sim.run phase timing: %+v", res.Metrics.Buckets)
	}
}

// TestSimulateJSONLTraceRoundTrip is the acceptance check for the trace
// surface: an instrumented Simulate writes a JSONL file whose every line
// decodes back into a TraceEvent carrying the per-step router series.
func TestSimulateJSONLTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := CreateJSONLTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	tel := NewTracedTelemetry(sink)
	res, err := Simulate(simTelemetryOptions(t, tel))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := ReadJSONLTrace(f)
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	var routerSteps int
	var delivered float64
	for _, ev := range events {
		if ev.Kind == "" {
			t.Fatalf("event missing kind: %+v", ev)
		}
		if ev.Layer == "router" && ev.Kind == "step" {
			routerSteps++
			delivered += ev.Fields["delivered"]
		}
	}
	if routerSteps != 200 {
		t.Errorf("router step events = %d, want 200", routerSteps)
	}
	if int64(delivered) != res.Delivered {
		t.Errorf("trace delivered = %v, result says %d", delivered, res.Delivered)
	}
}

func TestSimulationResultJSON(t *testing.T) {
	tel := NewTelemetry()
	res, err := Simulate(simTelemetryOptions(t, tel))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"delivered", "accepted", "dropped", "moves", "total_cost", "metrics"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("result JSON missing %q: %s", key, raw)
		}
	}
	var back SimulationResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Delivered != res.Delivered || back.Metrics == nil {
		t.Errorf("result JSON round trip lost data: %+v", back)
	}
}

func TestBuildNetworkTelemetry(t *testing.T) {
	tel := NewTelemetry()
	pts := mustPoints(t, "uniform", 80, 1)
	nw, err := BuildNetwork(pts, Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	m := tel.Snapshot()
	if m.Counters["topology.builds"] != 1 {
		t.Errorf("topology.builds = %d, want 1", m.Counters["topology.builds"])
	}
	if got := m.Gauges["topology.edges"]; got != float64(nw.NumEdges()) {
		t.Errorf("topology.edges gauge = %v, network has %d", got, nw.NumEdges())
	}
	for _, phase := range []string{"phase.topology.build.ms", "phase.topology.phase1.ms", "phase.topology.phase2.ms"} {
		if m.Buckets[phase].Count != 1 {
			t.Errorf("phase timer %s did not fire: %+v", phase, m.Buckets[phase])
		}
	}

	// Distributed build records rounds and message counters.
	tel2 := NewTelemetry()
	_, st, err := BuildNetworkDistributed(pts, Options{Telemetry: tel2})
	if err != nil {
		t.Fatal(err)
	}
	m2 := tel2.Snapshot()
	if got := m2.Counters["topology.dist.position_msgs"]; got != int64(st.PositionMsgs) {
		t.Errorf("position msg counter = %d, stats say %d", got, st.PositionMsgs)
	}
	for _, phase := range []string{"phase.topology.dist.position.ms", "phase.topology.dist.neighborhood.ms", "phase.topology.dist.connection.ms"} {
		if m2.Buckets[phase].Count != 1 {
			t.Errorf("distributed phase timer %s did not fire", phase)
		}
	}
}

func TestRouterSetTelemetry(t *testing.T) {
	tel := NewTelemetry()
	r, err := NewRouter(4, RouterOptions{BufferSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.SetTelemetry(tel)
	links := []Link{{U: 0, V: 1, Cost: 0}, {U: 1, V: 2, Cost: 0}, {U: 2, V: 3, Cost: 0}}
	r.Step(nil, []Packets{{Node: 0, Dest: 3, Count: 5}})
	for i := 0; i < 50; i++ {
		r.Step(links, nil)
	}
	m := tel.Snapshot()
	if m.Counters["router.accepted"] != 5 {
		t.Errorf("router.accepted = %d, want 5", m.Counters["router.accepted"])
	}
	if m.Counters["router.delivered"] != r.Delivered() {
		t.Errorf("router.delivered = %d, router says %d", m.Counters["router.delivered"], r.Delivered())
	}
}
