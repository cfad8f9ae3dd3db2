package telemetry

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestNilTelemetryIsInert exercises the zero-cost contract: every method
// on a nil *Telemetry and on nil instrument handles must no-op.
func TestNilTelemetryIsInert(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil telemetry reports Enabled")
	}
	if tel.Tracing() {
		t.Fatal("nil telemetry reports Tracing")
	}
	if tel.Sink() != nil {
		t.Fatal("nil telemetry has a sink")
	}
	if tel.WithoutTrace() != nil {
		t.Fatal("WithoutTrace of nil is non-nil")
	}
	c := tel.Counter("x")
	if c != nil {
		t.Fatal("nil telemetry returned a live counter")
	}
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	g := tel.Gauge("x")
	g.Set(1)
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	h := tel.Histogram("x")
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram recorded")
	}
	tel.Emit(Event{Kind: "step"})
	tel.StartPhase("p")() // must not panic
	if m := tel.Snapshot(); m.Counters != nil || m.Gauges != nil || m.Buckets != nil {
		t.Fatal("nil telemetry snapshot is non-empty")
	}
}

func TestStartPhaseNilAllocFree(t *testing.T) {
	var tel *Telemetry
	allocs := testing.AllocsPerRun(100, func() {
		tel.StartPhase("hot")()
		tel.Counter("c").Add(1)
		tel.Emit(Event{Kind: "k"})
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %v per op", allocs)
	}
}

func TestInstrumentsAndSnapshot(t *testing.T) {
	tel := New(nil)
	tel.Counter("a").Add(3)
	tel.Counter("a").Inc()
	tel.Counter("b").Inc()
	tel.Gauge("g").Set(2.5)
	tel.Gauge("g2").Add(1)
	tel.Gauge("g2").Add(0.5)
	for i := 0; i < 10; i++ {
		tel.Histogram("h").Observe(float64(i))
	}

	if got := tel.Counter("a").Value(); got != 4 {
		t.Fatalf("counter a = %d, want 4", got)
	}
	if got := tel.Gauge("g2").Value(); got != 1.5 {
		t.Fatalf("gauge g2 = %v, want 1.5", got)
	}
	m := tel.Snapshot()
	if m.Counters["a"] != 4 || m.Counters["b"] != 1 {
		t.Fatalf("snapshot counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 2.5 {
		t.Fatalf("snapshot gauges = %v", m.Gauges)
	}
	hs := m.Buckets["h"]
	if hs.Count != 10 || math.Abs(hs.Sum/float64(hs.Count)-4.5) > 1e-12 {
		t.Fatalf("histogram summary = %+v", hs)
	}
	out := m.String()
	for _, want := range []string{"counter", "gauge", "histogram", "a", "g2", "h"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("Metrics.String() missing %q:\n%s", want, out)
		}
	}
}

func TestPhaseTimerRecords(t *testing.T) {
	sink := &MemorySink{}
	tel := New(sink)
	stop := tel.StartPhase("unit")
	stop()
	if n := tel.Histogram("phase.unit.ms").Snapshot().Count; n != 1 {
		t.Fatalf("phase histogram has %d samples, want 1", n)
	}
	evs := sink.Events()
	if len(evs) != 1 || evs[0].Kind != "phase" || evs[0].Name != "unit" {
		t.Fatalf("phase events = %+v", evs)
	}
	if evs[0].DurMS < 0 {
		t.Fatalf("negative phase duration %v", evs[0].DurMS)
	}
	if evs[0].TMS <= 0 {
		t.Fatalf("event not timestamped: %+v", evs[0])
	}
}

func TestWithoutTraceSharesInstruments(t *testing.T) {
	sink := &MemorySink{}
	tel := New(sink)
	quiet := tel.WithoutTrace()
	if quiet.Tracing() {
		t.Fatal("WithoutTrace still traces")
	}
	if !quiet.Enabled() {
		t.Fatal("WithoutTrace disabled instruments")
	}
	quiet.Counter("shared").Add(7)
	if got := tel.Counter("shared").Value(); got != 7 {
		t.Fatalf("shared counter = %d, want 7", got)
	}
	quiet.Emit(Event{Kind: "step"})
	if len(sink.Events()) != 0 {
		t.Fatal("quiet view leaked events to the sink")
	}
	// The original still traces.
	tel.Emit(Event{Kind: "step"})
	if len(sink.Events()) != 1 {
		t.Fatal("original view lost its sink")
	}
	// A scope with no sink returns itself.
	bare := New(nil)
	if bare.WithoutTrace() != bare {
		t.Fatal("WithoutTrace of a sinkless scope is not the scope itself")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []Event{
		{TMS: 1.5, Layer: "router", Kind: "step", Step: 3, Fields: map[string]float64{"queued": 12, "moved": 4}},
		{TMS: 2.5, Layer: "sim", Kind: "mc_run", Seed: 42, Worker: 2, DurMS: 10.25},
		{TMS: 3.5, Kind: "phase", Name: "topology.phase1", DurMS: 0.125},
	}
	for _, ev := range in {
		sink.Emit(ev)
	}
	if sink.Events() != int64(len(in)) {
		t.Fatalf("sink counted %d events, want %d", sink.Events(), len(in))
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEmitStampsTime(t *testing.T) {
	sink := &MemorySink{}
	tel := New(sink)
	tel.Emit(Event{Kind: "k"})
	tel.Emit(Event{Kind: "k", TMS: 99})
	evs := sink.Events()
	if evs[0].TMS <= 0 {
		t.Fatalf("unstamped event: %+v", evs[0])
	}
	if evs[1].TMS != 99 {
		t.Fatalf("caller timestamp overwritten: %+v", evs[1])
	}
}

func TestConcurrentRecording(t *testing.T) {
	tel := New(&MemorySink{})
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := tel.Counter("c")
			g := tel.Gauge("g")
			h := tel.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i))
				tel.Emit(Event{Kind: "step", Step: i, Worker: w})
			}
		}(w)
	}
	wg.Wait()
	if got := tel.Counter("c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := tel.Gauge("g").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v, want %d", got, workers*perWorker)
	}
	if got := tel.Histogram("h").Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram n = %d, want %d", got, workers*perWorker)
	}
}

// TestHistogramSoak feeds a named histogram well past 2²⁰ observations
// and checks it still sees every one: the count, a tail quantile that
// must move into the bucket of the late values, and the exposition's
// _count all track the full stream.
func TestHistogramSoak(t *testing.T) {
	const early, late = 1 << 20, 1 << 18
	tel := New(nil)
	h := tel.Histogram("soak.ms")
	for i := 0; i < early; i++ {
		h.Observe(float64(i % 1000))
	}
	for i := 0; i < late; i++ {
		h.Observe(5000)
	}
	s := h.Snapshot()
	if s.Count != early+late {
		t.Fatalf("count = %d, want %d", s.Count, early+late)
	}
	// 5000 lands in the (2500, 5000] bucket of DefLatencyBuckets.
	if p99 := s.Quantile(0.99); p99 <= 2500 || p99 > 5000 {
		t.Fatalf("p99 = %v, want it in the late values' bucket (2500, 5000]", p99)
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tel); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var count float64 = -1
	for _, ps := range samples {
		if ps.Name == "toporouting_soak_ms_count" {
			count = ps.Value
		}
	}
	if count != early+late {
		t.Fatalf("exposition _count = %v, want %d", count, early+late)
	}
}

func TestBucketQuantile(t *testing.T) {
	if q := (BucketSnapshot{}).Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("empty snapshot quantile = %v, want NaN", q)
	}
	if q := New(nil).BucketHistogram("empty", []float64{1, 10}).Snapshot().Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("unobserved histogram quantile = %v, want NaN", q)
	}

	// Every observation in one bucket: linear interpolation across (10, 20].
	h := New(nil).BucketHistogram("one", []float64{10, 20, 30})
	for i := 0; i < 4; i++ {
		h.Observe(15)
	}
	s := h.Snapshot()
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.25, 12.5}, {0.5, 15}, {1, 20}} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("one-bucket Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// The first bucket interpolates up from 0.
	h.Observe(1)
	if got := h.Snapshot().Quantile(0.1); got != 5 {
		t.Errorf("first-bucket Quantile(0.1) = %v, want 5", got)
	}

	// Ranks in the +Inf bucket report the highest finite bound.
	over := New(nil).BucketHistogram("over", []float64{1, 10})
	for _, x := range []float64{0.5, 0.5, 1e6, 1e6} {
		over.Observe(x)
	}
	so := over.Snapshot()
	if got := so.Quantile(0.99); got != 10 {
		t.Errorf("+Inf-bucket Quantile(0.99) = %v, want 10", got)
	}
	if got := so.Quantile(0.25); got != 0.5 {
		t.Errorf("Quantile(0.25) = %v, want 0.5", got)
	}
}

func TestPublishExpvar(t *testing.T) {
	PublishExpvar("tel_test", nil) // nil scope: no-op, no panic
	tel := New(nil)
	tel.Counter("x").Inc()
	PublishExpvar("tel_test", tel)
	PublishExpvar("tel_test", tel) // duplicate publish must not panic
}

func TestStartProfilesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	stop, err := StartProfiles(cpu, mem, "")
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples.
	x := 0.0
	for i := 0; i < 1e6; i++ {
		x += math.Sqrt(float64(i))
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	// All-empty inputs: stop must be callable and error-free.
	stop2, err := StartProfiles("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop2(); err != nil {
		t.Fatal(err)
	}
}

// countingSyncer verifies Close forces buffered bytes to stable storage on
// sinks whose writer supports fsync.
type countingSyncer struct {
	bytes.Buffer
	syncs  int
	closes int
}

func (c *countingSyncer) Sync() error  { c.syncs++; return nil }
func (c *countingSyncer) Close() error { c.closes++; return nil }

func TestJSONLCloseSyncsFileSinks(t *testing.T) {
	w := &countingSyncer{}
	sink := NewJSONL(w)
	sink.Emit(Event{Kind: "x"})
	if w.Len() != 0 {
		t.Fatal("event bypassed the buffer")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Len() == 0 {
		t.Error("Close did not flush the buffer")
	}
	if w.syncs != 1 {
		t.Errorf("Close issued %d syncs, want 1", w.syncs)
	}
	if w.closes != 1 {
		t.Errorf("Close issued %d closes, want 1", w.closes)
	}
}

func TestJSONLFileSurvivesSkippedFinish(t *testing.T) {
	// Model an early-error exit: the sink is closed by a deferred cleanup
	// without any other shutdown step having run. The trace must be
	// complete on disk afterwards.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	sink, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sink.Emit(Event{Kind: "step", Step: i})
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 10 {
		t.Fatalf("read %d events, want 10", len(evs))
	}
}
