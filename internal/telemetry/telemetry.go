// Package telemetry is the observability layer of the stack: counters,
// gauges, fixed-bucket histograms, named phase timers, and a pluggable
// event Sink with a buffered JSONL implementation for step-level traces.
// Every layer — ΘALG builds in internal/topology, MAC rounds in
// internal/mac, the (T,γ)-balancing router in internal/routing, and the
// simulation loop in internal/sim — records into a *Telemetry handed down
// from the caller.
//
// The zero cost contract: a nil *Telemetry is a valid, fully inert
// instance. Every method has a nil-receiver fast path, instrument handles
// (*Counter, *Gauge, *BucketHistogram) obtained from a nil *Telemetry are
// nil and their record methods no-op, and StartPhase returns a shared
// no-op closure — so instrumented hot paths pay only a nil check and
// allocate nothing when telemetry is disabled.
//
// Concurrency: every instrument is a fixed set of atomics and sinks are
// mutex-guarded, so one *Telemetry may be shared by concurrent simulations
// (the Monte-Carlo runner does exactly that: aggregate instruments are
// shared while per-step tracing is suppressed in workers via WithoutTrace,
// and per-run trace events are emitted seed-ordered by the runner itself).
// Instrument memory is fixed at creation, so no instrument freezes or
// grows however long the process records into it.
package telemetry

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Telemetry is one recording scope: a shared instrument registry plus an
// optional trace sink. Construct with New; nil is a valid disabled scope.
type Telemetry struct {
	reg   *registry
	sink  Sink
	start time.Time
}

// New returns a Telemetry recording into a fresh instrument registry.
// sink, when non-nil, additionally receives step-level trace events
// (Tracing() reports true).
func New(sink Sink) *Telemetry {
	return &Telemetry{reg: newRegistry(), sink: sink, start: time.Now()}
}

// WithoutTrace returns a view sharing this scope's instruments (counters,
// gauges, histograms, phase timers) but with trace-event emission disabled.
// The Monte-Carlo runner hands it to workers so concurrent runs aggregate
// metrics without interleaving per-step events.
func (t *Telemetry) WithoutTrace() *Telemetry {
	if t == nil || t.sink == nil {
		return t
	}
	return &Telemetry{reg: t.reg, start: t.start}
}

// Enabled reports whether this scope records at all (nil receivers do not).
func (t *Telemetry) Enabled() bool { return t != nil }

// Tracing reports whether trace events reach a sink.
func (t *Telemetry) Tracing() bool { return t != nil && t.sink != nil }

// Sink returns the installed trace sink (nil when not tracing).
func (t *Telemetry) Sink() Sink {
	if t == nil {
		return nil
	}
	return t.sink
}

// Counter returns the named counter, creating it on first use. The result
// is nil — and safely inert — when t is nil.
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	return instrument(t.reg, t.reg.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use. The result is
// nil — and safely inert — when t is nil.
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	return instrument(t.reg, t.reg.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named latency histogram: BucketHistogram(name,
// DefLatencyBuckets). The result is nil — and safely inert — when t is nil.
func (t *Telemetry) Histogram(name string) *BucketHistogram {
	return t.BucketHistogram(name, DefLatencyBuckets)
}

// Emit sends ev to the trace sink, stamping TMS (milliseconds since the
// scope was created) when the caller left it zero. No-op unless Tracing.
func (t *Telemetry) Emit(ev Event) {
	if t == nil || t.sink == nil {
		return
	}
	if ev.TMS == 0 {
		ev.TMS = float64(time.Since(t.start)) / float64(time.Millisecond)
	}
	t.sink.Emit(ev)
}

// nopStop is the shared disabled-phase closure; returning it keeps
// StartPhase allocation-free on nil receivers.
var nopStop = func() {}

// StartPhase starts a named phase timer and returns its stop function.
// Stopping records the elapsed milliseconds into latency histogram
// "phase.<name>.ms" and, when tracing, emits a {kind: "phase"} event.
// Typical use:
//
//	stop := tel.StartPhase("topology.phase1")
//	...work...
//	stop()
func (t *Telemetry) StartPhase(name string) func() {
	if t == nil {
		return nopStop
	}
	h := t.Histogram("phase." + name + ".ms")
	t0 := time.Now()
	return func() {
		ms := float64(time.Since(t0)) / float64(time.Millisecond)
		h.Observe(ms)
		t.Emit(Event{Kind: "phase", Name: name, DurMS: ms})
	}
}

// Counter is a cumulative atomic int64 instrument.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by d (no-op on a nil counter).
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one (no-op on a nil counter).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float64 instrument (atomically stored bits).
type Gauge struct{ bits atomic.Uint64 }

// Set records the current value (no-op on a nil gauge).
func (g *Gauge) Set(x float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(x))
}

// Add atomically adds d to the gauge (no-op on a nil gauge).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the last recorded value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// registry is the shared name → instrument store behind a Telemetry scope
// and all its WithoutTrace views.
type registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*BucketHistogram
}

func newRegistry() *registry {
	return &registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*BucketHistogram),
	}
}

// instrument returns m[name], creating it with mk on first use.
func instrument[T any](r *registry, m map[string]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = mk()
		m[name] = v
	}
	return v
}
