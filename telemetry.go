package toporouting

import (
	"context"
	"io"

	"toporouting/internal/telemetry"
)

// Telemetry is the observability scope of the stack: counters, gauges,
// fixed-bucket histograms, named phase timers, and an optional trace sink. Pass one via
// SimulationOptions.Telemetry (or Options.Telemetry for bare topology
// builds) and every layer — ΘALG build phases, MAC contention, the
// (T,γ)-balancing router's per-step series, and the simulation loop —
// records into it. A nil *Telemetry disables all instrumentation at zero
// cost, and telemetry never changes simulation results.
type Telemetry = telemetry.Telemetry

// Metrics is a point-in-time snapshot of every telemetry instrument; see
// SimulationResult.Metrics and Telemetry.Snapshot.
type Metrics = telemetry.Metrics

// TraceEvent is one step-level trace record; the JSONL trace format is one
// JSON-encoded TraceEvent per line.
type TraceEvent = telemetry.Event

// TraceSink receives trace events; implementations must tolerate
// concurrent Emit calls.
type TraceSink = telemetry.Sink

// NewTelemetry returns a metrics-only telemetry scope (counters, gauges,
// fixed-bucket histograms, phase timers; no trace events).
func NewTelemetry() *Telemetry { return telemetry.New(nil) }

// NewTracedTelemetry returns a telemetry scope that additionally streams
// step-level trace events into sink.
func NewTracedTelemetry(sink TraceSink) *Telemetry { return telemetry.New(sink) }

// NewJSONLTrace returns a buffered TraceSink writing one JSON event per
// line to w; Close flushes it (and closes w when w is an io.Closer).
func NewJSONLTrace(w io.Writer) TraceSink { return telemetry.NewJSONL(w) }

// CreateJSONLTrace creates (truncating) the file at path and returns a
// JSONL trace sink writing to it.
func CreateJSONLTrace(path string) (TraceSink, error) { return telemetry.CreateJSONL(path) }

// ReadJSONLTrace decodes a JSONL trace stream back into events — the
// inverse of NewJSONLTrace, for tools post-processing a run's trace.
func ReadJSONLTrace(r io.Reader) ([]TraceEvent, error) { return telemetry.ReadJSONL(r) }

// StartProfiling wires the standard Go profiling surfaces: a CPU profile
// into cpuProfile (when non-empty), a heap profile into memProfile written
// by the returned stop function, and a net/http/pprof + expvar server on
// pprofAddr for the life of the process. The cmd/ binaries expose these as
// -cpuprofile, -memprofile, and -pprof-addr.
func StartProfiling(cpuProfile, memProfile, pprofAddr string) (stop func() error, err error) {
	return telemetry.StartProfiles(cpuProfile, memProfile, pprofAddr)
}

// PublishExpvar exposes the scope's live metrics snapshot under the given
// expvar name, visible at /debug/vars when a pprof server is running.
func PublishExpvar(name string, t *Telemetry) { telemetry.PublishExpvar(name, t) }

// Tracer mints request-scoped span trees carried via context.Context; a
// nil *Tracer (and the nil *Span it returns) disables tracing at zero
// cost. See internal/telemetry's span documentation.
type Tracer = telemetry.Tracer

// Span is one timed operation inside a trace; nil spans are inert.
type Span = telemetry.Span

// Trace is a finished span tree as retained by a TraceRing and served at
// GET /debug/traces.
type Trace = telemetry.Trace

// TraceRing retains the K slowest traces plus a uniform sample.
type TraceRing = telemetry.TraceRing

// NewTracer returns a tracer retaining finished traces in ring (may be
// nil) and exporting span events through tel's trace sink when tracing.
func NewTracer(tel *Telemetry, ring *TraceRing) *Tracer { return telemetry.NewTracer(tel, ring) }

// NewTraceRing returns a trace retention ring keeping the slowK slowest
// traces and a uniform reservoir sample of sampleN (non-positive values
// select 32 and 64).
func NewTraceRing(slowK, sampleN int) *TraceRing { return telemetry.NewTraceRing(slowK, sampleN) }

// StartSpan begins a child span of the span carried by ctx (no-op, nil
// span when ctx carries none) — the hook instrumented layers use.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return telemetry.StartChild(ctx, name)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span { return telemetry.SpanFromContext(ctx) }

// WritePrometheus renders a snapshot of every instrument in t in the
// Prometheus text exposition format (GET /metrics on toporoutingd).
func WritePrometheus(w io.Writer, t *Telemetry) error { return telemetry.WritePrometheus(w, t) }
