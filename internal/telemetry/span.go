package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span tracing: a request-scoped complement to the process-global
// instruments in this package. A Tracer mints one trace per root span;
// child spans ride a context.Context through the serving stack (admission
// wait, job run, ΘALG build phases, the distributed engine, the
// simulation loop), so one HTTP request yields one span tree. Finished
// traces land in a bounded TraceRing (served at /debug/traces) and, when
// the Tracer's Telemetry scope has a sink, are exported to the JSONL
// trace stream as {layer: "trace", kind: "span"} events.
//
// The zero cost contract matches the rest of the package: a nil *Tracer
// returns nil spans, every *Span method no-ops on nil, and StartChild on a
// context without a span is a single context.Value miss — instrumented
// code needs no "is tracing on" branches.

// Tracer mints and collects traces. Construct with NewTracer; nil is a
// valid disabled tracer.
type Tracer struct {
	tel  *Telemetry
	ring *TraceRing
	salt uint64
	seq  atomic.Uint64
}

// NewTracer returns a Tracer retaining finished traces in ring (may be
// nil) and exporting spans to tel's trace sink when tel is tracing (tel
// may be nil).
func NewTracer(tel *Telemetry, ring *TraceRing) *Tracer {
	return &Tracer{tel: tel, ring: ring, salt: uint64(time.Now().UnixNano())}
}

// Ring returns the tracer's retention ring (nil on a nil tracer or when
// none was configured).
func (tr *Tracer) Ring() *TraceRing {
	if tr == nil {
		return nil
	}
	return tr.ring
}

// SpanRecord is the exported form of one finished span. Span ids are
// trace-local (the root span is 1) and Parent is 0 for the root.
type SpanRecord struct {
	Span    uint64             `json:"span"`
	Parent  uint64             `json:"parent,omitempty"`
	Name    string             `json:"name"`
	StartMS float64            `json:"start_ms"` // offset from trace start
	DurMS   float64            `json:"dur_ms"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// Trace is one finished span tree, exported when its root span ends.
// Spans appear in end order; the root is last.
type Trace struct {
	ID    string       `json:"trace_id"`
	Root  string       `json:"root"`
	Start time.Time    `json:"start"`
	DurMS float64      `json:"dur_ms"`
	Spans []SpanRecord `json:"spans"`
}

// trace is the shared per-trace accumulator behind every span of one tree.
type trace struct {
	tracer *Tracer
	id     string
	start  time.Time // monotonic anchor for every StartMS offset
	root   string

	mu      sync.Mutex
	nextID  uint64
	records []SpanRecord
}

func (t *trace) newSpanID() uint64 {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return id
}

// Span is one timed operation inside a trace. A nil *Span is valid and
// inert, so callers never branch on "is tracing enabled".
type Span struct {
	tr     *trace
	name   string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs map[string]float64
	ended bool
}

// spanKey carries the active span through a context.
type spanKey struct{}

// SpanFromContext returns the active span, or nil when ctx carries none.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithSpan returns ctx carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// Start begins a new trace rooted at a span named name and returns a
// context carrying it. On a nil tracer it returns (ctx, nil) untouched.
func (tr *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if tr == nil {
		return ctx, nil
	}
	seq := tr.seq.Add(1)
	t := &trace{
		tracer: tr,
		id:     fmt.Sprintf("%08x%08x", uint32(tr.salt>>16), uint32(seq)),
		start:  time.Now(),
		root:   name,
		nextID: 1,
	}
	s := &Span{tr: t, name: name, id: 1, start: t.start}
	return ContextWithSpan(ctx, s), s
}

// StartChild begins a span named name under the span carried by ctx and
// returns a context carrying the child. When ctx carries no span (tracing
// off, or a background job) it returns (ctx, nil) — a single context
// lookup, no allocation.
func StartChild(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(name)
	return ContextWithSpan(ctx, s), s
}

// Child begins a span named name under s without threading a context;
// useful for a span that ends before any callee could want it as a parent
// (the admission wait, request decode, cache digest). Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{tr: s.tr, name: name, id: s.tr.newSpanID(), parent: s.id, start: time.Now()}
}

// TraceID returns the id of the span's trace ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.id
}

// SetAttr attaches a numeric attribute to the span. Nil-safe.
func (s *Span) SetAttr(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]float64, 4)
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End finishes the span, recording its monotonic duration. Ending the
// root span finalizes the trace: it is offered to the tracer's ring and
// its spans are emitted to the telemetry sink. End is idempotent and
// nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	rec := SpanRecord{
		Span:    s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartMS: float64(s.start.Sub(s.tr.start)) / float64(time.Millisecond),
		DurMS:   float64(now.Sub(s.start)) / float64(time.Millisecond),
		Attrs:   attrs,
	}
	t := s.tr
	t.mu.Lock()
	t.records = append(t.records, rec)
	var finished *Trace
	if s.id == 1 { // root: finalize and export
		finished = &Trace{
			ID:    t.id,
			Root:  t.root,
			Start: t.start,
			DurMS: rec.DurMS,
			Spans: t.records,
		}
		t.records = nil
	}
	t.mu.Unlock()
	if finished != nil {
		t.tracer.export(finished)
	}
}

// export retains and emits one finished trace.
func (tr *Tracer) export(t *Trace) {
	if tr.ring != nil {
		tr.ring.Offer(t)
	}
	if tr.tel.Tracing() {
		for _, r := range t.Spans {
			tr.tel.Emit(Event{
				Layer: "trace",
				Kind:  "span",
				Name:  r.Name,
				Trace: t.ID,
				DurMS: r.DurMS,
				Fields: map[string]float64{
					"span":     float64(r.Span),
					"parent":   float64(r.Parent),
					"start_ms": r.StartMS,
				},
			})
		}
	}
}
