package main

import (
	"math"
	"strings"
	"testing"

	"toporouting/internal/telemetry"
)

// A request shaped like a topology POST: root → admission.wait, job.run →
// topology.build → phase1, phase2; then encode. Times in ms.
func syntheticTrace(id string) *telemetry.Trace {
	return &telemetry.Trace{ID: id, Root: "POST /v1/topology", DurMS: 20, Spans: []telemetry.SpanRecord{
		{Span: 2, Parent: 1, Name: "admission.wait", StartMS: 1, DurMS: 1},
		{Span: 3, Parent: 1, Name: "job.run", StartMS: 2, DurMS: 14},
		{Span: 4, Parent: 3, Name: "topology.build", StartMS: 5, DurMS: 8},
		{Span: 5, Parent: 4, Name: "topology.phase1", StartMS: 5, DurMS: 5},
		{Span: 6, Parent: 4, Name: "topology.phase2", StartMS: 10, DurMS: 2.5},
		{Span: 7, Parent: 1, Name: "encode", StartMS: 16, DurMS: 2},
		{Span: 1, Name: "POST /v1/topology", StartMS: 0, DurMS: 20},
	}}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(syntheticTrace("a"))
	want := map[string]float64{
		"POST /v1/topology": 3, // 20 − (1 + 14 + 2)
		"admission.wait":    1,
		"job.run":           6,   // 14 − 8
		"topology.build":    0.5, // 8 − (5 + 2.5)
		"topology.phase1":   5,
		"topology.phase2":   2.5,
		"encode":            2,
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != 20 {
		t.Errorf("self times sum to %v, want the root's 20", sum)
	}
}

// Overlapping children are covered once; a child running past its parent
// is clipped to the parent.
func TestSelfTimesOverlapAndClip(t *testing.T) {
	tr := &telemetry.Trace{ID: "b", Spans: []telemetry.SpanRecord{
		{Span: 2, Parent: 1, Name: "w1", StartMS: 1, DurMS: 4},
		{Span: 3, Parent: 1, Name: "w2", StartMS: 3, DurMS: 4},
		{Span: 4, Parent: 1, Name: "late", StartMS: 9, DurMS: 5},
		{Span: 1, Name: "root", StartMS: 0, DurMS: 10},
	}}
	if got := selfTimes(tr)["root"]; got != 3 {
		t.Errorf("root self = %v, want 10 − [1,7) − [9,10) = 3", got)
	}
}

func TestBreakdownJoinsByTraceID(t *testing.T) {
	traces := []*telemetry.Trace{syntheticTrace("a"), syntheticTrace("b"), syntheticTrace("unmatched")}
	samples := []sample{
		{outcome: outcome{status: 200, traceID: "a"}, latMS: 22, sendMS: 21},
		{outcome: outcome{status: 200, traceID: "b"}, latMS: 23, sendMS: 21},
		{outcome: outcome{status: 500, traceID: "c"}, latMS: 1, sendMS: 1},
	}
	b := breakdown(traces, samples)
	if b.traces != 2 {
		t.Fatalf("%d traces joined, want 2", b.traces)
	}
	if b.rootSelf != 3 || b.transport != 1 || b.queue != 1.5 {
		t.Errorf("root %v transport %v queue %v, want 3, 1, 1.5", b.rootSelf, b.transport, b.queue)
	}
	if got := b.explained(); got != 22.5 {
		t.Errorf("explained %v, want 1.5 queue + 1 transport + 20 in spans", got)
	}
	for name := range b.self {
		if strings.HasPrefix(name, "POST") {
			t.Errorf("root span %q listed among the layers", name)
		}
	}
}
