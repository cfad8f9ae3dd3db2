package main

import (
	"sort"

	"toporouting/internal/telemetry"
)

// selfTimes returns, per span name, the summed self time of the trace's
// spans in milliseconds: a span's duration minus the part of its interval
// that its children cover. Children that overlap each other are counted
// once, and a child reaching past its parent is clipped to the parent.
func selfTimes(t *telemetry.Trace) map[string]float64 {
	children := map[uint64][]telemetry.SpanRecord{}
	for _, s := range t.Spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range t.Spans {
		lo, hi := s.StartMS, s.StartMS+s.DurMS
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartMS < kids[j].StartMS })
		covered, end := 0.0, lo
		for _, k := range kids {
			a, b := max(k.StartMS, end), min(k.StartMS+k.DurMS, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		out[s.Name] += s.DurMS - covered
	}
	return out
}

// rootSpan returns the trace's root record (Parent 0).
func rootSpan(t *telemetry.Trace) (telemetry.SpanRecord, bool) {
	for _, s := range t.Spans {
		if s.Parent == 0 {
			return s, true
		}
	}
	return telemetry.SpanRecord{}, false
}

// layerBreakdown joins the daemon's retained traces to the client's
// samples by trace id and reduces them to per-layer medians: the wait
// from due time to send, root-span self time, self time of every other
// span name, and transport (client latency from send minus root duration).
type layerBreakdown struct {
	traces    int                // traces joined to a client sample
	queue     float64            // ms, median wait from due time to send
	rootSelf  float64            // ms, median
	transport float64            // ms, median
	self      map[string]float64 // ms, median per non-root span name, over traces that have it
	share     map[string]float64 // fraction of joined traces that have the span name
}

func breakdown(traces []*telemetry.Trace, samples []sample) layerBreakdown {
	bySample := map[string]sample{}
	for _, s := range samples {
		if s.traceID != "" && s.ok() {
			bySample[s.traceID] = s
		}
	}
	var roots, transports, queues []float64
	perName := map[string][]float64{}
	for _, t := range traces {
		smp, ok := bySample[t.ID]
		if !ok {
			continue
		}
		root, ok := rootSpan(t)
		if !ok {
			continue
		}
		st := selfTimes(t)
		roots = append(roots, st[root.Name])
		transports = append(transports, smp.sendMS-root.DurMS)
		queues = append(queues, smp.latMS-smp.sendMS)
		for name, v := range st {
			if name != root.Name {
				perName[name] = append(perName[name], v)
			}
		}
	}
	b := layerBreakdown{traces: len(roots), self: map[string]float64{}, share: map[string]float64{}}
	if b.traces == 0 {
		return b
	}
	b.rootSelf, b.transport, b.queue = median(roots), median(transports), median(queues)
	for name, vs := range perName {
		b.self[name] = median(vs)
		b.share[name] = float64(len(vs)) / float64(b.traces)
	}
	return b
}

// explained is the sum of the per-layer medians that make up a typical
// request: client queueing, transport, root self time, and every span
// present in at least half the joined traces.
func (b layerBreakdown) explained() float64 {
	sum := b.queue + b.transport + b.rootSelf
	for name, v := range b.self {
		if b.share[name] >= 0.5 {
			sum += v
		}
	}
	return sum
}
