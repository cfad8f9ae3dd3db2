package telemetry

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Metrics is a point-in-time snapshot of every instrument in a Telemetry
// scope. It marshals cleanly to JSON (the -json / -metrics CLI surfaces)
// and formats as a sorted table via String.
type Metrics struct {
	Counters map[string]int64          `json:"counters,omitempty"`
	Gauges   map[string]float64        `json:"gauges,omitempty"`
	Buckets  map[string]BucketSnapshot `json:"buckets,omitempty"`
}

// Snapshot captures the current value of every instrument. A nil scope
// yields a zero Metrics.
func (t *Telemetry) Snapshot() Metrics {
	var m Metrics
	if t == nil {
		return m
	}
	// Copy the instrument handles under the registry lock, then read them
	// outside it so a scrape never holds up a first-use lookup.
	r := t.reg
	r.mu.Lock()
	counters, gauges, hists := maps.Clone(r.counters), maps.Clone(r.gauges), maps.Clone(r.histograms)
	r.mu.Unlock()

	m.Counters = readAll(counters, (*Counter).Value)
	m.Gauges = readAll(gauges, (*Gauge).Value)
	m.Buckets = readAll(hists, (*BucketHistogram).Snapshot)
	return m
}

// readAll maps every instrument through read; nil when there are none, so
// empty kinds stay out of the JSON snapshot.
func readAll[I, V any](m map[string]I, read func(I) V) map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]V, len(m))
	for k, inst := range m {
		out[k] = read(inst)
	}
	return out
}

// String renders the snapshot as a name-sorted text table. Histogram
// quantiles are bucket-interpolated estimates (BucketSnapshot.Quantile).
func (m Metrics) String() string {
	var b strings.Builder
	for _, name := range sortedKeys(m.Counters) {
		fmt.Fprintf(&b, "counter    %-36s %d\n", name, m.Counters[name])
	}
	for _, name := range sortedKeys(m.Gauges) {
		fmt.Fprintf(&b, "gauge      %-36s %g\n", name, m.Gauges[name])
	}
	for _, name := range sortedKeys(m.Buckets) {
		s := m.Buckets[name]
		mean := 0.0
		if s.Count > 0 {
			mean = s.Sum / float64(s.Count)
		}
		fmt.Fprintf(&b, "histogram  %-36s n=%d p50=%.3f p95=%.3f mean=%.3f sum=%.3f\n",
			name, s.Count, s.Quantile(0.5), s.Quantile(0.95), mean, s.Sum)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
