package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the exposition byte-for-byte for a small
// registry: deterministic ordering (families name-sorted, series
// label-sorted), the toporouting_ prefix, sanitized names, labeled series
// sharing one family, cumulative histogram buckets with +Inf, and a named
// latency histogram rendered with the default latency buckets.
func TestWritePrometheusGolden(t *testing.T) {
	tel := New(nil)
	tel.Counter("server.jobs_admitted").Add(3)
	tel.Counter(LabeledName("http.requests", "endpoint", "/v1/topology", "code", "200")).Add(2)
	tel.Counter(LabeledName("http.requests", "endpoint", "/v1/topology", "code", "429")).Inc()
	tel.Gauge("server.queue_depth").Set(5)
	h := tel.BucketHistogram("http.latency_ms", []float64{1, 10, 100})
	h.Observe(0.5)  // ≤1
	h.Observe(7)    // ≤10
	h.Observe(2000) // overflow → +Inf only
	sh := tel.Histogram("phase.topology.build.ms")
	sh.Observe(2)
	sh.Observe(4)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tel); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# TYPE toporouting_http_latency_ms histogram
toporouting_http_latency_ms_bucket{le="1"} 1
toporouting_http_latency_ms_bucket{le="10"} 2
toporouting_http_latency_ms_bucket{le="100"} 2
toporouting_http_latency_ms_bucket{le="+Inf"} 3
toporouting_http_latency_ms_sum 2007.5
toporouting_http_latency_ms_count 3
# TYPE toporouting_http_requests counter
toporouting_http_requests{code="200",endpoint="/v1/topology"} 2
toporouting_http_requests{code="429",endpoint="/v1/topology"} 1
# TYPE toporouting_phase_topology_build_ms histogram
toporouting_phase_topology_build_ms_bucket{le="0.5"} 0
toporouting_phase_topology_build_ms_bucket{le="1"} 0
toporouting_phase_topology_build_ms_bucket{le="2.5"} 1
toporouting_phase_topology_build_ms_bucket{le="5"} 2
toporouting_phase_topology_build_ms_bucket{le="10"} 2
toporouting_phase_topology_build_ms_bucket{le="25"} 2
toporouting_phase_topology_build_ms_bucket{le="50"} 2
toporouting_phase_topology_build_ms_bucket{le="100"} 2
toporouting_phase_topology_build_ms_bucket{le="250"} 2
toporouting_phase_topology_build_ms_bucket{le="500"} 2
toporouting_phase_topology_build_ms_bucket{le="1000"} 2
toporouting_phase_topology_build_ms_bucket{le="2500"} 2
toporouting_phase_topology_build_ms_bucket{le="5000"} 2
toporouting_phase_topology_build_ms_bucket{le="10000"} 2
toporouting_phase_topology_build_ms_bucket{le="+Inf"} 2
toporouting_phase_topology_build_ms_sum 6
toporouting_phase_topology_build_ms_count 2
# TYPE toporouting_server_jobs_admitted counter
toporouting_server_jobs_admitted 3
# TYPE toporouting_server_queue_depth gauge
toporouting_server_queue_depth 5
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// The exposition must also satisfy our own linter (the CI gate).
	if _, err := ParsePrometheus(strings.NewReader(got)); err != nil {
		t.Fatalf("own exposition fails the linter: %v", err)
	}
}

func TestWritePrometheusNilAndEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil scope: err=%v len=%d", err, buf.Len())
	}
	if _, err := ParsePrometheus(strings.NewReader("")); err != nil {
		t.Fatalf("empty exposition rejected: %v", err)
	}
}

func TestLabeledName(t *testing.T) {
	a := LabeledName("http.requests", "endpoint", "/v1/topology", "code", "200")
	b := LabeledName("http.requests", "code", "200", "endpoint", "/v1/topology")
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if want := `http.requests{code="200",endpoint="/v1/topology"}`; a != want {
		t.Fatalf("got %q, want %q", a, want)
	}
	esc := LabeledName("m", "k", "a\"b\\c\nd")
	if want := `m{k="a\"b\\c\nd"}`; esc != want {
		t.Fatalf("escaping: got %q, want %q", esc, want)
	}
}

func TestParsePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":     "9bad_name 1\n",
		"bad label name":      `m{9l="v"} 1` + "\n",
		"unterminated value":  `m{l="v} 1` + "\n",
		"bad float":           "m notanumber\n",
		"unknown type":        "# TYPE m widget\nm 1\n",
		"double type":         "# TYPE m counter\n# TYPE m counter\nm 1\n",
		"missing value":       "m\n",
		"bucket not monotone": "# TYPE m histogram\nm_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\nm_bucket{le=\"+Inf\"} 5\nm_count 5\nm_sum 1\n",
		"missing inf bucket":  "# TYPE m histogram\nm_bucket{le=\"1\"} 5\nm_count 5\nm_sum 1\n",
		"inf != count":        "# TYPE m histogram\nm_bucket{le=\"1\"} 5\nm_bucket{le=\"+Inf\"} 5\nm_count 7\nm_sum 1\n",
	}
	for name, in := range cases {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("%s: parser accepted %q", name, in)
		}
	}
}

func TestParsePrometheusAccepts(t *testing.T) {
	in := "# HELP m a comment\n# TYPE m gauge\n" +
		`m{a="x\"y",b="z"} +Inf 1700000000000` + "\n" +
		`m{endpoint="/v1/sessions/{id}"} 2` + "\n" + // braces inside a quoted value
		"m2 NaN\nm3 -1.5e3\n"
	samples, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(samples))
	}
	if samples[0].Labels["a"] != `x"y` {
		t.Fatalf("unescaped label = %q", samples[0].Labels["a"])
	}
	if samples[1].Labels["endpoint"] != "/v1/sessions/{id}" {
		t.Fatalf("braced label value = %q", samples[1].Labels["endpoint"])
	}
}

func TestBucketHistogramConcurrent(t *testing.T) {
	tel := New(nil)
	const goroutines, each = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Every goroutine races the registry lookup and the observes.
			h := tel.BucketHistogram("conc.ms", []float64{1, 10, 100})
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 200))
			}
		}(g)
	}
	wg.Wait()
	s := tel.BucketHistogram("conc.ms", nil).Snapshot()
	const total = goroutines * each
	if s.Count != total {
		t.Fatalf("count %d, want %d", s.Count, total)
	}
	if last := s.Cumulative[len(s.Cumulative)-1]; last != total {
		t.Fatalf("+Inf cumulative %d, want %d", last, total)
	}
	// Per goroutine: i%200 ≤ 1 for i ∈ {0,1,200,201,...} → 2 per 200 → 10 per 1000.
	if s.Cumulative[0] != goroutines*10 {
		t.Fatalf("≤1 bucket %d, want %d", s.Cumulative[0], goroutines*10)
	}
	var wantSum float64
	for i := 0; i < each; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= goroutines
	if s.Sum != wantSum {
		t.Fatalf("sum %v, want %v", s.Sum, wantSum)
	}
}
