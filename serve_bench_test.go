// Serving-layer benchmark. This file is in the external test package
// (package toporouting_test) because internal/server imports the root
// toporouting facade — importing it from the internal test package
// (bench_test.go) would be an import cycle.
package toporouting_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"toporouting"
	"toporouting/internal/server"
	"toporouting/internal/session"
)

func newBenchServer(b *testing.B, cfg server.Config) (*server.Server, *httptest.Server) {
	b.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	})
	return s, ts
}

func benchServeTopology(b *testing.B, cfg server.Config, body []byte) {
	b.Helper()
	_, ts := newBenchServer(b, cfg)
	url := ts.URL + "/v1/topology"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}

// BenchmarkServeTopology measures one synchronous topology build through
// the full serving path: HTTP round-trip, pooled JSON decode, admission
// queue, worker-pool execution, arena-backed ΘALG build, streaming JSON
// encode — with tracing off (nil Tracer) and the response cache disabled,
// so every iteration pays the full cold path. It is the end-to-end latency
// floor of the daemon's hot endpoint, the zero-overhead reference the
// Traced variant is gated against, and the denominator of the CacheHit
// ratio gate.
func BenchmarkServeTopology(b *testing.B) {
	benchServeTopology(b, server.Config{Workers: 1, CacheBytes: -1}, []byte(`{"dist":"uniform","n":200,"seed":1}`))
}

// BenchmarkServeTopologyCacheHit repeats one request against the default
// digest-keyed response cache: after the first build, every iteration is a
// digest + LRU lookup + memoized byte write. Gated against the cold path
// (bench.sh ratio: CacheHit/ServeTopology ≤ 0.1).
func BenchmarkServeTopologyCacheHit(b *testing.B) {
	benchServeTopology(b, server.Config{Workers: 1}, []byte(`{"dist":"uniform","n":200,"seed":1}`))
}

// BenchmarkServeTopologyN2000 is the rebuild-per-request cost at n=2000 —
// the stateless baseline the hosted-session event path is gated against
// (bench.sh ratio: SessionApplyEvent/ServeTopologyN2000 ≤ 0.2, i.e. the
// session path must stay at least 5x faster than rebuilding).
func BenchmarkServeTopologyN2000(b *testing.B) {
	benchServeTopology(b, server.Config{Workers: 1, CacheBytes: -1}, []byte(`{"dist":"uniform","n":2000,"seed":1}`))
}

// BenchmarkServeTopologyMetrics turns on the metrics scope (counters,
// gauges, histograms threaded through the build) but not span tracing:
// the cost of the pre-existing instrumentation, and the reference the
// Traced variant is measured against. Cache off: this measures the cold
// path's instrumentation, not cache lookups.
func BenchmarkServeTopologyMetrics(b *testing.B) {
	benchServeTopology(b, server.Config{
		Workers:    1,
		CacheBytes: -1,
		Telemetry:  toporouting.NewTelemetry(),
	}, []byte(`{"dist":"uniform","n":200,"seed":1}`))
}

// BenchmarkServeTopologyTraced additionally mints one span tree per
// request — root span, admission wait, job run, build phases, encode —
// with ring retention. It differs from BenchmarkServeTopologyMetrics only
// in the Tracer, so the gate's ratio bound (scripts/bench.sh, -ratio
// Traced/Metrics ≤ 1.05) isolates and pins the span-tracing overhead,
// keeping it cheap enough to leave on in production.
func BenchmarkServeTopologyTraced(b *testing.B) {
	tel := toporouting.NewTelemetry()
	benchServeTopology(b, server.Config{
		Workers:    1,
		CacheBytes: -1,
		Telemetry:  tel,
		Tracer:     toporouting.NewTracer(tel, toporouting.NewTraceRing(32, 64)),
	}, []byte(`{"dist":"uniform","n":200,"seed":1}`))
}

// benchCreateSession hosts an n=2000 session over the wire and returns its
// id. Event rate limiting is disabled — the benchmarks measure the apply
// and delta paths, not the token bucket.
func benchCreateSession(b *testing.B, ts *httptest.Server) string {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		bytes.NewReader([]byte(`{"dist":"uniform","n":2000,"seed":1}`)))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		b.Fatalf("create session: status %d, body %s", resp.StatusCode, raw)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		b.Fatal(err)
	}
	return created.ID
}

// postEvents streams one NDJSON batch and drains the echoed results.
func postEvents(b *testing.B, url string, batch []byte) {
	b.Helper()
	resp, err := http.Post(url, "application/x-ndjson", bytes.NewReader(batch))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		b.Fatalf("events: status %d, body %s", resp.StatusCode, raw)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
}

// BenchmarkSessionApplyEvent is per-event cost of the hosted churn path at
// n=2000: NDJSON decode, token check, single-writer change-driven repair, delta
// recording, result echo — batched 200 events per request so the HTTP
// round-trip amortizes the way a real event stream does. Gated against
// BenchmarkServeTopologyN2000 (must stay ≥5x faster than rebuilding).
func BenchmarkSessionApplyEvent(b *testing.B) {
	_, ts := newBenchServer(b, server.Config{
		Workers:  1,
		Sessions: session.Config{EventRate: -1, IdleTTL: -1},
	})
	id := benchCreateSession(b, ts)
	url := ts.URL + "/v1/sessions/" + id + "/events"

	// Pre-encode one NDJSON line per event; node ids stay valid because
	// moves never change the id space. Batches are assembled client-side
	// from exactly the lines needed, so the op count matches b.N and
	// ns/op is a true per-event figure.
	rng := rand.New(rand.NewSource(7))
	const batchSize = 200
	lines := make([][]byte, 1024)
	for i := range lines {
		line, err := json.Marshal(session.Event{Op: "move", Node: rng.Intn(2000), X: rng.Float64(), Y: rng.Float64()})
		if err != nil {
			b.Fatal(err)
		}
		lines[i] = append(line, '\n')
	}
	var batch bytes.Buffer
	send := func(from, count int) {
		batch.Reset()
		for i := 0; i < count; i++ {
			batch.Write(lines[(from+i)%len(lines)])
		}
		postEvents(b, url, batch.Bytes())
	}
	send(0, batchSize) // warm-up: encode pools, ring, connection reuse
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		n := batchSize
		if rem := b.N - sent; rem < n {
			n = rem
		}
		send(sent, n)
		sent += n
	}
}

// BenchmarkSessionDelta is the conditional-GET delta path: a reader two
// generations behind fetches the compact records and the new ETag. This is
// the steady-state poll a session client rides between snapshots.
func BenchmarkSessionDelta(b *testing.B) {
	_, ts := newBenchServer(b, server.Config{
		Workers:  1,
		Sessions: session.Config{EventRate: -1, IdleTTL: -1},
	})
	id := benchCreateSession(b, ts)

	rng := rand.New(rand.NewSource(9))
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < 8; i++ {
		_ = enc.Encode(session.Event{Op: "move", Node: rng.Intn(2000), X: rng.Float64(), Y: rng.Float64()})
	}
	postEvents(b, ts.URL+"/v1/sessions/"+id+"/events", buf.Bytes())

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+id, nil)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("If-None-Match", "6") // two generations behind gen 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
}
