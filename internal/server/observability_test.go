package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"toporouting"
	"toporouting/internal/telemetry"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRetryAfterDerived pins the Retry-After computation: with the run-time
// EWMA seeded and the queue full, the advertised backoff must reflect
// queued-work ÷ drain-rate, clamped to [1, 30].
func TestRetryAfterDerived(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	// Before any job finishes there is no drain estimate: floor of 1.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold retryAfterSeconds = %d, want 1", got)
	}

	release := make(chan struct{})
	defer close(release)
	running := blockJob(t, s, release) // occupies the worker
	waitFor(t, time.Second, func() bool { return running.currentStatus() == statusRunning })
	blockJob(t, s, release) // occupies the queue slot

	// Jobs take ~4 s each, 1 queued + the retrier, 1 worker → ~8 s.
	s.noteRunMS(4000)
	if got := s.retryAfterSeconds(); got != 8 {
		t.Fatalf("retryAfterSeconds = %d, want 8 (4 s × 2 jobs / 1 worker)", got)
	}
	resp, body := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "8" {
		t.Fatalf("Retry-After = %q, want 8", ra)
	}

	// Pathological estimates clamp instead of parking clients for minutes.
	s.noteRunMS(1e9)
	if got := s.retryAfterSeconds(); got != 30 {
		t.Fatalf("clamped retryAfterSeconds = %d, want 30", got)
	}
}

// TestEWMAConvergence checks noteRunMS tracks a shifted load level.
func TestEWMAConvergence(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	for i := 0; i < 50; i++ {
		s.noteRunMS(100)
	}
	for i := 0; i < 50; i++ {
		s.noteRunMS(2000)
	}
	if got := s.retryAfterSeconds(); got != 2 {
		t.Fatalf("after shifting to 2 s jobs, retryAfterSeconds = %d, want 2", got)
	}
}

// TestTracesEndpoint drives one traced topology request end to end and
// asserts the span tree at /debug/traces: ≥4 spans, one root, every parent
// resolvable, and the build phases nested under the job run.
func TestTracesEndpoint(t *testing.T) {
	tel := toporouting.NewTelemetry()
	tracer := toporouting.NewTracer(tel, toporouting.NewTraceRing(8, 8))
	_, ts := newTestServer(t, Config{Telemetry: tel, Tracer: tracer})

	resp, body := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 40})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("missing X-Request-ID")
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("missing X-Trace-ID")
	}

	r, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tr tracesResponse
	if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Seen < 1 || len(tr.Traces) < 1 {
		t.Fatalf("traces endpoint: seen=%d retained=%d", tr.Seen, len(tr.Traces))
	}
	var found *toporouting.Trace
	for _, c := range tr.Traces {
		if c.ID == traceID {
			found = c
		}
	}
	if found == nil {
		t.Fatalf("trace %s not retained (have %d traces)", traceID, len(tr.Traces))
	}
	if found.Root != "POST /v1/topology" {
		t.Fatalf("root = %q", found.Root)
	}
	if len(found.Spans) < 4 {
		t.Fatalf("trace has %d spans, want ≥ 4: %+v", len(found.Spans), found.Spans)
	}
	byID := map[uint64]telemetry.SpanRecord{}
	names := map[string]telemetry.SpanRecord{}
	roots := 0
	for _, sp := range found.Spans {
		byID[sp.Span] = sp
		names[sp.Name] = sp
		if sp.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want 1", roots)
	}
	for _, sp := range found.Spans {
		if sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; !ok {
				t.Fatalf("span %q has dangling parent %d", sp.Name, sp.Parent)
			}
		}
	}
	for _, want := range []string{"server.decode", "server.digest", "admission.wait", "job.run", "unitdisk.critical_range", "topology.build", "topology.phase1", "topology.phase2", "encode"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("span %q missing from trace: %+v", want, found.Spans)
		}
	}
	// Request ingest (body read and decode) and the cache key are their
	// own layers, children of the request root.
	for _, child := range []string{"server.decode", "server.digest"} {
		if names[child].Parent != names["POST /v1/topology"].Span {
			t.Fatalf("%s is not a child of the request root", child)
		}
	}
	// Build phases nest under the build; the build and the default-range
	// choice nest under the run.
	if names["topology.phase1"].Parent != names["topology.build"].Span {
		t.Fatal("phase1 is not a child of topology.build")
	}
	for _, child := range []string{"topology.build", "unitdisk.critical_range"} {
		if names[child].Parent != names["job.run"].Span {
			t.Fatalf("%s is not a child of job.run", child)
		}
	}

	// A request with an explicit range skips the range choice.
	resp, body = postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 40, "range": 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology with range: %d %s", resp.StatusCode, body)
	}
	if names := traceSpans(t, ts.URL, resp.Header.Get("X-Trace-ID")); names["unitdisk.critical_range"].Span != 0 {
		t.Fatal("explicit range still traced a critical_range span")
	}
}

// TestSessionCreateTracesRangeChoice: a session created without a range
// traces the range choice as its own span under the job run, and the body
// decode as its own span under the request root.
func TestSessionCreateTracesRangeChoice(t *testing.T) {
	tel := toporouting.NewTelemetry()
	tracer := toporouting.NewTracer(tel, toporouting.NewTraceRing(8, 8))
	_, ts := newTestServer(t, Config{Telemetry: tel, Tracer: tracer})
	resp, body := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"dist": "uniform", "n": 40})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	names := traceSpans(t, ts.URL, resp.Header.Get("X-Trace-ID"))
	rng, run := names["unitdisk.critical_range"], names["job.run"]
	if rng.Span == 0 || run.Span == 0 || rng.Parent != run.Span {
		t.Fatalf("critical_range span %+v is not a child of job.run %+v", rng, run)
	}
	if dec := names["server.decode"]; dec.Span == 0 || dec.Parent != names["POST /v1/sessions"].Span {
		t.Fatalf("server.decode span %+v is not a child of the request root", dec)
	}
}

// traceSpans fetches /debug/traces and returns the spans of trace id by
// name.
func traceSpans(t *testing.T, base, id string) map[string]telemetry.SpanRecord {
	t.Helper()
	if id == "" {
		t.Fatal("missing X-Trace-ID")
	}
	r, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var tr tracesResponse
	if err := json.NewDecoder(r.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	for _, c := range tr.Traces {
		if c.ID == id {
			names := map[string]telemetry.SpanRecord{}
			for _, sp := range c.Spans {
				names[sp.Name] = sp
			}
			return names
		}
	}
	t.Fatalf("trace %s not retained", id)
	return nil
}

// TestMetricsFormats asserts /metrics speaks Prometheus text by default —
// self-lintable, carrying the RED series and scrape-time gauges — and the
// legacy JSON snapshot under ?format=json.
func TestMetricsFormats(t *testing.T) {
	tel := toporouting.NewTelemetry()
	_, ts := newTestServer(t, Config{Telemetry: tel, Workers: 2})
	if resp, body := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 30}); resp.StatusCode != http.StatusOK {
		t.Fatalf("topology: %d %s", resp.StatusCode, body)
	}

	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := telemetry.ParsePrometheus(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("exposition fails our own linter: %v\n%s", err, raw)
	}
	byName := map[string][]telemetry.PromSample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	var reqCount *telemetry.PromSample
	for i, s := range byName["toporouting_http_requests"] {
		if s.Labels["endpoint"] == "/v1/topology" && s.Labels["code"] == "200" {
			reqCount = &byName["toporouting_http_requests"][i]
		}
	}
	if reqCount == nil || reqCount.Value < 1 {
		t.Fatalf("http_requests{/v1/topology,200} missing or zero: %v", byName["toporouting_http_requests"])
	}
	for _, want := range []string{
		"toporouting_http_latency_ms_bucket",
		"toporouting_server_job_run_ms_bucket",
		"toporouting_server_jobs_admitted",
		"toporouting_server_queue_depth",
		"toporouting_server_workers",
		"toporouting_server_workers_busy",
		"toporouting_server_uptime_seconds",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("metric %s missing from exposition", want)
		}
	}
	if got := byName["toporouting_server_workers"]; len(got) == 1 && got[0].Value != 2 {
		t.Errorf("server_workers = %v, want 2", got[0].Value)
	}

	// Legacy JSON view survives under ?format=json.
	jr, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Body.Close()
	var m toporouting.Metrics
	if err := json.NewDecoder(jr.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["server.jobs_admitted"] == 0 {
		t.Fatalf("JSON snapshot missing counters: %+v", m.Counters)
	}
}

// TestJobDurations asserts async job polls expose queue-wait and run
// durations at every lifecycle stage, not only after completion.
func TestJobDurations(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	release := make(chan struct{})
	blocker := blockJob(t, s, release) // hold the only worker
	waitFor(t, time.Second, func() bool { return blocker.currentStatus() == statusRunning })

	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"dist": "uniform", "n": 30, "steps": 5, "async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async simulate: %d %s", resp.StatusCode, body)
	}
	var acc asyncAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}

	poll := func() jobView {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", r.StatusCode)
		}
		var v jobView
		if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	// While queued behind the blocker: a live, growing wait and no run time.
	time.Sleep(20 * time.Millisecond)
	v := poll()
	if v.Status != string(statusQueued) {
		t.Fatalf("status = %q, want queued", v.Status)
	}
	if v.QueuedMS <= 0 || v.RunMS != 0 {
		t.Fatalf("queued job durations = %+v, want live queued_ms and no run_ms", v)
	}
	firstWait := v.QueuedMS
	time.Sleep(20 * time.Millisecond)
	if v2 := poll(); v2.QueuedMS <= firstWait {
		t.Fatalf("queued_ms did not grow: %v then %v", firstWait, v2.QueuedMS)
	}

	close(release) // let the blocker finish; the async job runs next
	waitFor(t, 5*time.Second, func() bool { return poll().Status == string(statusDone) })
	v = poll()
	if v.QueuedMS <= 0 || v.RunMS <= 0 {
		t.Fatalf("finished job durations = %+v, want both positive", v)
	}
	if v.Result == nil {
		t.Fatalf("finished job missing result: %+v", v)
	}
}

// TestRequestLogging asserts one structured line per /v1 request with the
// ids that tie logs to traces.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tel := toporouting.NewTelemetry()
	tracer := toporouting.NewTracer(tel, toporouting.NewTraceRing(4, 4))
	_, ts := newTestServer(t, Config{Telemetry: tel, Tracer: tracer, Logger: logger})

	resp, _ := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology: %d", resp.StatusCode)
	}
	line := strings.TrimSpace(buf.String())
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("log line is not JSON: %q", line)
	}
	if entry["msg"] != "request" || entry["endpoint"] != "/v1/topology" {
		t.Fatalf("unexpected log entry: %v", entry)
	}
	if entry["request_id"] != resp.Header.Get("X-Request-ID") {
		t.Fatalf("request_id %v != header %q", entry["request_id"], resp.Header.Get("X-Request-ID"))
	}
	if entry["trace_id"] != resp.Header.Get("X-Trace-ID") {
		t.Fatalf("trace_id %v != header %q", entry["trace_id"], resp.Header.Get("X-Trace-ID"))
	}
	if status, _ := entry["status"].(float64); int(status) != http.StatusOK {
		t.Fatalf("logged status %v", entry["status"])
	}
	if _, ok := entry["dur_ms"].(float64); !ok {
		t.Fatalf("missing dur_ms: %v", entry)
	}
}
