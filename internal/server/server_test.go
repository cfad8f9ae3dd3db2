package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"toporouting"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// blockJob admits a job that parks until release is closed (or its context
// dies), deterministically occupying a worker slot or queue position.
func blockJob(t *testing.T, s *Server, release <-chan struct{}) *job {
	t.Helper()
	j := s.newJob("block", context.Background(), 0, func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err := s.admit(j); err != nil {
		t.Fatalf("admit blocking job: %v", err)
	}
	return j
}

func TestTopologyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/topology", map[string]any{
		"dist": "uniform", "n": 80, "seed": 3, "include_edges": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var tr topologyResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.N != 80 || tr.NumEdges == 0 || len(tr.Edges) != tr.NumEdges {
		t.Fatalf("implausible topology response: %+v", tr)
	}
	if tr.MaxDegree > tr.DegreeBound {
		t.Fatalf("degree bound violated: max %d > bound %d", tr.MaxDegree, tr.DegreeBound)
	}
	if !tr.Connected {
		t.Fatal("uniform-80 topology should be connected")
	}
}

func TestTopologyModesAgree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	edges := func(mode string) [][2]int {
		req := map[string]any{"mode": mode, "dist": "uniform", "n": 60, "seed": 7, "include_edges": true}
		resp, body := postJSON(t, ts.URL+"/v1/topology", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %s: status %d, body %s", mode, resp.StatusCode, body)
		}
		var tr topologyResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if mode == "distributed" {
			if tr.DistReport == nil || !tr.DistReport.Converged {
				t.Fatalf("fault-free distributed build did not converge: %+v", tr.DistReport)
			}
		} else if tr.Mode != "centralized" {
			t.Fatalf("mode %q echoed as %q, want centralized", mode, tr.Mode)
		}
		return tr.Edges
	}
	want := edges("centralized")
	for _, mode := range []string{"", "parallel", "tiled", "distributed"} {
		got := edges(mode)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("mode %s edges differ from centralized", mode)
		}
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"dist": "uniform", "n": 60, "steps": 200,
		"router":  map[string]any{"buffer": 60},
		"traffic": map[string]any{"rate": 2, "sinks": 2},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var sr simulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || sr.Results[0].Accepted == 0 {
		t.Fatalf("implausible simulate response: %+v", sr)
	}
}

func TestInterferenceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/interference", map[string]any{
		"dist": "uniform", "n": 60, "include_transmission": true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var ir interferenceResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Interference <= 0 || ir.TransmissionInterference < ir.Interference {
		t.Fatalf("implausible interference response: %+v", ir)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodes: 100, MaxSteps: 1000})
	cases := []struct {
		name, path string
		body       any
	}{
		{"no points", "/v1/topology", map[string]any{}},
		{"n too large", "/v1/topology", map[string]any{"n": 101}},
		{"bad mode", "/v1/topology", map[string]any{"n": 10, "mode": "quantum"}},
		{"non-finite point", "/v1/topology", map[string]any{"points": [][2]any{{"NaN", 1}, {0, 0}}}},
		{"no steps", "/v1/simulate", map[string]any{"n": 10}},
		{"steps over cap", "/v1/simulate", map[string]any{"n": 10, "steps": 100, "runs": 50}},
		{"bad mac", "/v1/simulate", map[string]any{"n": 10, "steps": 5, "mac": "psychic"}},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", c.name, resp.StatusCode, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error envelope in %s", c.name, body)
		}
	}
}

// TestPanicRecovery feeds the topology builder duplicate positions (which
// panic inside ΘALG) and asserts the worker survives: the request fails
// with 500 and the server still serves afterwards.
func TestPanicRecovery(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/topology", map[string]any{
		"points": [][2]float64{{0, 0}, {0, 0}, {1, 1}},
	})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("duplicate points: status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "panicked") {
		t.Fatalf("error should mention the panic, got %s", body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: status %d", resp.StatusCode)
	}
}

// TestBackpressure fills the single worker and the one queue slot with
// blocking jobs, then asserts the next request is shed with 429 and a
// Retry-After header rather than queued into unbounded latency.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	running := blockJob(t, s, release) // occupies the worker
	waitFor(t, time.Second, func() bool {
		running.mu.Lock()
		defer running.mu.Unlock()
		return running.status == statusRunning
	})
	queued := blockJob(t, s, release) // occupies the queue slot
	_ = queued

	resp, body := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	// Health stays green under shed load; readiness too (shedding ≠ dying).
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz under load: %v %v", hr, err)
	}
	hr.Body.Close()
}

// TestDisconnectCancelsJob verifies deadline propagation: a client that
// abandons a synchronous simulation frees its worker within one step.
func TestDisconnectCancelsJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxSteps: 1 << 40})
	body, _ := json.Marshal(map[string]any{
		"dist": "uniform", "n": 40, "steps": 1 << 30, // only cancellation can end this
		"timeout_ms": 300_000,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 1 })
	cancel() // client walks away
	if err := <-errCh; err == nil {
		t.Fatal("request should have failed with context.Canceled")
	}
	// The sim checks ctx once per step; steps on 40 nodes are far under a
	// second, so the worker must free up promptly.
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 0 })
}

// TestRequestTimeout asserts a request-scoped deadline ends a simulation
// that would otherwise run forever, answering 504.
func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSteps: 1 << 40})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"dist": "uniform", "n": 40, "steps": 1 << 30, "timeout_ms": 200,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"dist": "uniform", "n": 40, "steps": 50, "async": true, "runs": 2,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (body %s)", resp.StatusCode, body)
	}
	var acc asyncAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	var view jobView
	waitFor(t, 10*time.Second, func() bool {
		r, err := http.Get(ts.URL + acc.Poll)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		return view.Status == string(statusDone)
	})
	res, ok := view.Result.(map[string]any)
	if !ok {
		t.Fatalf("job result is %T, want object", view.Result)
	}
	if results, ok := res["results"].([]any); !ok || len(results) != 2 {
		t.Fatalf("want 2 Monte-Carlo results, got %v", res["results"])
	}

	r, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", r.StatusCode)
	}
}

// TestGracefulDrain starts long-running work, then shuts down with a grace
// period too short for it to finish voluntarily: Shutdown must flip
// readiness, refuse new work with 503, cancel the stragglers through their
// contexts, and return with nothing in flight.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MaxSteps: 1 << 40})
	// Two async simulations that only cancellation can end.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
			"dist": "uniform", "n": 40, "steps": 1 << 30, "async": true,
			"sim_seed": i, "timeout_ms": 300_000,
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submit: status %d, body %s", resp.StatusCode, body)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 2 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Readiness flips as soon as the drain starts.
	waitFor(t, 2*time.Second, func() bool {
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		r.Body.Close()
		return r.StatusCode == http.StatusServiceUnavailable
	})
	// New work is refused while draining.
	resp, _ := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", resp.StatusCode)
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Shutdown hung: cancellation did not stop the jobs")
	}
	if n := s.InFlight(); n != 0 {
		t.Fatalf("%d jobs still in flight after drain", n)
	}
}

// TestCleanDrainUnderLoad shuts down while short synchronous requests are
// in flight with a generous grace period: every admitted request must
// complete normally (drain means "finish what you started", not "drop it").
func TestCleanDrainUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	var wg sync.WaitGroup
	codes := make([]int, 16)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
				// Big enough that the batch is still in flight when the
				// drain starts, even on a loaded machine.
				"dist": "uniform", "n": 60, "steps": 2000, "sim_seed": i,
			})
			codes[i] = resp.StatusCode
		}(i)
	}
	waitFor(t, 10*time.Second, func() bool { return s.InFlight() > 0 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("clean drain failed: %v", err)
	}
	wg.Wait()
	for i, c := range codes {
		// Requests admitted before the drain finish with 200; ones that
		// raced admission see the drain 503. Nothing may 5xx otherwise.
		if c != http.StatusOK && c != http.StatusServiceUnavailable {
			t.Errorf("request %d: status %d, want 200 or 503", i, c)
		}
	}
	if s.InFlight() != 0 {
		t.Fatalf("%d jobs in flight after clean drain", s.InFlight())
	}
}

func TestHealthMetricsEndpoints(t *testing.T) {
	tel := toporouting.NewTelemetry()
	_, ts := newTestServer(t, Config{Telemetry: tel})
	if resp, _ := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20}); resp.StatusCode != http.StatusOK {
		t.Fatalf("topology: %d", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/debug/vars"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, r.StatusCode)
		}
	}
	var m toporouting.Metrics
	r, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["server.jobs_admitted"] == 0 || m.Counters["server.jobs_finished"] == 0 {
		t.Fatalf("server counters missing from metrics snapshot: %+v", m.Counters)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}
