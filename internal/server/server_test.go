package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"toporouting"
	"toporouting/internal/session"
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

// blockJob starts an async job that parks until release is closed (or its
// context dies), deterministically occupying a slot or a waiting place.
func blockJob(t *testing.T, s *Server, release <-chan struct{}) *job {
	t.Helper()
	j, err := s.startJob("block", 0, func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "released", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
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

// TestBadRequests runs with the response cache on and off: the stateless
// endpoints materialize positions only once the cache misses, so an
// unknown distribution is found on the build path in one case and before
// the build in the other, and must answer 400 in both.
func TestBadRequests(t *testing.T) {
	cases := []struct {
		name, path string
		body       any
	}{
		{"no points", "/v1/topology", map[string]any{}},
		{"n too large", "/v1/topology", map[string]any{"n": 101}},
		{"bad mode", "/v1/topology", map[string]any{"n": 10, "mode": "quantum"}},
		{"non-finite point", "/v1/topology", map[string]any{"points": [][2]any{{"NaN", 1}, {0, 0}}}},
		{"points over cap", "/v1/interference", map[string]any{"points": make([][2]float64, 101)}},
		{"unknown dist", "/v1/topology", map[string]any{"dist": "spiral", "n": 10}},
		{"unknown dist", "/v1/interference", map[string]any{"dist": "spiral", "n": 10}},
		{"no steps", "/v1/simulate", map[string]any{"n": 10}},
		{"steps over cap", "/v1/simulate", map[string]any{"n": 10, "steps": 100, "runs": 50}},
		{"bad mac", "/v1/simulate", map[string]any{"n": 10, "steps": 5, "mac": "psychic"}},
	}
	for _, cacheBytes := range []int64{0, -1} {
		_, ts := newTestServer(t, Config{MaxNodes: 100, MaxSteps: 1000, CacheBytes: cacheBytes})
		for _, c := range cases {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("cache %d, %s %s: status = %d, want 400 (body %s)", cacheBytes, c.path, c.name, resp.StatusCode, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("cache %d, %s %s: no error envelope in %s", cacheBytes, c.path, c.name, body)
			}
		}
	}
}

// TestPanicRecovery admits a job whose body panics and asserts the worker
// survives: the job fails with a "job panicked" error and the server still
// serves afterwards.
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_, err := s.runJob(context.Background(), "boom", 0, func(context.Context) (any, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking job: err = %v, want a job-panicked error", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/topology", map[string]any{"dist": "uniform", "n": 20})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive the panic: status %d", resp.StatusCode)
	}
}

// TestCoincidentPoints400 pins that points repeating a position, and every
// other input ΘALG's resolver or the layers above it reject, are a client
// error on every endpoint where the field applies: 400 with the rejecting
// layer's message, not a 500 (nor a 200 that silently used a default).
func TestCoincidentPoints400(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	dup := [][2]float64{{0, 0}, {0, 0}, {1, 1}}
	type input struct {
		path string
		body map[string]any
		want string
	}
	cases := []input{
		{"/v1/topology", map[string]any{"points": dup}, "coincident points"},
		{"/v1/topology", map[string]any{"points": dup, "mode": "distributed"}, "coincident points"},
		{"/v1/interference", map[string]any{"points": dup, "workers": 2}, "coincident points"},
		{"/v1/sessions", map[string]any{"points": dup}, "coincident points"},
		{"/v1/simulate", map[string]any{"points": dup, "steps": 4, "churn_every": 2}, "coincident points"},
		{"/v1/topology", map[string]any{"n": 20, "kappa": 1}, "kappa 1 below 2"},
		{"/v1/simulate", map[string]any{"n": 20, "steps": 4, "kappa": 1}, "kappa 1 below 2"},
		{"/v1/topology", map[string]any{"n": 20, "mode": "distributed", "faults": map[string]any{"drop": 2}}, "drop probability 2 outside"},
		{"/v1/simulate", map[string]any{"n": 20, "steps": 4, "faults": map[string]any{"drop": 2}}, "drop probability 2 outside"},
	}
	// The inputs every endpoint takes, on each of them (a Monte-Carlo
	// simulation included).
	endpoints := []struct {
		path  string
		extra map[string]any
	}{
		{"/v1/topology", nil},
		{"/v1/topology", map[string]any{"mode": "distributed"}},
		{"/v1/interference", nil},
		{"/v1/sessions", nil},
		{"/v1/simulate", map[string]any{"steps": 4}},
		{"/v1/simulate", map[string]any{"steps": 4, "runs": 2}},
	}
	for _, in := range []struct {
		body map[string]any
		want string
	}{
		{map[string]any{"n": 20, "theta": 2}, "theta 2 outside (0, π/3]"},
		{map[string]any{"n": 20, "theta": -0.5}, "theta -0.5 outside (0, π/3]"},
		{map[string]any{"n": 20, "range": -1}, "range -1 must be positive"},
		{map[string]any{"points": [][2]float64{{0.5, 0.5}}}, "need at least two points"},
		{map[string]any{"dist": "spiral", "n": 20}, "unknown distribution"},
	} {
		for _, ep := range endpoints {
			body := maps.Clone(in.body)
			maps.Copy(body, ep.extra)
			cases = append(cases, input{ep.path, body, in.want})
		}
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %v: status = %d, want 400 (body %s)", c.path, c.body, resp.StatusCode, body)
			continue
		}
		if !strings.Contains(string(body), c.want) {
			t.Errorf("%s %v: error should say %q, got %s", c.path, c.body, c.want, body)
		}
	}

	// 50 000 copies of one point, at the node cap, are rejected before the
	// default range's spanning tree, which they would otherwise pay in
	// full (≈ 0.65 s on a 2-vCPU host).
	copies := make([][2]float64, 50000)
	for i := range copies {
		copies[i] = [2]float64{0.5, 0.5}
	}
	for _, path := range []string{"/v1/topology", "/v1/sessions", "/v1/simulate"} {
		t0 := time.Now()
		resp, body := postJSON(t, ts.URL+path, map[string]any{"points": copies, "steps": 4})
		elapsed := time.Since(t0)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "coincident points") {
			t.Fatalf("%s, 50 000 copies: %d %s", path, resp.StatusCode, body)
		}
		t.Logf("%s: 50 000 copies of one point answered 400 in %v", path, elapsed)
	}
}

// TestClampWorkers pins the cap on a request's workers field: counts at or
// below the limit (including 0, the sequential default) pass through, and
// larger ones are cut to the limit.
func TestClampWorkers(t *testing.T) {
	for _, c := range []struct{ workers, limit, want int }{
		{0, 4, 0}, {-3, 4, -3}, {1, 4, 1}, {4, 4, 4}, {5, 4, 4}, {1 << 30, 2, 2},
	} {
		if got := clampWorkers(c.workers, c.limit); got != c.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", c.workers, c.limit, got, c.want)
		}
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

// TestNewStartsNoGoroutine pins that admission is a semaphore, not a pool:
// building a server with eight slots (and no session sweeper) starts no
// goroutine.
func TestNewStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Workers: 8, Sessions: session.Config{IdleTTL: -1}})
	after := runtime.NumGoroutine()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after > before {
		t.Fatalf("New started %d goroutines, want none", after-before)
	}
}

// TestAbandonedWaiterLeaves pins that a synchronous request whose client
// leaves while it waits for a slot gives its waiting place back at once,
// instead of holding it until a slot frees: the next request is admitted,
// not shed.
func TestAbandonedWaiterLeaves(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()
	running := blockJob(t, s, release) // holds the only slot
	waitFor(t, time.Second, func() bool { return running.currentStatus() == statusRunning })

	post := func(ctx context.Context, seed int) (int, error) {
		body, _ := json.Marshal(map[string]any{"dist": "uniform", "n": 20, "seed": seed})
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/topology", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := post(ctx, 1)
		abandoned <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 2 }) // waiting behind the blocker
	cancel()
	if err := <-abandoned; err == nil {
		t.Fatal("abandoned request should have failed with context.Canceled")
	}
	waitFor(t, time.Second, func() bool { return s.InFlight() == 1 })

	next := make(chan int, 1)
	go func() {
		code, err := post(context.Background(), 2)
		if err != nil {
			t.Error(err)
		}
		next <- code
	}()
	waitFor(t, 5*time.Second, func() bool { return s.InFlight() == 2 || len(next) > 0 })
	free()
	if code := <-next; code != http.StatusOK {
		t.Fatalf("request after the abandoned one: status %d, want 200", code)
	}
}

// TestSlotsBoundConcurrency hammers admission from many goroutines: no
// more than Workers jobs ever run at once, every call is either run or
// shed, and the slots and waiting places all come back.
func TestSlotsBoundConcurrency(t *testing.T) {
	const workers, callers = 2, 24
	s := New(Config{Workers: workers, QueueDepth: 4, Sessions: session.Config{IdleTTL: -1}})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	var (
		mu            sync.Mutex
		running, peak int
		ran, shed     atomic.Int64
		wg            sync.WaitGroup
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.runJob(context.Background(), "probe", 0, func(context.Context) (any, error) {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				running--
				mu.Unlock()
				return nil, nil
			})
			switch {
			case err == nil:
				ran.Add(1)
			case errors.Is(err, errQueueFull):
				shed.Add(1)
			default:
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak > workers {
		t.Fatalf("%d jobs ran at once, want at most %d", peak, workers)
	}
	if ran.Load() == 0 || ran.Load()+shed.Load() != callers {
		t.Fatalf("ran %d + shed %d, want %d calls with at least one run", ran.Load(), shed.Load(), callers)
	}
	if s.InFlight() != 0 || s.waiting.Load() != 0 || len(s.slots) != 0 {
		t.Fatalf("after the calls: in flight %d, waiting %d, slots held %d, want 0", s.InFlight(), s.waiting.Load(), len(s.slots))
	}
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
