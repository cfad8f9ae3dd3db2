package main

import (
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {0.99, 9.91}, {1, 10},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0.5); !math.IsInf(got, 1) {
		t.Errorf("quantile straddling +Inf = %v, want +Inf", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
}

// TestSummarizeCountsFailures checks the report math: 304 is a success,
// 429, other 4xx, 5xx, transport errors (status 0) and echoed event errors
// are failures, and a failure counts as +Inf latency.
func TestSummarizeCountsFailures(t *testing.T) {
	var ss []sample
	for i := 1; i <= 94; i++ {
		ss = append(ss, sample{outcome: outcome{status: 200, bytes: 10}, latMS: float64(i)})
	}
	ss = append(ss,
		sample{outcome: outcome{status: 304}, latMS: 0.5},
		sample{outcome: outcome{status: 429}, latMS: 1},
		sample{outcome: outcome{status: 404}, latMS: 1},
		sample{outcome: outcome{status: 503}, latMS: 1},
		sample{outcome: outcome{status: 0}, latMS: 1},
		sample{outcome: outcome{status: 200, eventErr: true}, latMS: 1},
	)
	s := summarize(phase{samples: ss, elapsed: 2 * time.Second})
	if s.attempted != 100 || s.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 100 and 5", s.attempted, s.failed)
	}
	if s.bytes != 940 {
		t.Errorf("bytes = %d, want 940", s.bytes)
	}
	// Sorted: 0.5, 1..94, then five +Inf. The median sits between ranks 49
	// and 50 (0-based): 49 and 50 → 49.5.
	if s.p50 != 49.5 {
		t.Errorf("p50 = %v, want 49.5", s.p50)
	}
	if !math.IsInf(s.p99, 1) {
		t.Errorf("p99 = %v, want +Inf with 5%% failed", s.p99)
	}
}

// TestTailWindows checks that p95 is the median over windows of at least
// tailWindow requests, so one burst of slow requests moves one window.
func TestTailWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var ss []sample
	for i := 0; i < 3*tailWindow; i++ {
		lat := 1.0
		if i >= tailWindow && i < tailWindow+tailWindow/10 {
			lat = 100 // a burst inside the second window
		}
		ss = append(ss, sample{outcome: outcome{status: 200}, latMS: lat, end: t0.Add(time.Duration(i) * time.Millisecond)})
	}
	s := summarize(phase{samples: ss})
	if s.p95 != 1 {
		t.Errorf("windowed p95 = %v, want 1: the burst fills one window's tail only", s.p95)
	}
	if s.p99 != 100 {
		t.Errorf("whole-phase p99 = %v, want 100", s.p99)
	}
	// With fewer than two windows the p95 is the whole phase's.
	s = summarize(phase{samples: ss[tailWindow/2 : tailWindow+tailWindow/2]})
	if s.p95 != 100 {
		t.Errorf("single-window p95 = %v, want 100", s.p95)
	}
}

func TestWindowRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	marks := []cpuMark{
		{at(0), 0},
		{at(1), 100 * time.Millisecond},   // 10 ok → 10/s, 10 ms/op
		{at(2), 300 * time.Millisecond},   // 20 ok → 20/s, 10 ms/op
		{at(3), 330 * time.Millisecond},   // 30 ok → 30/s, 1 ms/op
		{at(3.1), 400 * time.Millisecond}, // sliver: skipped
	}
	var ss []sample
	add := func(n int, from, to float64, status int) {
		for i := 0; i < n; i++ {
			ss = append(ss, sample{outcome: outcome{status: status}, end: at(from + (to-from)*float64(i+1)/float64(n+1))})
		}
	}
	add(10, 0, 1, 200)
	add(5, 0, 1, 500)
	add(20, 1, 2, 200)
	add(30, 2, 3, 200)
	add(3, 3, 3.1, 200)
	rate, cpu := windowRates(ss, marks)
	if rate != 20 || cpu != 10 {
		t.Errorf("windowRates = %v ops/s, %v ms/op; want medians 20 and 10", rate, cpu)
	}
}

// stubTarget posts to url and returns the status.
type stubTarget struct {
	cl  *http.Client
	url string
}

func (s stubTarget) next() op { return op{} }

func (s stubTarget) do(op) outcome {
	resp, err := s.cl.Get(s.url)
	if err != nil {
		return outcome{}
	}
	resp.Body.Close()
	return outcome{status: resp.StatusCode}
}

// TestOpenLoopTimesFromDueTime stalls the server once for 200 ms. Requests
// due during the stall wait for the one sender, and their latency must
// include that wait, while the scheduler itself stays on time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 20 {
			time.Sleep(200 * time.Millisecond)
		}
	}))
	defer srv.Close()
	tg := stubTarget{cl: newLoadClient(1), url: srv.URL}
	f := startFeed(tg)
	defer f.stop()
	p := runOpen(tg, f, 100, time.Second, 1)
	s := summarize(p)
	if s.attempted != 100 || s.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 100 and 0", s.attempted, s.failed)
	}
	slow := 0
	for _, x := range p.samples {
		if x.latMS >= 100 {
			slow++
		}
	}
	// The stalled request and the ~10 due in the next 100 ms all waited at
	// least 100 ms counted from their due times.
	if slow < 10 {
		t.Errorf("%d requests at ≥100 ms from their due time, want ≥10: the stall was not charged to the requests queued behind it", slow)
	}
	if s.lagP99 > 20 {
		t.Errorf("scheduler lag p99 %.3f ms: the schedule slipped behind the stall", s.lagP99)
	}
}

// TestClosedLoopBoundsConnections checks that the senders never open more
// connections than there are senders.
func TestClosedLoopBoundsConnections(t *testing.T) {
	var mu sync.Mutex
	conns := map[net.Conn]bool{}
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			mu.Lock()
			conns[c] = true
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	const senders = 2
	tg := stubTarget{cl: newLoadClient(senders), url: srv.URL}
	f := startFeed(tg)
	defer f.stop()
	p := runClosed(tg, f, 300*time.Millisecond, senders)
	if s := summarize(p); s.attempted < 20 || s.failed != 0 {
		t.Fatalf("attempted %d failed %d", s.attempted, s.failed)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) > senders {
		t.Errorf("%d connections opened by %d senders", len(conns), senders)
	}
}
