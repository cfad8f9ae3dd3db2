package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"toporouting/internal/cluster"
	"toporouting/internal/session"
)

// TestClusterFailoverOverHTTP drives the sharded session layer end to end
// through the HTTP surface: sessions spread over three shards, the busiest
// shard is killed through the fault-injection endpoint, and every session
// must still be served — at or past its last acked generation — from its
// new home.
func TestClusterFailoverOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3, Replicas: 1, Sessions: session.Config{EventRate: -1}})

	type hosted struct {
		tenant, id string
		gen        int64
	}
	var sessions []hosted
	for i := 0; i < 6; i++ {
		tn := fmt.Sprintf("t-%d", i)
		created := createSession(t, ts.URL, tn, map[string]any{"dist": "uniform", "n": 60, "seed": i})
		rng := rand.New(rand.NewSource(int64(40 + i)))
		events := make([]session.Event, 12)
		for j := range events {
			events[j] = session.Event{Op: "move", Node: rng.Intn(60), X: rng.Float64(), Y: rng.Float64()}
		}
		results := streamEvents(t, ts.URL, tn, created.ID, events)
		for j, res := range results {
			if res.Err != "" {
				t.Fatalf("tenant %s event %d rejected: %s", tn, j, res.Err)
			}
		}
		sessions = append(sessions, hosted{tn, created.ID, results[len(results)-1].Gen})
	}

	status := func() cluster.Status {
		resp := sessionRequest(t, http.MethodGet, ts.URL+"/debug/cluster", "", nil)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug/cluster: status %d", resp.StatusCode)
		}
		var st cluster.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("debug/cluster decode: %v", err)
		}
		return st
	}
	victim, most := -1, -1
	for _, row := range status().Shards {
		if row.Alive && row.Sessions > most {
			victim, most = row.ID, row.Sessions
		}
	}
	if most < 1 {
		t.Fatal("no shard hosts a session")
	}

	resp := sessionRequest(t, http.MethodPost, fmt.Sprintf("%s/debug/cluster/kill?shard=%d", ts.URL, victim), "", nil)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kill: status %d, body %s", resp.StatusCode, raw)
	}
	var rb cluster.RebalanceStats
	if err := json.Unmarshal(raw, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Lost != 0 || rb.Moved != most {
		t.Fatalf("rebalance = %+v, want moved=%d lost=0", rb, most)
	}

	// Every session survives the failover with its full acked history.
	for _, h := range sessions {
		resp, _ := getSession(t, ts.URL, h.tenant, h.id, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s after failover: status %d", h.tenant, h.id, resp.StatusCode)
		}
		gen, err := strconv.ParseInt(resp.Header.Get("ETag"), 10, 64)
		if err != nil || gen < h.gen {
			t.Fatalf("%s/%s after failover: ETag %q, acked through %d", h.tenant, h.id, resp.Header.Get("ETag"), h.gen)
		}
		if src := resp.Header.Get("X-Session-Source"); src != "primary" && src != "replica" {
			t.Fatalf("X-Session-Source = %q", src)
		}
	}
	if n := func() int {
		alive := 0
		for _, row := range status().Shards {
			if row.Alive {
				alive++
			}
		}
		return alive
	}(); n != 2 {
		t.Fatalf("alive shards after kill = %d, want 2", n)
	}

	// Error surface: a non-integer shard is a 400, a dead shard a 409.
	resp = sessionRequest(t, http.MethodPost, ts.URL+"/debug/cluster/kill?shard=bogus", "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("kill bogus shard: status %d, want 400", resp.StatusCode)
	}
	resp = sessionRequest(t, http.MethodPost, fmt.Sprintf("%s/debug/cluster/kill?shard=%d", ts.URL, victim), "", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("kill dead shard: status %d, want 409", resp.StatusCode)
	}
}

// TestSessionWatchDrainUnderLaggard pins the drain-ordering fix: a watch
// subscriber that stops reading leaves its handler blocked in a kernel-
// buffer write, and without per-write deadlines that single laggard holds
// its connection open past Registry.Close and stalls the whole server
// shutdown. With WatchWriteTimeout set, the write fails within the bound
// and the drain completes while the laggard's socket is still open.
func TestSessionWatchDrainUnderLaggard(t *testing.T) {
	s := New(Config{
		WatchWriteTimeout: 200 * time.Millisecond,
		Sessions:          session.Config{EventRate: -1, DeltaRing: 4096},
	})
	ts := httptest.NewServer(s.Handler())
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 120, "seed": 31})

	// The laggard: a raw TCP watch client with a tiny receive buffer that
	// reads the response prefix (headers + hello) and then goes silent, so
	// the server's delta writes back up into the kernel and block.
	host := strings.TrimPrefix(ts.URL, "http://")
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(1 << 10)
	}
	fmt.Fprintf(conn, "GET /v1/sessions/%s/watch HTTP/1.1\r\nHost: %s\r\nX-Tenant-ID: acme\r\n\r\n", created.ID, host)
	prefix := make([]byte, 256)
	if _, err := io.ReadAtLeast(conn, prefix, 64); err != nil {
		t.Fatalf("watch prefix: %v", err)
	}

	// Pump enough churn to fill the socket buffers behind the silent reader.
	rng := rand.New(rand.NewSource(2))
	for chunk := 0; chunk < 8; chunk++ {
		events := make([]session.Event, 400)
		for i := range events {
			events[i] = session.Event{Op: "move", Node: rng.Intn(120), X: rng.Float64(), Y: rng.Float64()}
		}
		streamEvents(t, ts.URL, "acme", created.ID, events)
	}
	time.Sleep(300 * time.Millisecond) // let the watch handler reach its blocked write

	// Drain with the laggard's connection still open. ts.Close waits for
	// every in-flight handler, so a write blocked without a deadline turns
	// this into a hang.
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("drain stalled behind a laggard watch subscriber")
	}
}

// TestReplicaWatchByeAtEviction pins that an SSE watch a mirror serves
// ends with a bye when the idle sweeper evicts its session, as a
// primary-served watch does.
func TestReplicaWatchByeAtEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3, Replicas: 1, Sessions: session.Config{EventRate: -1, IdleTTL: 40 * time.Millisecond}})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 60, "seed": 3})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant-ID", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	if src := resp.Header.Get("X-Session-Source"); src != "replica" {
		t.Fatalf("watch served by %q, want replica", src)
	}
	rd := bufio.NewReader(resp.Body)
	if hello := readSSE(t, rd); hello.kind != "hello" {
		t.Fatalf("first event = %+v", hello)
	}
	// An unanswered stream fails the read when ctx expires after 2 s.
	if bye := readSSE(t, rd); bye.kind != "bye" {
		t.Fatalf("event after eviction = %+v, want bye", bye)
	}
}
