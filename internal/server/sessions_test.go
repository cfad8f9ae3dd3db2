package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"toporouting/internal/session"
)

// sessionRequest issues an http request with the tenant header set.
func sessionRequest(t *testing.T, method, url, tenant string, body []byte) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant-ID", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func createSession(t *testing.T, baseURL, tenant string, body map[string]any) sessionCreateResponse {
	t.Helper()
	b, _ := json.Marshal(body)
	resp := sessionRequest(t, http.MethodPost, baseURL+"/v1/sessions", tenant, b)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d, body %s", resp.StatusCode, raw)
	}
	var out sessionCreateResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("create session decode: %v", err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/sessions/"+out.ID {
		t.Fatalf("Location = %q, want /v1/sessions/%s", loc, out.ID)
	}
	return out
}

// streamEvents posts events as one NDJSON stream and decodes the echoed
// results.
func streamEvents(t *testing.T, baseURL, tenant, id string, events []session.Event) []session.ApplyResult {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	resp := sessionRequest(t, http.MethodPost, baseURL+"/v1/sessions/"+id+"/events", tenant, buf.Bytes())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("events: status %d, body %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	var results []session.ApplyResult
	dec := json.NewDecoder(resp.Body)
	for {
		var res session.ApplyResult
		if err := dec.Decode(&res); err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("events decode: %v", err)
		}
		results = append(results, res)
	}
	return results
}

func getSession(t *testing.T, baseURL, tenant, id, ifNoneMatch string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, baseURL+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant-ID", tenant)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 80, "seed": 3})
	if created.N != 80 || created.Gen != 0 {
		t.Fatalf("created = %+v", created)
	}

	// Full snapshot with the generation as ETag.
	resp, body := getSession(t, ts.URL, "acme", created.ID, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "0" {
		t.Fatalf("get: status %d etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	var snap session.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.N != 80 || len(snap.Points) != 80 || len(snap.Edges) != snap.NumEdges {
		t.Fatalf("snapshot n=%d points=%d edges=%d/%d", snap.N, len(snap.Points), len(snap.Edges), snap.NumEdges)
	}

	// Conditional on the current generation: 304, empty body.
	resp, body = getSession(t, ts.URL, "acme", created.ID, "0")
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional get: status %d, body %q", resp.StatusCode, body)
	}

	// Events advance the generation; the echo carries repair stats.
	results := streamEvents(t, ts.URL, "acme", created.ID, []session.Event{
		{Op: "join", X: 0.511, Y: 0.497},
		{Op: "move", Node: 3, X: 0.123, Y: 0.812},
		{Op: "leave", Node: 5},
	})
	if len(results) != 3 {
		t.Fatalf("got %d results: %+v", len(results), results)
	}
	for i, res := range results {
		if res.Err != "" {
			t.Fatalf("event %d rejected: %s", i, res.Err)
		}
		if res.Gen != int64(i+1) || res.Seq != i+1 {
			t.Fatalf("event %d: gen=%d seq=%d", i, res.Gen, res.Seq)
		}
	}
	if results[0].Node != 80 {
		t.Fatalf("join assigned node %d, want 80", results[0].Node)
	}

	// Delta from gen 0 carries exactly the three records.
	resp, body = getSession(t, ts.URL, "acme", created.ID, "0")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "3" {
		t.Fatalf("delta get: status %d etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	var delta session.Delta
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if delta.FromGen != 0 || delta.Gen != 3 || len(delta.Records) != 3 {
		t.Fatalf("delta = %+v", delta)
	}

	// Delete tears it down; the id dangles into 404.
	resp = sessionRequest(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, "acme", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, _ = getSession(t, ts.URL, "acme", created.ID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}
}

func TestSessionTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 60, "seed": 1})

	resp, _ := getSession(t, ts.URL, "mallory", created.ID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant get: status %d, want 404", resp.StatusCode)
	}
	resp = sessionRequest(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, "mallory", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-tenant delete: status %d, want 404", resp.StatusCode)
	}
	// The owner still sees it.
	resp, _ = getSession(t, ts.URL, "acme", created.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("owner get: status %d", resp.StatusCode)
	}
}

func TestSessionQuota429(t *testing.T) {
	_, ts := newTestServer(t, Config{Sessions: session.Config{MaxSessionsPerTenant: 2}})
	createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 1})
	createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 2})

	b, _ := json.Marshal(map[string]any{"dist": "uniform", "n": 50, "seed": 3})
	resp := sessionRequest(t, http.MethodPost, ts.URL+"/v1/sessions", "acme", b)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant is unaffected.
	createSession(t, ts.URL, "other", map[string]any{"dist": "uniform", "n": 50, "seed": 4})
}

// TestSessionDuplicatePointsKeepQuota pins over HTTP that a create whose
// points repeat a position is a 400 that leaves the tenant's slot free:
// more such failures than the quota must not lock the tenant out.
func TestSessionDuplicatePointsKeepQuota(t *testing.T) {
	_, ts := newTestServer(t, Config{Sessions: session.Config{MaxSessionsPerTenant: 2}})
	dup, _ := json.Marshal(map[string]any{"points": [][2]float64{{0.1, 0.2}, {0.5, 0.5}, {0.1, 0.2}}})
	for i := 0; i < 3; i++ {
		resp := sessionRequest(t, http.MethodPost, ts.URL+"/v1/sessions", "acme", dup)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("duplicate points create %d: status %d, want 400 (%s)", i, resp.StatusCode, raw)
		}
	}
	createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 1})
	createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 2})
}

func TestSessionEventRate429(t *testing.T) {
	_, ts := newTestServer(t, Config{Sessions: session.Config{EventRate: 0.001, EventBurst: 1}})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 1})

	// The single burst token admits the first stream...
	streamEvents(t, ts.URL, "acme", created.ID, []session.Event{{Op: "move", Node: 1, X: 0.5, Y: 0.5}})

	// ...and the empty bucket sheds the next one before reading any line.
	resp := sessionRequest(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", "acme", []byte(`{"op":"move","node":2,"x":0.1,"y":0.1}`+"\n"))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over event rate: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestSessionIdleTTLEviction(t *testing.T) {
	srv, ts := newTestServer(t, Config{Sessions: session.Config{IdleTTL: 50 * time.Millisecond}})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 9})
	// Reads refresh the idle clock, so watch the registry rather than
	// polling the endpoint.
	deadline := time.After(5 * time.Second)
	for srv.cluster.Live() != 0 {
		select {
		case <-deadline:
			t.Fatal("session not evicted")
		case <-time.After(25 * time.Millisecond):
		}
	}
	resp, _ := getSession(t, ts.URL, "acme", created.ID, "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after eviction: status %d, want 404", resp.StatusCode)
	}
}

func TestSessionInvalidEventsReported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 50, "seed": 2})
	results := streamEvents(t, ts.URL, "acme", created.ID, []session.Event{
		{Op: "leave", Node: 999},
		{Op: "move", Node: 1, X: 0.25, Y: 0.75},
	})
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err == "" || results[0].Gen != 0 {
		t.Fatalf("invalid event result = %+v", results[0])
	}
	if results[1].Err != "" || results[1].Gen != 1 {
		t.Fatalf("valid event after invalid = %+v", results[1])
	}

	// A malformed NDJSON line terminates the stream with an error echo.
	resp := sessionRequest(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/events", "acme", []byte("{not json}\n"))
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(raw, []byte("invalid event")) {
		t.Fatalf("malformed line echo = %s", raw)
	}
}

// wireMirror replays delta records exactly as a client would: the event's
// structural part first (join appends, leave swap-removes, move rewrites a
// position), then the net edge changes. Matching the server's snapshot
// bit-for-bit after replay is the delta protocol's whole contract.
type wireMirror struct {
	points [][2]float64
	edges  map[[2]int]bool
}

func newWireMirror(snap session.Snapshot) *wireMirror {
	m := &wireMirror{points: append([][2]float64(nil), snap.Points...), edges: make(map[[2]int]bool)}
	for _, e := range snap.Edges {
		m.edges[e] = true
	}
	return m
}

func (m *wireMirror) apply(rec session.DeltaRecord) {
	switch rec.Op {
	case "join":
		m.points = append(m.points, [2]float64{rec.X, rec.Y})
	case "leave":
		x, z := rec.Node, len(m.points)-1
		for e := range m.edges {
			if e[0] == x || e[1] == x {
				delete(m.edges, e)
			}
		}
		if x != z {
			for e := range m.edges {
				if e[0] == z || e[1] == z {
					delete(m.edges, e)
					u, v := e[0], e[1]
					if u == z {
						u = x
					}
					if v == z {
						v = x
					}
					if u > v {
						u, v = v, u
					}
					m.edges[[2]int{u, v}] = true
				}
			}
			m.points[x] = m.points[z]
		}
		m.points = m.points[:z]
	case "move":
		m.points[rec.Node] = [2]float64{rec.X, rec.Y}
	}
	for _, e := range rec.EdgesRemoved {
		delete(m.edges, e)
	}
	for _, e := range rec.EdgesAdded {
		m.edges[e] = true
	}
}

func (m *wireMirror) sortedEdges() [][2]int {
	out := make([][2]int, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TestSessionDeltaReplayEquivalence drives 60 churn events and asserts
// that snapshot(g) + deltas(g, g'] == snapshot(g') exactly — points
// bit-for-bit, edges edge-for-edge.
//
// Clients written against the API that had a per-session build mode still
// send a "mode" field. Each case sends one such value: the server ignores
// it, so every case must start from byte-identical snapshots.
func TestSessionDeltaReplayEquivalence(t *testing.T) {
	var firstBase []byte
	for _, mode := range []string{"centralized", "parallel", "tiled"} {
		t.Run(mode, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Sessions: session.Config{DeltaRing: 1024}})
			created := createSession(t, ts.URL, "acme", map[string]any{
				"dist": "uniform", "n": 150, "seed": 17, "mode": mode,
			})

			_, body := getSession(t, ts.URL, "acme", created.ID, "")
			if firstBase == nil {
				firstBase = body
			} else if !bytes.Equal(body, firstBase) {
				t.Fatalf("mode %q: initial snapshot differs from the first case's", mode)
			}
			var base session.Snapshot
			if err := json.Unmarshal(body, &base); err != nil {
				t.Fatal(err)
			}
			mirror := newWireMirror(base)

			rng := rand.New(rand.NewSource(5))
			n := base.N
			events := make([]session.Event, 0, 60)
			for i := 0; i < 60; i++ {
				switch rng.Intn(3) {
				case 0:
					events = append(events, session.Event{Op: "join", X: rng.Float64(), Y: rng.Float64()})
					n++
				case 1:
					events = append(events, session.Event{Op: "leave", Node: rng.Intn(n)})
					n--
				default:
					events = append(events, session.Event{Op: "move", Node: rng.Intn(n), X: rng.Float64(), Y: rng.Float64()})
				}
			}
			results := streamEvents(t, ts.URL, "acme", created.ID, events)
			if len(results) != 60 {
				t.Fatalf("got %d results; last %+v", len(results), results[len(results)-1])
			}
			var lastGen int64
			for i, res := range results {
				if res.Err != "" {
					t.Fatalf("event %d (%s) rejected: %s", i, events[i].Op, res.Err)
				}
				lastGen = res.Gen
			}
			if lastGen != 60 {
				t.Fatalf("final gen %d, want 60", lastGen)
			}

			resp, body := getSession(t, ts.URL, "acme", created.ID, fmt.Sprintf("%d", base.Gen))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("delta get: status %d", resp.StatusCode)
			}
			var delta session.Delta
			if err := json.Unmarshal(body, &delta); err != nil {
				t.Fatal(err)
			}
			if len(delta.Records) != 60 {
				t.Fatalf("delta carries %d records, want 60", len(delta.Records))
			}
			for _, rec := range delta.Records {
				mirror.apply(rec)
			}

			_, body = getSession(t, ts.URL, "acme", created.ID, "")
			var final session.Snapshot
			if err := json.Unmarshal(body, &final); err != nil {
				t.Fatal(err)
			}
			if len(mirror.points) != final.N {
				t.Fatalf("mirror n=%d, snapshot n=%d", len(mirror.points), final.N)
			}
			for i := range mirror.points {
				if mirror.points[i] != final.Points[i] {
					t.Fatalf("point %d: mirror %v, snapshot %v", i, mirror.points[i], final.Points[i])
				}
			}
			got, want := mirror.sortedEdges(), final.Edges
			if len(got) != len(want) {
				t.Fatalf("mirror %d edges, snapshot %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("edge %d: mirror %v, snapshot %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestSessionRingOverflowFallsBackToSnapshot(t *testing.T) {
	_, ts := newTestServer(t, Config{Sessions: session.Config{DeltaRing: 4}})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 60, "seed": 3})
	rng := rand.New(rand.NewSource(8))
	events := make([]session.Event, 10)
	for i := range events {
		events[i] = session.Event{Op: "move", Node: rng.Intn(60), X: rng.Float64(), Y: rng.Float64()}
	}
	streamEvents(t, ts.URL, "acme", created.ID, events)

	// Gen 0 fell off the 4-slot ring: the response must be a full snapshot.
	resp, body := getSession(t, ts.URL, "acme", created.ID, "0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap session.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Points) != 60 {
		t.Fatalf("fallback response is not a snapshot: %s", body[:min(len(body), 120)])
	}
}

// TestSessionConcurrentWriters hammers one session from many goroutines;
// the single-writer loop must serialize them into one consistent history
// (run under -race).
func TestSessionConcurrentWriters(t *testing.T) {
	_, ts := newTestServer(t, Config{Sessions: session.Config{DeltaRing: 2048}})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 200, "seed": 7})

	const writers, perWriter = 6, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			events := make([]session.Event, perWriter)
			for i := range events {
				events[i] = session.Event{Op: "move", Node: rng.Intn(200), X: rng.Float64(), Y: rng.Float64()}
			}
			streamEvents(t, ts.URL, "acme", created.ID, events)
		}(w)
	}
	wg.Wait()

	resp, body := getSession(t, ts.URL, "acme", created.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var snap session.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Gen == 0 || snap.Gen > writers*perWriter {
		t.Fatalf("gen %d after %d events", snap.Gen, writers*perWriter)
	}
	// The delta history from gen 0 must replay to the same edge count.
	resp, body = getSession(t, ts.URL, "acme", created.ID, "0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d", resp.StatusCode)
	}
	var delta session.Delta
	if err := json.Unmarshal(body, &delta); err != nil {
		t.Fatal(err)
	}
	if int64(len(delta.Records)) != snap.Gen {
		t.Fatalf("%d records for %d generations", len(delta.Records), snap.Gen)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	kind string
	data string
}

func readSSE(t *testing.T, rd *bufio.Reader) sseEvent {
	t.Helper()
	var ev sseEvent
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("sse read: %v (got %+v so far)", err, ev)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"): // heartbeat comment
		case line == "":
			if ev.kind != "" || ev.data != "" {
				return ev
			}
		}
	}
}

func TestSessionWatchSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createSession(t, ts.URL, "acme", map[string]any{"dist": "uniform", "n": 80, "seed": 4})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/sessions/"+created.ID+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant-ID", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch Content-Type = %q", ct)
	}
	rd := bufio.NewReader(resp.Body)
	hello := readSSE(t, rd)
	if hello.kind != "hello" {
		t.Fatalf("first event = %+v", hello)
	}
	var helloBody struct {
		ID  string `json:"id"`
		Gen int64  `json:"gen"`
	}
	if err := json.Unmarshal([]byte(hello.data), &helloBody); err != nil || helloBody.ID != created.ID {
		t.Fatalf("hello = %q (%v)", hello.data, err)
	}

	events := []session.Event{
		{Op: "join", X: 0.313, Y: 0.717},
		{Op: "move", Node: 2, X: 0.911, Y: 0.122},
		{Op: "leave", Node: 0},
	}
	streamEvents(t, ts.URL, "acme", created.ID, events)

	for i := 1; i <= 3; i++ {
		got := readSSE(t, rd)
		if got.kind != "delta" {
			t.Fatalf("event %d kind = %q", i, got.kind)
		}
		var rec session.DeltaRecord
		if err := json.Unmarshal([]byte(got.data), &rec); err != nil {
			t.Fatalf("delta decode: %v", err)
		}
		if rec.Gen != int64(i) || rec.Op != events[i-1].Op {
			t.Fatalf("delta %d = %+v", i, rec)
		}
	}

	// Deleting the session ends the stream with a bye.
	del := sessionRequest(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, "acme", nil)
	del.Body.Close()
	bye := readSSE(t, rd)
	if bye.kind != "bye" {
		t.Fatalf("final event = %+v", bye)
	}
}

// TestSessionDrain pins shutdown ordering: drain closes hosted sessions
// (ending watch streams) and still exits cleanly with a session live.
func TestSessionDrain(t *testing.T) {
	s := New(Config{})
	ts := newUnmanagedTestServer(t, s)
	created := createSession(t, ts, "acme", map[string]any{"dist": "uniform", "n": 60, "seed": 6})

	req, err := http.NewRequest(http.MethodGet, ts+"/v1/sessions/"+created.ID+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant-ID", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	if hello := readSSE(t, rd); hello.kind != "hello" {
		t.Fatalf("hello = %+v", hello)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The watcher's stream must have ended (bye, then EOF or error).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := rd.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch stream still open after drain")
	}
}

// newUnmanagedTestServer serves s without registering a cleanup Shutdown —
// for tests that drive Shutdown themselves.
func newUnmanagedTestServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
