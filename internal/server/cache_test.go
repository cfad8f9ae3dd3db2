package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"toporouting"
)

// TestAppendJSONFloatGolden pins the hand-rolled float formatter against
// encoding/json across the format boundaries ('f' vs 'e', the exponent
// leading-zero cleanup, negatives, zero, and shortest-representation
// round-tripping).
func TestAppendJSONFloatGolden(t *testing.T) {
	cases := []float64{
		0, 1, -1, 0.1, -0.1, 2.5, 1.0 / 3.0, math.Pi,
		1e-6, 9.999999e-7, 1e-7, -1e-7, 2.5e-15,
		1e20, 9.999e20, 1e21, -1e21, 1.5e21, 1e300, 5e-324,
		123456.789, float64(time.Millisecond) / float64(time.Second),
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendJSONFloat(%g) = %s, want %s", f, got, want)
		}
	}
}

// TestAppendJSONStringGolden pins the string escaper against encoding/json,
// including the HTML-safe escapes and control characters.
func TestAppendJSONStringGolden(t *testing.T) {
	cases := []string{
		"", "centralized", "a\"b", `back\slash`, "line\nbreak", "tab\there",
		"\r", "\x00\x1f", "<script>&</script>", "unicode: héllo θ=π/3",
		"\u2028\u2029", "invalid\xffutf8",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestEncodeTopologyGolden builds real networks and pins the streaming
// encoder's bytes against encoding/json on the equivalent topologyResponse —
// edges on/off, empty-edge omitempty, dist_report on/off, and adversarial
// elapsed values.
func TestEncodeTopologyGolden(t *testing.T) {
	pts, err := toporouting.GeneratePoints("uniform", 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := toporouting.BuildNetwork(pts, toporouting.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two far-apart nodes: a connected=false, zero-edge topology so the
	// edges omitempty path (requested but empty) is exercised.
	farPts := []toporouting.Point{toporouting.Pt(0, 0), toporouting.Pt(100, 100)}
	farNw, err := toporouting.BuildNetwork(farPts, toporouting.Options{Range: 1})
	if err != nil {
		t.Fatal(err)
	}
	dist := &distReportView{Sent: 120, Delivered: 118, Dropped: 2, Rounds: 9, Crashes: 1, Converged: true}
	cases := []struct {
		name string
		res  *topologyResult
	}{
		{"edges", &topologyResult{mode: "centralized", nw: nw, includeEdges: true, elapsedMS: 1.25}},
		{"no-edges", &topologyResult{mode: "parallel", nw: nw, elapsedMS: 1e-7}},
		{"empty-edges", &topologyResult{mode: "centralized", nw: farNw, includeEdges: true, elapsedMS: 0}},
		{"dist-report", &topologyResult{mode: "distributed", nw: nw, dist: dist, includeEdges: true, elapsedMS: 3.5e21}},
	}
	for _, tc := range cases {
		resp := topologyResponse{
			Mode:        tc.res.mode,
			N:           tc.res.nw.N(),
			NumEdges:    tc.res.nw.NumEdges(),
			MaxDegree:   tc.res.nw.MaxDegree(),
			DegreeBound: tc.res.nw.DegreeBound(),
			Connected:   tc.res.nw.Connected(),
			Theta:       tc.res.nw.Options().Theta,
			Range:       tc.res.nw.Options().Range,
			DistReport:  tc.res.dist,
			ElapsedMS:   tc.res.elapsedMS,
		}
		if tc.res.includeEdges {
			resp.Edges = tc.res.nw.Edges()
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		st := getEncodeState()
		encodeTopologyResult(st, tc.res)
		if !bytes.Equal(st.out, want.Bytes()) {
			t.Errorf("%s: streaming encoder diverges from encoding/json\n got: %s\nwant: %s", tc.name, st.out, want.Bytes())
		}
		putEncodeState(st)
	}
}

// TestEncodeInterferenceGolden pins the interference streamer, including
// the omitempty transmission fields.
func TestEncodeInterferenceGolden(t *testing.T) {
	cases := []*interferenceResult{
		{n: 50, numEdges: 80, interference: 7, elapsedMS: 0.5},
		{n: 50, numEdges: 80, interference: 7, transmissionEdges: 900, transmissionInterference: 44, elapsedMS: 12},
	}
	for _, res := range cases {
		resp := interferenceResponse{
			N: res.n, NumEdges: res.numEdges, Interference: res.interference,
			TransmissionEdges: res.transmissionEdges, TransmissionInterference: res.transmissionInterference,
			ElapsedMS: res.elapsedMS,
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		st := getEncodeState()
		encodeInterferenceResult(st, res)
		if !bytes.Equal(st.out, want.Bytes()) {
			t.Errorf("interference encoder diverges\n got: %s\nwant: %s", st.out, want.Bytes())
		}
		putEncodeState(st)
	}
}

// TestCacheHitBitIdentity drives /v1/topology and /v1/interference through
// a cache-enabled server: the hit must return byte-identical bodies to the
// miss, X-Cache must flip miss → hit, and a cache-off server must produce
// the same response structurally (elapsed_ms is wall-clock) with no cache
// headers.
func TestCacheHitBitIdentity(t *testing.T) {
	_, tsOn := newTestServer(t, Config{Workers: 2})
	_, tsOff := newTestServer(t, Config{Workers: 2, CacheBytes: -1})

	for _, ep := range []string{"/v1/topology", "/v1/interference"} {
		req := map[string]any{"dist": "uniform", "n": 90, "seed": 11}
		if ep == "/v1/topology" {
			req["include_edges"] = true
		} else {
			req["include_transmission"] = true
		}
		miss, missBody := postJSON(t, tsOn.URL+ep, req)
		if miss.StatusCode != http.StatusOK {
			t.Fatalf("%s miss: %d %s", ep, miss.StatusCode, missBody)
		}
		if got := miss.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("%s first request X-Cache = %q, want miss", ep, got)
		}
		etag := miss.Header.Get("ETag")
		if !strings.HasPrefix(etag, `"`) || len(etag) != 66 {
			t.Fatalf("%s ETag = %q, want a quoted sha256 hex digest", ep, etag)
		}
		hit, hitBody := postJSON(t, tsOn.URL+ep, req)
		if hit.StatusCode != http.StatusOK || hit.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s second request: status %d X-Cache %q", ep, hit.StatusCode, hit.Header.Get("X-Cache"))
		}
		if !bytes.Equal(missBody, hitBody) {
			t.Fatalf("%s: cache hit bytes differ from the miss\n miss: %s\n  hit: %s", ep, missBody, hitBody)
		}
		if hit.Header.Get("ETag") != etag {
			t.Fatalf("%s: ETag changed across hit: %q vs %q", ep, hit.Header.Get("ETag"), etag)
		}

		// Cache off: same response modulo elapsed_ms, no cache headers.
		off, offBody := postJSON(t, tsOff.URL+ep, req)
		if off.StatusCode != http.StatusOK {
			t.Fatalf("%s cache-off: %d %s", ep, off.StatusCode, offBody)
		}
		if off.Header.Get("ETag") != "" || off.Header.Get("X-Cache") != "" {
			t.Fatalf("%s cache-off response leaked cache headers: ETag=%q X-Cache=%q",
				ep, off.Header.Get("ETag"), off.Header.Get("X-Cache"))
		}
		var a, b map[string]any
		if err := json.Unmarshal(missBody, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(offBody, &b); err != nil {
			t.Fatal(err)
		}
		delete(a, "elapsed_ms")
		delete(b, "elapsed_ms")
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("%s: cache-on and cache-off responses diverge\n  on: %s\n off: %s", ep, aj, bj)
		}
	}
}

// TestSimulateRoundTripIdentity pins the pooled simulate path: the body
// decodes as simulateResponse and re-encodes to the identical bytes (the
// std-json fallback produces canonical encoding/json output).
func TestSimulateRoundTripIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, ts.URL+"/v1/simulate", map[string]any{
		"dist": "uniform", "n": 40, "steps": 10, "sim_seed": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, body)
	}
	var sr simulateResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := json.NewEncoder(&re).Encode(sr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, re.Bytes()) {
		t.Fatalf("simulate body is not canonical encoding/json output\n got: %s\nwant: %s", body, re.Bytes())
	}
}

// TestETag304RoundTrip exercises the conditional-GET protocol: a matching
// If-None-Match answers 304 with no body — even before the response was
// ever built, because the strong ETag is a pure function of the request
// digest — and the not_modified counter tracks it.
func TestETag304RoundTrip(t *testing.T) {
	tel := toporouting.NewTelemetry()
	_, ts := newTestServer(t, Config{Workers: 1, Telemetry: tel})
	body := []byte(`{"dist":"uniform","n":60,"seed":2,"include_edges":true}`)

	first, err := http.Post(ts.URL+"/v1/topology", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/topology", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %d, want 304", resp.StatusCode)
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("304 ETag = %q, want %q", resp.Header.Get("ETag"), etag)
	}
	var drained bytes.Buffer
	if _, err := drained.ReadFrom(resp.Body); err != nil || drained.Len() != 0 {
		t.Fatalf("304 carried a body (%d bytes, err %v)", drained.Len(), err)
	}
	if got := tel.Counter("topocache.not_modified").Value(); got != 1 {
		t.Fatalf("not_modified counter = %d, want 1", got)
	}

	// The digest is computable without building: a fresh server answers the
	// same conditional request 304 without ever running ΘALG.
	tel2 := toporouting.NewTelemetry()
	_, ts2 := newTestServer(t, Config{Workers: 1, Telemetry: tel2})
	req2, _ := http.NewRequest(http.MethodPost, ts2.URL+"/v1/topology", bytes.NewReader(body))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("cold-server conditional request: %d, want 304", resp2.StatusCode)
	}
	if got := tel2.Counter("topocache.misses").Value(); got != 0 {
		t.Fatalf("cold-server 304 triggered %d builds, want 0", got)
	}
}

// TestSingleflightCollapseHTTP fires concurrent identical POSTs and asserts
// exactly one build happened: every completed build inserts, so whatever
// the interleaving, the miss counter can only read 1. Run under -race in CI
// this also exercises the flight-sharing paths for data races.
func TestSingleflightCollapseHTTP(t *testing.T) {
	tel := toporouting.NewTelemetry()
	_, ts := newTestServer(t, Config{Workers: 4, Telemetry: tel})
	body := `{"dist":"uniform","n":3000,"seed":9,"include_edges":true}`
	const k = 8
	bodies := make([][]byte, k)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/topology", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i] = buf.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	if got := tel.Counter("topocache.misses").Value(); got != 1 {
		t.Fatalf("topocache.misses = %d, want exactly 1 build for %d identical POSTs", got, k)
	}
	if got := tel.Counter("topocache.hits").Value(); got != k-1 {
		t.Fatalf("topocache.hits = %d, want %d (coalesced + cached)", got, k-1)
	}
	for i := 1; i < k; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes than request 0", i)
		}
	}
}

// TestCacheMetricsExposition asserts the cache metric families survive the
// repo's own promlint and carry sensible values after traffic.
func TestCacheMetricsExposition(t *testing.T) {
	tel := toporouting.NewTelemetry()
	_, ts := newTestServer(t, Config{Workers: 1, Telemetry: tel})
	req := map[string]any{"dist": "uniform", "n": 50, "seed": 4}
	for i := 0; i < 3; i++ {
		if resp, body := postJSON(t, ts.URL+"/v1/topology", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("topology: %d %s", resp.StatusCode, body)
		}
	}
	r, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"toporouting_topocache_hits 2",
		"toporouting_topocache_misses 1",
		"toporouting_topocache_bytes",
		"toporouting_topocache_entries 1",
	} {
		if !strings.Contains(raw.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, raw.String())
		}
	}
}

// TestRequestPoolReuse hammers one endpoint with differently shaped
// requests so pooled request structs and encode states are recycled across
// decodes; stale fields would change responses or digests.
func TestRequestPoolReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Alternate a field-rich request with a minimal one: if the pooled
	// struct were not cleared, the minimal request would inherit
	// include_edges or faults from its predecessor (and a wrong digest).
	rich := map[string]any{"dist": "uniform", "n": 40, "seed": 1, "include_edges": true, "mode": "parallel", "workers": 2}
	minimal := map[string]any{"dist": "uniform", "n": 40, "seed": 1}
	for i := 0; i < 6; i++ {
		req := rich
		if i%2 == 1 {
			req = minimal
		}
		resp, body := postJSON(t, ts.URL+"/v1/topology", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("iteration %d: %d %s", i, resp.StatusCode, body)
		}
		var tr topologyResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		wantEdges := i%2 == 0
		if gotEdges := len(tr.Edges) > 0; gotEdges != wantEdges {
			t.Fatalf("iteration %d: edges present=%v, want %v (stale pooled request state?)", i, gotEdges, wantEdges)
		}
		if tr.Mode != "centralized" {
			t.Fatalf("iteration %d: mode %q, want centralized", i, tr.Mode)
		}
	}
}

// TestInmMatches pins the If-None-Match list semantics.
func TestInmMatches(t *testing.T) {
	etag := `"abc"`
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{`"abc"`, true},
		{`"xyz"`, false},
		{`"xyz", "abc"`, true},
		{`W/"abc"`, true},
		{"*", true},
		{` "abc" `, true},
	}
	for _, tc := range cases {
		if got := inmMatches(tc.header, etag); got != tc.want {
			t.Errorf("inmMatches(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestCacheModeAliasesShareEntry pins the mode collapse: "", "parallel"
// and "tiled" are the one centralized ΘALG build, so the same points under
// each must return identical bytes from one cache entry — the first
// request builds, the other two hit.
func TestCacheModeAliasesShareEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var first []byte
	for i, mode := range []string{"", "parallel", "tiled"} {
		req := map[string]any{"dist": "uniform", "n": 70, "seed": 5, "include_edges": true, "mode": mode}
		resp, body := postJSON(t, ts.URL+"/v1/topology", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q: %d %s", mode, resp.StatusCode, body)
		}
		want := "hit"
		if i == 0 {
			want, first = "miss", body
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("mode %q: X-Cache = %q, want %q", mode, got, want)
		}
		if !bytes.Equal(body, first) {
			t.Fatalf("mode %q: body differs from mode \"\"\n got: %s\nwant: %s", mode, body, first)
		}
	}
}

// TestInterferenceCacheIgnoresWorkers pins that workers, which never
// changes an interference response, does not split its cache entry: a
// second request differing only in workers is a hit with identical bytes.
func TestInterferenceCacheIgnoresWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var first []byte
	for i, workers := range []int{1, 4} {
		req := map[string]any{"dist": "uniform", "n": 80, "seed": 6, "workers": workers}
		resp, body := postJSON(t, ts.URL+"/v1/interference", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: %d %s", workers, resp.StatusCode, body)
		}
		want := "hit"
		if i == 0 {
			want, first = "miss", body
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Fatalf("workers=%d: X-Cache = %q, want %q", workers, got, want)
		}
		if !bytes.Equal(body, first) {
			t.Fatalf("workers=%d: body differs from workers=1", workers)
		}
	}
}
