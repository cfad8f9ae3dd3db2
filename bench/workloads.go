package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"

	"toporouting/internal/geom"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// workload is one traffic mix against a fresh daemon. Rates are open-loop
// request rates, each at most 60% of the workload's closed-loop throughput
// on a 2-vCPU host running at half its quiet speed, so the open phase
// measures latency rather than a growing backlog even when the host is
// slow.
type workload struct {
	name string
	rate float64  // open-loop requests per second
	args []string // daemon flags beyond the defaults
	// build generates the workload's inputs from the seed. The returned
	// client is attached to one daemon at a time.
	build func(seed int64) workloadClient
}

// workloadClient is a workload's client side against one daemon.
type workloadClient interface {
	target
	// attach points the client at a fresh daemon and performs the
	// workload's set-up there (session creation), resetting per-daemon
	// state. It is part of the measured set-up time.
	attach(base string, cl *http.Client) error
	// audit checks the daemon's outputs after the load, untimed.
	audit() error
	// counts returns the client-side outcome counters since the last
	// resetCounts.
	counts() clientCounts
	resetCounts()
}

// clientCounts are outcomes only the client sees: cache answers from
// X-Cache, read outcomes, and which side of the cluster answered a read.
type clientCounts struct {
	cacheHits                  int // hit or coalesced
	notModified, deltas, fulls int
	replicaReads, primaryReads int
}

const (
	nodes     = 2000 // points per request or session
	zipfKeys  = 256  // distinct point sets of topo_zipf
	zipfS     = 1.1  // Zipf exponent of key and tenant draws
	tenants   = 8    // sessions of the session workloads, one per tenant
	auditSets = 32   // point sets re-requested by the topology audit
	// sessionRange is the sessions' transmission range D: 1.3 × the median
	// critical range of n=2000 uniform points. The default (1.3 × each set's
	// own critical range) follows the set's most isolated point and varies
	// by 1.9× in D² across seeds, and repair cost with it; a fixed D keeps
	// the work per event the same for every seed.
	sessionRange = 0.052
	streamCold   = 1 // sub-seed streams, so workloads never share inputs
	streamZipf   = 2
	streamSess   = 3
	streamOps    = 4
)

var workloads = []workload{
	{
		name:  "topo_cold",
		rate:  30,
		build: func(seed int64) workloadClient { return &topoCold{seed: seed} },
	},
	{
		name:  "topo_zipf",
		rate:  120,
		args:  []string{"-cache-bytes", "8388608"},
		build: newTopoZipf,
	},
	{
		name:  "session_churn",
		rate:  400,
		args:  []string{"-session-rate", "-1"},
		build: func(seed int64) workloadClient { return newSessions(seed, 16) },
	},
	{
		name:  "cluster_replica",
		rate:  600,
		args:  []string{"-shards", "4", "-replicas", "2", "-session-rate", "-1"},
		build: func(seed int64) workloadClient { return newSessions(seed, 2) },
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// subSeed derives an independent seed for input idx of a stream
// (splitmix64 finalizer over the mixed triple).
func subSeed(seed int64, stream, idx int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)<<40 + uint64(idx)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// pointSet is n uniform points in the unit square from a sub-seed.
func pointSet(seed int64, stream, idx int) []geom.Point {
	r := rand.New(rand.NewSource(subSeed(seed, stream, idx)))
	pts := make([]geom.Point, nodes)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64(), r.Float64())
	}
	return pts
}

// appendPoints writes pts as a JSON array of [x,y] pairs; 'g' with -1
// precision round-trips every float64 exactly.
func appendPoints(b []byte, pts []geom.Point) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, ']')
}

func topologyBody(pts []geom.Point) []byte {
	b := make([]byte, 0, 40*len(pts)+64)
	b = append(b, `{"include_edges":true,"points":`...)
	b = appendPoints(b, pts)
	return append(b, '}')
}

// defaultRange is the daemon's default transmission range D for a point
// set: 1.3 × its critical connectivity range.
func defaultRange(pts []geom.Point) float64 { return 1.3 * unitdisk.CriticalRange(pts) }

// referenceEdges is the in-process ΘALG topology over pts (θ = π/6, range
// d) as sorted [u,v] pairs with u < v.
func referenceEdges(pts []geom.Point, d float64) [][2]int {
	top := topology.BuildTheta(pts, topology.Config{Range: d})
	es := top.N.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

func equalEdges(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exchange performs one load request and drains the response.
func exchange(cl *http.Client, req *http.Request) outcome {
	resp, err := cl.Do(req)
	if err != nil {
		return outcome{}
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return outcome{}
	}
	return outcome{
		status:  resp.StatusCode,
		bytes:   int(n),
		cache:   resp.Header.Get("X-Cache"),
		traceID: resp.Header.Get("X-Trace-ID"),
	}
}

// fetch performs req and returns the status and whole body (audits only).
func fetch(cl *http.Client, req *http.Request) (int, http.Header, []byte, error) {
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

func postJSON(url string, body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, url, bytes.NewReader(body)) // url is well-formed
	req.Header.Set("Content-Type", "application/json")
	return req
}

// checkTopology audits one POST /v1/topology response against Lemma 2.1's
// degree bound, its own edge count, and the in-process build.
func checkTopology(body []byte, pts []geom.Point) error {
	var r struct {
		NumEdges    int      `json:"num_edges"`
		MaxDegree   int      `json:"max_degree"`
		DegreeBound int      `json:"degree_bound"`
		Edges       [][2]int `json:"edges"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode topology response: %w", err)
	}
	if r.MaxDegree > r.DegreeBound {
		return fmt.Errorf("max_degree %d exceeds degree_bound %d", r.MaxDegree, r.DegreeBound)
	}
	if r.NumEdges != len(r.Edges) {
		return fmt.Errorf("num_edges %d but %d edges listed", r.NumEdges, len(r.Edges))
	}
	if !equalEdges(r.Edges, referenceEdges(pts, defaultRange(pts))) {
		return errors.New("edges differ from the in-process build")
	}
	return nil
}

// tally guards a workload client's outcome counters.
type tally struct {
	mu sync.Mutex
	c  clientCounts
}

func (t *tally) counts() clientCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

func (t *tally) resetCounts() {
	t.mu.Lock()
	t.c = clientCounts{}
	t.mu.Unlock()
}

// topoClient is the client side both topology workloads share: POST the
// op's body to /v1/topology and count the cache's answers.
type topoClient struct {
	tally
	base string
	cl   *http.Client
}

func (t *topoClient) connect(base string, cl *http.Client) {
	t.base, t.cl = base, cl
	t.resetCounts()
}

func (t *topoClient) do(o op) outcome {
	out := exchange(t.cl, postJSON(t.base+"/v1/topology", o.body))
	if out.cache == "hit" || out.cache == "coalesced" {
		t.mu.Lock()
		t.c.cacheHits++
		t.mu.Unlock()
	}
	return out
}

// topoCold sends every request with a point set never sent before, so the
// response cache can only miss: each request pays the whole build.
type topoCold struct {
	topoClient
	seed int64
	i    int // next point set; feed goroutine only
}

func (t *topoCold) attach(base string, cl *http.Client) error {
	t.connect(base, cl)
	t.i = 0
	return nil
}

func (t *topoCold) next() op {
	o := op{key: t.i, body: topologyBody(pointSet(t.seed, streamCold, t.i))}
	t.i++
	return o
}

func (t *topoCold) audit() error {
	if c := t.counts(); c.cacheHits > 0 {
		return fmt.Errorf("topology audit: %d cache hits on distinct point sets", c.cacheHits)
	}
	for k := 0; k < auditSets; k++ {
		pts := pointSet(t.seed, streamCold, k)
		status, _, body, err := fetch(t.cl, postJSON(t.base+"/v1/topology", topologyBody(pts)))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("topology audit: point set %d: status %d: %v", k, status, err)
		}
		if err := checkTopology(body, pts); err != nil {
			return fmt.Errorf("topology audit: point set %d: %w", k, err)
		}
	}
	return nil
}

// topoZipf repeats a fixed set of point sets with Zipf-skewed popularity
// and no If-None-Match, so the response cache answers most requests and
// the working set overflows the cache.
type topoZipf struct {
	topoClient
	seed   int64
	bodies [][]byte
	rng    *rand.Zipf // feed goroutine only
}

func newTopoZipf(seed int64) workloadClient {
	t := &topoZipf{seed: seed, bodies: make([][]byte, zipfKeys)}
	for k := range t.bodies {
		t.bodies[k] = topologyBody(pointSet(seed, streamZipf, k))
	}
	return t
}

func (t *topoZipf) attach(base string, cl *http.Client) error {
	t.connect(base, cl)
	t.rng = rand.NewZipf(rand.New(rand.NewSource(subSeed(t.seed, streamOps, 0))), zipfS, 1, zipfKeys-1)
	return nil
}

func (t *topoZipf) next() op {
	k := int(t.rng.Uint64())
	return op{key: k, body: t.bodies[k]}
}

// audit requests 32 keys spread from the hottest to the coldest twice in a
// row. Both answers must be correct, the second must be a cache hit, and
// it must carry exactly the bytes of the first. The coldest keys are not
// resident after the load, so their first answer is a fresh miss.
func (t *topoZipf) audit() error {
	misses := 0
	for i := 0; i < auditSets; i++ {
		k := i * zipfKeys / auditSets
		var bodies [2][]byte
		for j := range bodies {
			status, hdr, body, err := fetch(t.cl, postJSON(t.base+"/v1/topology", t.bodies[k]))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("cache audit: key %d: status %d: %v", k, status, err)
			}
			switch xc := hdr.Get("X-Cache"); {
			case j == 0 && xc == "miss":
				misses++
			case j == 1 && xc != "hit":
				return fmt.Errorf("cache audit: key %d: repeat request answered %q, want hit", k, xc)
			}
			bodies[j] = body
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			return fmt.Errorf("cache audit: key %d: hit body differs from the body it cached", k)
		}
		if err := checkTopology(bodies[0], pointSet(t.seed, streamZipf, k)); err != nil {
			return fmt.Errorf("cache audit: key %d: %w", k, err)
		}
	}
	if misses == 0 {
		return errors.New("cache audit: every audited key was resident; no miss-then-hit pair was checked")
	}
	return nil
}

// sessions drives one hosted session per tenant: Zipf-skewed single
// `move` events, and every readEvery-th request a conditional GET with the
// tenant's last ETag.
type sessions struct {
	seed      int64
	readEvery int
	creates   [][]byte

	rng  *rand.Rand // feed goroutine only
	zipf *rand.Zipf
	i    int
	base string
	cl   *http.Client

	tally // its mutex also guards ts
	ts    []tenantState
}

type tenantState struct {
	name   string
	url    string // /v1/sessions/{id}
	etag   string
	maxGen int64 // highest acked generation
}

func newSessions(seed int64, readEvery int) workloadClient {
	s := &sessions{seed: seed, readEvery: readEvery}
	for t := 0; t < tenants; t++ {
		pts := pointSet(seed, streamSess, t)
		b := fmt.Appendf(nil, `{"range":%g,"points":`, sessionRange)
		b = appendPoints(b, pts)
		s.creates = append(s.creates, append(b, '}'))
	}
	return s
}

func (s *sessions) attach(base string, cl *http.Client) error {
	s.base, s.cl, s.i = base, cl, 0
	s.rng = rand.New(rand.NewSource(subSeed(s.seed, streamOps, 1)))
	s.zipf = rand.NewZipf(rand.New(rand.NewSource(subSeed(s.seed, streamOps, 2))), zipfS, 1, tenants-1)
	ts := make([]tenantState, tenants)
	for t := range ts {
		req := postJSON(base+"/v1/sessions", s.creates[t])
		name := fmt.Sprintf("t-%d", t)
		req.Header.Set("X-Tenant-ID", name)
		status, hdr, body, err := fetch(cl, req)
		if err != nil || status != http.StatusCreated {
			return fmt.Errorf("create session for %s: status %d: %v %s", name, status, err, bytes.TrimSpace(body))
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			return fmt.Errorf("create session for %s: %w", name, err)
		}
		ts[t] = tenantState{name: name, url: base + "/v1/sessions/" + created.ID, etag: hdr.Get("ETag")}
	}
	s.mu.Lock()
	s.ts, s.c = ts, clientCounts{}
	s.mu.Unlock()
	return nil
}

func (s *sessions) next() op {
	s.i++
	o := op{key: int(s.zipf.Uint64())}
	if s.i%s.readEvery == 0 {
		o.read = true
		return o
	}
	o.node, o.x, o.y = s.rng.Intn(nodes), s.rng.Float64(), s.rng.Float64()
	return o
}

func (s *sessions) do(o op) outcome {
	s.mu.Lock()
	st := s.ts[o.key]
	s.mu.Unlock()
	if o.read {
		return s.read(o.key, st)
	}
	line := fmt.Sprintf(`{"op":"move","node":%d,"x":%s,"y":%s}`+"\n",
		o.node, strconv.FormatFloat(o.x, 'g', -1, 64), strconv.FormatFloat(o.y, 'g', -1, 64))
	req, _ := http.NewRequest(http.MethodPost, st.url+"/events", bytes.NewReader([]byte(line))) // url is well-formed
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Tenant-ID", st.name)
	status, hdr, body, err := fetch(s.cl, req)
	if err != nil {
		return outcome{}
	}
	out := outcome{status: status, bytes: len(body), traceID: hdr.Get("X-Trace-ID")}
	if status != http.StatusOK {
		return out
	}
	var echo struct {
		Gen int64  `json:"gen"`
		Err string `json:"error"`
	}
	if err := json.Unmarshal(body, &echo); err != nil || echo.Err != "" || echo.Gen <= 0 {
		out.eventErr = true
	}
	s.mu.Lock()
	if !out.eventErr && echo.Gen > s.ts[o.key].maxGen {
		s.ts[o.key].maxGen = echo.Gen
	}
	s.mu.Unlock()
	return out
}

// read issues the conditional GET and classifies the answer: 304, a delta
// (has "records"), or a full snapshot (has "points").
func (s *sessions) read(t int, st tenantState) outcome {
	req, _ := http.NewRequest(http.MethodGet, st.url, nil) // url is well-formed
	req.Header.Set("If-None-Match", st.etag)
	req.Header.Set("X-Tenant-ID", st.name)
	status, hdr, body, err := fetch(s.cl, req)
	if err != nil {
		return outcome{}
	}
	out := outcome{status: status, bytes: len(body), traceID: hdr.Get("X-Trace-ID")}
	var kind string
	switch status {
	case http.StatusNotModified:
		kind = "not_modified"
	case http.StatusOK:
		var v struct {
			Records json.RawMessage `json:"records"`
			Points  json.RawMessage `json:"points"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return outcome{}
		}
		kind = "delta"
		if v.Points != nil {
			kind = "full"
		}
	default:
		return out
	}
	s.mu.Lock()
	if e := hdr.Get("ETag"); e != "" {
		s.ts[t].etag = e
	}
	switch kind {
	case "not_modified":
		s.c.notModified++
	case "delta":
		s.c.deltas++
	case "full":
		s.c.fulls++
	}
	switch hdr.Get("X-Session-Source") {
	case "replica":
		s.c.replicaReads++
	case "primary":
		s.c.primaryReads++
	}
	s.mu.Unlock()
	return out
}

// audit reads every session's final snapshot: its generation must equal
// the highest acked one (no acked event lost), and its edges must equal a
// from-scratch build over its points (incremental repair ≡ rebuild).
func (s *sessions) audit() error {
	s.mu.Lock()
	ts := append([]tenantState(nil), s.ts...)
	s.mu.Unlock()
	for _, st := range ts {
		req, _ := http.NewRequest(http.MethodGet, st.url, nil) // url is well-formed
		req.Header.Set("X-Tenant-ID", st.name)
		status, _, body, err := fetch(s.cl, req)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("session audit: %s: status %d: %v", st.name, status, err)
		}
		var snap struct {
			Gen    int64        `json:"gen"`
			Points [][2]float64 `json:"points"`
			Edges  [][2]int     `json:"edges"`
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			return fmt.Errorf("session audit: %s: %w", st.name, err)
		}
		if snap.Gen != st.maxGen {
			return fmt.Errorf("session audit: %s: final generation %d, highest acked %d", st.name, snap.Gen, st.maxGen)
		}
		pts := make([]geom.Point, len(snap.Points))
		for i, p := range snap.Points {
			pts[i] = geom.Pt(p[0], p[1])
		}
		if !equalEdges(snap.Edges, referenceEdges(pts, sessionRange)) {
			return fmt.Errorf("session audit: %s: snapshot edges differ from a rebuild over its points", st.name)
		}
	}
	return nil
}
