// Command loadgen drives a running toporoutingd with an open-loop request
// stream at a target rate and reports the latency distribution and status
// breakdown.
//
// Usage:
//
//	loadgen [-addr http://localhost:8080] [-rps 50] [-duration 10s]
//	        [-endpoint topology|simulate|interference|session] [-n 60]
//	        [-dist uniform] [-steps 50] [-mode centralized] [-timeout-ms 5000]
//	        [-keyspace 0] [-zipf 1.2] [-tenants 0]
//	        [-strict] [-json] [-slo "p99<50ms,err<1%"]
//
// Open-loop means the schedule never waits for responses: a request fires
// every 1/rps regardless of how the previous ones are doing, so server
// slowdowns surface as latency and shed load (429), not as a silently
// reduced offered rate. 429 responses count as "shed", not as errors — they
// are the server's backpressure working as designed.
//
// -mode picks the ΘALG build of -endpoint topology requests and applies
// to no other endpoint.
//
// -endpoint session exercises the hosted-session subsystem instead of the
// stateless endpoints: it creates one session (-n nodes), streams move
// events at -rps, interleaves a conditional GET (If-None-Match with the
// last seen ETag) every 16th tick, and deletes the session at the end. The report gains a "session" section with the event count, the
// 304/delta/full breakdown of the reads, and the delta-hit ratio — the
// fraction of reads the generation-numbered delta ring answered without a
// full snapshot. Latency percentiles cover both event applies and reads.
//
// -tenants K (with -endpoint session) fans the schedule out across K
// tenants, one hosted session each, with per-tick tenant draws from a Zipf
// distribution (exponent -zipf) so hot tenants dominate the way real
// multi-tenant traffic does. Every acked event's echoed generation is
// recorded, and at the end each session's final generation is audited
// against the highest acked one: the report's "cluster" section carries
// acked/failed/lost event counts and the replica/primary read split (from
// X-Session-Source). lost_events must stay zero across a forced shard kill
// — requests that fail during the failover window count as failed, never
// lost — which is what the cluster CI smoke asserts.
//
// -keyspace N switches the stateless endpoints (topology, interference)
// into repeated-pointset mode: each request draws one of N distinct point
// seeds from a Zipf distribution with exponent -zipf (> 1; heavier skew =
// hotter keys), so the same request bodies recur the way production
// traffic does and the server's digest-keyed response cache has something
// to hit. Per key, the last seen ETag is replayed as If-None-Match, so a
// warm key is answered 304 without a body. The report gains a "cache"
// section — hit/miss/coalesced/304 counts from the X-Cache and status
// answers, and the hit ratio (everything the server did not rebuild).
//
// -strict exits non-zero when any 5xx was observed or no request succeeded,
// which makes loadgen usable as a CI smoke gate. -slo goes further: it
// asserts service-level objectives against the final report — latency
// percentiles in milliseconds (p50/p90/p95/p99/mean/max) and rates as a
// percentage of all requests (err = 5xx + transport failures, shed = 429)
// — and exits non-zero listing every violated clause.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"toporouting/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// report is the end-of-run summary (also the -json shape).
type report struct {
	Requests    int            `json:"requests"`
	OK          int            `json:"ok"`         // 2xx (and 304 in session mode)
	Shed        int            `json:"shed"`       // 429
	ClientErr   int            `json:"client_err"` // other 4xx
	ServerErr   int            `json:"server_err"` // 5xx
	Transport   int            `json:"transport_err"`
	Statuses    map[string]int `json:"statuses"`
	LatencyMS   latencySummary `json:"latency_ms"`
	OfferedRPS  float64        `json:"offered_rps"`
	AchievedRPS float64        `json:"achieved_rps"` // 2xx per second
	Session     *sessionReport `json:"session,omitempty"`
	Cache       *cacheReport   `json:"cache,omitempty"`
	Cluster     *clusterReport `json:"cluster,omitempty"`
}

// cacheReport is the keyspace-mode accounting of the server's response
// cache, assembled from X-Cache headers and 304 answers.
type cacheReport struct {
	Hits        int `json:"hits"`
	Misses      int `json:"misses"`
	Coalesced   int `json:"coalesced"`
	NotModified int `json:"not_modified"`
	// HitRatio is the fraction of cache-answered requests the server did
	// not have to rebuild: (hits + coalesced + 304) / all of the above.
	HitRatio float64 `json:"hit_ratio"`
}

// sample is one request's outcome; status 0 means a transport error.
type sample struct {
	status    int
	latencyMS float64
}

// summarize folds raw samples into the report. 304 counts as success: in
// session mode it is the delta protocol's cheapest (and desired) answer.
func summarize(samples []sample, offeredRPS, elapsedS float64) report {
	rep := report{Statuses: make(map[string]int), OfferedRPS: offeredRPS}
	var lats []float64
	for _, s := range samples {
		rep.Requests++
		switch {
		case s.status == 0:
			rep.Transport++
		case s.status < 300 || s.status == http.StatusNotModified:
			rep.OK++
			lats = append(lats, s.latencyMS)
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
		case s.status < 500:
			rep.ClientErr++
		default:
			rep.ServerErr++
		}
		if s.status != 0 {
			rep.Statuses[fmt.Sprint(s.status)]++
		}
	}
	rep.AchievedRPS = float64(rep.OK) / elapsedS
	sum := stats.Summarize(lats)
	rep.LatencyMS = latencySummary{
		Mean: sum.Mean, P50: sum.P50, P90: sum.P90, P95: sum.P95, P99: sum.P99, Max: sum.Max,
	}
	return rep
}

type latencySummary struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

func run() error {
	var (
		addr      = flag.String("addr", "http://localhost:8080", "toporoutingd base URL")
		rps       = flag.Float64("rps", 50, "target request rate (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "run length")
		endpoint  = flag.String("endpoint", "topology", "topology | simulate | interference | session")
		n         = flag.Int("n", 60, "nodes per request")
		dist      = flag.String("dist", "uniform", "point distribution")
		steps     = flag.Int("steps", 50, "simulation steps (simulate endpoint)")
		mode      = flag.String("mode", "centralized", "build mode for -endpoint topology: centralized | distributed")
		timeoutMS = flag.Int("timeout-ms", 5000, "per-request timeout_ms")
		keyspace  = flag.Int("keyspace", 0, "repeated-pointset mode: draw seeds from this many distinct keys (0 = off)")
		zipfS     = flag.Float64("zipf", 1.2, "Zipf exponent for keyspace/tenant draws (> 1; larger = hotter keys)")
		tenants   = flag.Int("tenants", 0, "multi-tenant session mode: one session per tenant, Zipf-skewed traffic (0 = off)")
		strict    = flag.Bool("strict", false, "exit non-zero on any 5xx or zero successes")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON")
		slo       = flag.String("slo", "", `assert SLOs and exit non-zero on violation, e.g. "p99<50ms,err<1%"`)
	)
	flag.Parse()
	if *rps <= 0 {
		return fmt.Errorf("rps must be positive, got %v", *rps)
	}
	var sloClauses []sloClause
	if *slo != "" {
		var err error
		if sloClauses, err = parseSLO(*slo); err != nil {
			return err
		}
	}

	client := &http.Client{Timeout: time.Duration(*timeoutMS)*time.Millisecond + 5*time.Second}

	var rep report
	if *tenants > 0 {
		if *endpoint != "session" {
			return fmt.Errorf("-tenants needs -endpoint session, got %q", *endpoint)
		}
		samples, cr, elapsed, err := runMultiTenant(client, sessionOpts{
			addr: *addr, rps: *rps, duration: *duration,
			n: *n, dist: *dist, timeoutMS: *timeoutMS,
		}, *tenants, *zipfS)
		if err != nil {
			return err
		}
		rep = summarize(samples, *rps, elapsed)
		rep.Cluster = cr
	} else if *endpoint == "session" {
		samples, sess, elapsed, err := runSession(client, sessionOpts{
			addr: *addr, rps: *rps, duration: *duration,
			n: *n, dist: *dist, timeoutMS: *timeoutMS,
		})
		if err != nil {
			return err
		}
		rep = summarize(samples, *rps, elapsed)
		rep.Session = sess
	} else if *keyspace > 0 {
		samples, cr, elapsed, err := runKeyspace(client, keyspaceOpts{
			addr: *addr, endpoint: *endpoint, dist: *dist, mode: *mode,
			rps: *rps, duration: *duration, n: *n, keys: *keyspace,
			timeoutMS: *timeoutMS, zipfS: *zipfS,
		})
		if err != nil {
			return err
		}
		rep = summarize(samples, *rps, elapsed)
		rep.Cache = cr
	} else {
		path, body, err := buildRequest(*endpoint, *n, *dist, *steps, *mode, *timeoutMS, 0)
		if err != nil {
			return err
		}
		url := *addr + path

		var (
			mu      sync.Mutex
			samples []sample
			wg      sync.WaitGroup
		)
		interval := time.Duration(float64(time.Second) / *rps)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		deadline := time.After(*duration)
		start := time.Now()

	fire:
		for {
			select {
			case <-deadline:
				break fire
			case <-ticker.C:
				wg.Add(1)
				go func() {
					defer wg.Done()
					t0 := time.Now()
					resp, err := client.Post(url, "application/json", bytes.NewReader(body))
					lat := float64(time.Since(t0)) / float64(time.Millisecond)
					st := 0
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						st = resp.StatusCode
					}
					mu.Lock()
					samples = append(samples, sample{status: st, latencyMS: lat})
					mu.Unlock()
				}()
			}
		}
		wg.Wait()
		rep = summarize(samples, *rps, time.Since(start).Seconds())
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(rep)
	}

	if *strict {
		if rep.ServerErr > 0 {
			return fmt.Errorf("strict: %d server errors (5xx)", rep.ServerErr)
		}
		if rep.OK == 0 {
			return fmt.Errorf("strict: no successful responses out of %d requests", rep.Requests)
		}
	}
	if violations := checkSLO(sloClauses, rep); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "loadgen:", v)
		}
		return fmt.Errorf("%d of %d slo clauses violated", len(violations), len(sloClauses))
	}
	return nil
}

// buildRequest assembles the request body once; every fired request reuses
// it (same points seed → the server does identical work per request).
func buildRequest(endpoint string, n int, dist string, steps int, mode string, timeoutMS int, seed int64) (string, []byte, error) {
	var (
		path string
		req  map[string]any
	)
	switch endpoint {
	case "topology":
		path = "/v1/topology"
		req = map[string]any{"mode": mode, "dist": dist, "n": n, "seed": seed, "timeout_ms": timeoutMS}
	case "simulate":
		path = "/v1/simulate"
		req = map[string]any{
			"dist": dist, "n": n, "seed": seed, "steps": steps,
			"router":     map[string]any{"buffer": 100},
			"timeout_ms": timeoutMS,
		}
	case "interference":
		path = "/v1/interference"
		req = map[string]any{"dist": dist, "n": n, "seed": seed, "timeout_ms": timeoutMS}
	default:
		return "", nil, fmt.Errorf("unknown endpoint %q (want topology, simulate, interference, or session)", endpoint)
	}
	body, err := json.Marshal(req)
	return path, body, err
}

type keyspaceOpts struct {
	addr, endpoint, dist, mode string
	rps                        float64
	duration                   time.Duration
	n, keys, timeoutMS         int
	zipfS                      float64
}

// runKeyspace fires the open-loop schedule over a Zipf-skewed key set so
// identical requests recur: per tick one key is drawn, its pre-marshalled
// body is posted, and the key's last ETag rides along as If-None-Match.
// Cache outcomes are read back from X-Cache and the 304 status.
func runKeyspace(client *http.Client, o keyspaceOpts) ([]sample, *cacheReport, float64, error) {
	if o.endpoint != "topology" && o.endpoint != "interference" {
		return nil, nil, 0, fmt.Errorf("-keyspace needs a cached endpoint (topology or interference), got %q", o.endpoint)
	}
	if o.zipfS <= 1 {
		return nil, nil, 0, fmt.Errorf("-zipf exponent must be > 1, got %v", o.zipfS)
	}
	bodies := make([][]byte, o.keys)
	var path string
	for k := range bodies {
		p, body, err := buildRequest(o.endpoint, o.n, o.dist, 0, o.mode, o.timeoutMS, int64(k))
		if err != nil {
			return nil, nil, 0, err
		}
		path, bodies[k] = p, body
	}
	url := o.addr + path
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), o.zipfS, 1, uint64(o.keys-1))

	var (
		mu      sync.Mutex
		samples []sample
		etags   = make([]string, o.keys)
		cr      cacheReport
		wg      sync.WaitGroup
	)
	ticker := time.NewTicker(time.Duration(float64(time.Second) / o.rps))
	defer ticker.Stop()
	deadline := time.After(o.duration)
	start := time.Now()

fire:
	for {
		select {
		case <-deadline:
			break fire
		case <-ticker.C:
			k := int(zipf.Uint64()) // drawn on the schedule goroutine: Zipf is not concurrency-safe
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[k]))
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				mu.Lock()
				if e := etags[k]; e != "" {
					req.Header.Set("If-None-Match", e)
				}
				mu.Unlock()
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				st := 0
				var xc, etag string
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					st = resp.StatusCode
					xc = resp.Header.Get("X-Cache")
					etag = resp.Header.Get("ETag")
				}
				mu.Lock()
				samples = append(samples, sample{status: st, latencyMS: lat})
				if etag != "" {
					etags[k] = etag
				}
				switch {
				case st == http.StatusNotModified:
					cr.NotModified++
				case xc == "hit":
					cr.Hits++
				case xc == "coalesced":
					cr.Coalesced++
				case xc == "miss":
					cr.Misses++
				}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	if total := cr.Hits + cr.Misses + cr.Coalesced + cr.NotModified; total > 0 {
		cr.HitRatio = float64(cr.Hits+cr.Coalesced+cr.NotModified) / float64(total)
	}
	return samples, &cr, time.Since(start).Seconds(), nil
}

func printReport(rep report) {
	fmt.Printf("requests   %d (offered %.1f rps)\n", rep.Requests, rep.OfferedRPS)
	fmt.Printf("ok         %d (achieved %.1f rps)\n", rep.OK, rep.AchievedRPS)
	fmt.Printf("shed(429)  %d\n", rep.Shed)
	fmt.Printf("4xx        %d\n", rep.ClientErr)
	fmt.Printf("5xx        %d\n", rep.ServerErr)
	fmt.Printf("transport  %d\n", rep.Transport)
	keys := make([]string, 0, len(rep.Statuses))
	for k := range rep.Statuses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  status %s: %d\n", k, rep.Statuses[k])
	}
	fmt.Printf("latency ms mean=%.1f p50=%.1f p90=%.1f p95=%.1f p99=%.1f max=%.1f\n",
		rep.LatencyMS.Mean, rep.LatencyMS.P50, rep.LatencyMS.P90,
		rep.LatencyMS.P95, rep.LatencyMS.P99, rep.LatencyMS.Max)
	if c := rep.Cache; c != nil {
		fmt.Printf("cache      hit=%d miss=%d coalesced=%d 304=%d hit-ratio %.3f\n",
			c.Hits, c.Misses, c.Coalesced, c.NotModified, c.HitRatio)
	}
	if s := rep.Session; s != nil {
		fmt.Printf("session    %s gen=%d events=%d rejected=%d\n",
			s.ID, s.FinalGen, s.Events, s.EventErrors)
		fmt.Printf("reads      %d (304=%d delta=%d full=%d) delta-hit %.3f\n",
			s.Gets, s.NotModified, s.DeltaServed, s.FullServed, s.DeltaHitRatio)
	}
	if c := rep.Cluster; c != nil {
		fmt.Printf("cluster    tenants=%d sessions=%d acked=%d failed=%d lost=%d\n",
			c.Tenants, c.Sessions, c.AckedEvents, c.FailedEvents, c.LostEvents)
		fmt.Printf("sources    replica=%d primary=%d\n", c.ReplicaReads, c.PrimaryReads)
	}
}
