package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// sessionReport is the session-mode section of the report: how the hosted
// topology's read side was served. The delta-hit ratio is the fraction of
// conditional GETs answered without a full snapshot (304 or compact delta)
// — the number the generation-numbered ring exists to keep high.
type sessionReport struct {
	ID            string  `json:"id"`
	Events        int     `json:"events"`
	EventErrors   int     `json:"event_errors"` // semantic rejections echoed in-stream
	FinalGen      int64   `json:"final_gen"`
	Gets          int     `json:"gets"`
	NotModified   int     `json:"not_modified"`
	DeltaServed   int     `json:"delta_served"`
	FullServed    int     `json:"full_served"`
	DeltaHitRatio float64 `json:"delta_hit_ratio"`
}

type sessionOpts struct {
	addr      string
	rps       float64
	duration  time.Duration
	n         int
	dist      string
	timeoutMS int
	tenant    string // X-Tenant-ID; empty = server default
}

// getEvery: one tick in 16 is a conditional read instead of an event, so a
// steady event stream leaves each read ~15 generations behind — squarely in
// delta territory for the default ring of 256.
const getEvery = 16

// runSession drives the hosted-session churn path: create one session,
// stream single-event NDJSON POSTs at the target rate (each echo read to
// completion, so the latency sample covers the full apply round-trip),
// interleave conditional GETs carrying the last seen ETag, and delete the
// session on the way out. Events are moves only: the node id space stays
// stable, so concurrently fired events never race each other into
// rejections.
func runSession(client *http.Client, opts sessionOpts) ([]sample, *sessionReport, float64, error) {
	id, etag, err := createSession(client, opts)
	if err != nil {
		return nil, nil, 0, err
	}
	base := opts.addr + "/v1/sessions/" + id
	sr := &sessionReport{ID: id}

	var (
		mu      sync.Mutex // guards samples, sr, etag
		samples []sample
		wg      sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	interval := time.Duration(float64(time.Second) / opts.rps)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.After(opts.duration)
	start := time.Now()
	tick := 0

fire:
	for {
		select {
		case <-deadline:
			break fire
		case <-ticker.C:
			tick++
			if tick%getEvery == 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					readOnce(client, base, opts.tenant, &mu, &samples, sr, &etag)
				}()
				continue
			}
			line, err := json.Marshal(event{
				Op: "move", Node: rng.Intn(opts.n), X: rng.Float64(), Y: rng.Float64(),
			})
			if err != nil {
				return nil, nil, 0, err
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, gen, rejected := postEvent(client, base+"/events", opts.tenant, line)
				mu.Lock()
				samples = append(samples, s)
				if s.status == http.StatusOK {
					sr.Events++
					if rejected {
						sr.EventErrors++
					}
				}
				if gen > sr.FinalGen {
					sr.FinalGen = gen
				}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// Quiescent read pair: the first GET syncs to the live generation
	// (delta or full), the second must come back 304 — so a healthy run
	// always shows not_modified > 0, which the CI smoke asserts.
	readOnce(client, base, opts.tenant, &mu, &samples, sr, &etag)
	readOnce(client, base, opts.tenant, &mu, &samples, sr, &etag)

	if hit := sr.NotModified + sr.DeltaServed; sr.Gets > 0 {
		sr.DeltaHitRatio = float64(hit) / float64(sr.Gets)
	}
	if err := deleteSession(client, base, opts.tenant); err != nil {
		return nil, nil, 0, err
	}
	return samples, sr, elapsed, nil
}

// readOnce issues one conditional GET with the last seen ETag and folds the
// outcome into the shared report under mu.
func readOnce(client *http.Client, base, tenant string, mu *sync.Mutex, samples *[]sample, sr *sessionReport, etag *string) {
	mu.Lock()
	since := *etag
	mu.Unlock()
	s, newTag, outcome, gen, _ := conditionalGet(client, base, tenant, since)
	mu.Lock()
	defer mu.Unlock()
	*samples = append(*samples, s)
	if newTag != "" {
		*etag = newTag
	}
	sr.Gets++
	switch outcome {
	case "not_modified":
		sr.NotModified++
	case "delta":
		sr.DeltaServed++
	case "full":
		sr.FullServed++
	}
	if gen > sr.FinalGen {
		sr.FinalGen = gen
	}
}

// event mirrors the server's NDJSON wire shape (internal/session.Event);
// loadgen keeps its own copy so the binary stays a pure HTTP client.
type event struct {
	Op   string  `json:"op"`
	Node int     `json:"node"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

func createSession(client *http.Client, opts sessionOpts) (id, etag string, err error) {
	body, err := json.Marshal(map[string]any{
		"dist": opts.dist, "n": opts.n, "timeout_ms": opts.timeoutMS,
	})
	if err != nil {
		return "", "", err
	}
	req, err := http.NewRequest(http.MethodPost, opts.addr+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return "", "", err
	}
	req.Header.Set("Content-Type", "application/json")
	setTenant(req, opts.tenant)
	resp, err := client.Do(req)
	if err != nil {
		return "", "", fmt.Errorf("create session: %w", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return "", "", fmt.Errorf("create session: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var created struct {
		ID  string `json:"id"`
		Gen int64  `json:"gen"`
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		return "", "", fmt.Errorf("create session: decode: %w", err)
	}
	return created.ID, fmt.Sprint(created.Gen), nil
}

// setTenant stamps the X-Tenant-ID header when a tenant is set; without it
// the server scopes the request to its default tenant.
func setTenant(req *http.Request, tenant string) {
	if tenant != "" {
		req.Header.Set("X-Tenant-ID", tenant)
	}
}

// postEvent streams one event and reads its echoed ApplyResult, so the
// latency sample is the full apply round-trip, not just the POST.
func postEvent(client *http.Client, url, tenant string, line []byte) (s sample, gen int64, rejected bool) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(append(line, '\n')))
	if err != nil {
		return sample{status: 0, latencyMS: msSince(t0)}, 0, false
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	setTenant(req, tenant)
	resp, err := client.Do(req)
	if err != nil {
		return sample{status: 0, latencyMS: msSince(t0)}, 0, false
	}
	defer resp.Body.Close()
	var echo struct {
		Gen int64  `json:"gen"`
		Err string `json:"error"`
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&echo); err != nil {
			return sample{status: 0, latencyMS: msSince(t0)}, 0, false
		}
	}
	io.Copy(io.Discard, resp.Body)
	return sample{status: resp.StatusCode, latencyMS: msSince(t0)}, echo.Gen, echo.Err != ""
}

// conditionalGet issues GET with If-None-Match and classifies the answer:
// 304, a delta body (has "records"), or a full snapshot (has "points").
// source echoes the X-Session-Source header ("primary" / "replica" in
// sharded deployments, empty otherwise).
func conditionalGet(client *http.Client, url, tenant, since string) (s sample, etag, outcome string, gen int64, source string) {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return sample{status: 0, latencyMS: msSince(t0)}, "", "", 0, ""
	}
	req.Header.Set("If-None-Match", since)
	setTenant(req, tenant)
	resp, err := client.Do(req)
	if err != nil {
		return sample{status: 0, latencyMS: msSince(t0)}, "", "", 0, ""
	}
	defer resp.Body.Close()
	s = sample{status: resp.StatusCode, latencyMS: 0} // latency set below, after body drain
	source = resp.Header.Get("X-Session-Source")
	switch resp.StatusCode {
	case http.StatusNotModified:
		outcome = "not_modified"
	case http.StatusOK:
		var body struct {
			Gen     int64           `json:"gen"`
			Records json.RawMessage `json:"records"`
			Points  json.RawMessage `json:"points"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			return sample{status: 0, latencyMS: msSince(t0)}, "", "", 0, source
		}
		gen = body.Gen
		if body.Points != nil {
			outcome = "full"
		} else {
			outcome = "delta"
		}
		etag = resp.Header.Get("ETag")
	}
	io.Copy(io.Discard, resp.Body)
	s.latencyMS = msSince(t0)
	return s, etag, outcome, gen, source
}

func deleteSession(client *http.Client, url, tenant string) error {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return err
	}
	setTenant(req, tenant)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("delete session: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("delete session: status %d", resp.StatusCode)
	}
	return nil
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
