package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// clusterReport is the multi-tenant section of the report. The invariant it
// exists to check: every event the server acked (status 200, no in-stream
// error, echoed generation) is still present at the end of the run —
// LostEvents counts acked generations the final snapshot does not reach,
// and must be zero even when a shard was killed mid-stream. Replica/primary
// read counts come from the X-Session-Source header.
type clusterReport struct {
	Tenants      int   `json:"tenants"`
	Sessions     int   `json:"sessions"`
	AckedEvents  int64 `json:"acked_events"`
	FailedEvents int64 `json:"failed_events"`
	LostEvents   int64 `json:"lost_events"`
	ReplicaReads int64 `json:"replica_reads"`
	PrimaryReads int64 `json:"primary_reads"`
}

// tenantState is one tenant's session under the multi-tenant schedule.
// maxAcked is the highest generation the server has acknowledged for an
// event this run — the floor the session's final generation must reach.
type tenantState struct {
	tenant string
	base   string // /v1/sessions/{id} URL
	etag   string
	acked  int64 // events acked (200 + clean echo)
	maxGen int64 // highest acked generation
}

// runMultiTenant drives one hosted session per tenant with a Zipf-skewed
// open-loop schedule: hot tenants get most of the events, every 16th tick
// is a conditional read, and at the end each session's final generation is
// checked against the highest acked one. Requests that fail mid-run (a
// shard being killed and failed over under the load) count as failed, not
// lost — loss means an *acked* event missing afterwards.
func runMultiTenant(client *http.Client, opts sessionOpts, tenants int, zipfS float64) ([]sample, *clusterReport, float64, error) {
	if tenants < 1 {
		return nil, nil, 0, fmt.Errorf("-tenants must be >= 1, got %d", tenants)
	}
	if zipfS <= 1 {
		return nil, nil, 0, fmt.Errorf("-zipf exponent must be > 1, got %v", zipfS)
	}
	cr := &clusterReport{Tenants: tenants}
	states := make([]*tenantState, tenants)
	for i := range states {
		o := opts
		o.tenant = fmt.Sprintf("t-%d", i)
		id, etag, err := createSession(client, o)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("tenant %s: %w", o.tenant, err)
		}
		states[i] = &tenantState{tenant: o.tenant, base: opts.addr + "/v1/sessions/" + id, etag: etag}
		cr.Sessions++
	}

	var (
		mu      sync.Mutex // guards samples, cr, and every tenantState
		samples []sample
		wg      sync.WaitGroup
	)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	zipf := rand.NewZipf(rand.New(rand.NewSource(1)), zipfS, 1, uint64(tenants-1))
	ticker := time.NewTicker(time.Duration(float64(time.Second) / opts.rps))
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
			st := states[int(zipf.Uint64())] // drawn on the schedule goroutine: Zipf is not concurrency-safe
			if tick%getEvery == 0 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mu.Lock()
					since := st.etag
					mu.Unlock()
					s, newTag, _, _, source := conditionalGet(client, st.base, st.tenant, since)
					mu.Lock()
					samples = append(samples, s)
					if newTag != "" {
						st.etag = newTag
					}
					switch source {
					case "replica":
						cr.ReplicaReads++
					case "primary":
						cr.PrimaryReads++
					}
					mu.Unlock()
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
				s, gen, rejected := postEvent(client, st.base+"/events", st.tenant, line)
				mu.Lock()
				samples = append(samples, s)
				if s.status == http.StatusOK && !rejected && gen > 0 {
					st.acked++
					cr.AckedEvents++
					if gen > st.maxGen {
						st.maxGen = gen
					}
				} else {
					cr.FailedEvents++
				}
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	// Settle, then audit: an unconditional GET per session must come back at
	// or past the highest acked generation. A session that fails over lands
	// on a new shard rebuilt from a mirror's checkpoint; acked events surviving
	// that move is exactly what LostEvents == 0 certifies.
	for _, st := range states {
		gen := finalGen(client, st)
		if gen < st.maxGen {
			cr.LostEvents += st.maxGen - gen
		}
		// Best-effort cleanup; a 404 here just means the session was already
		// gone (and was counted as lost above if events were acked).
		_ = deleteSession(client, st.base, st.tenant)
	}
	return samples, cr, elapsed, nil
}

// finalGen reads the session's authoritative generation with an
// unconditional GET, retrying briefly so a failover still settling when the
// schedule ends is not misread as loss.
func finalGen(client *http.Client, st *tenantState) int64 {
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		s, _, _, gen, _ := conditionalGet(client, st.base, st.tenant, "")
		if s.status == http.StatusOK && gen >= st.maxGen {
			return gen
		}
		if s.status == http.StatusOK && attempt == 4 {
			return gen
		}
	}
	return 0
}
