package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"toporouting/internal/cluster"
	"toporouting/internal/geom"
	"toporouting/internal/session"
	"toporouting/internal/telemetry"
	"toporouting/internal/topocache"
	"toporouting/internal/topology"
)

// The in-process harness times each layer's public functions directly, on
// inputs generated from the run's seed. It runs after the daemon has
// stopped, so nothing else competes for the CPU.

const (
	harnessBuilds    = 32   // point sets built by the topology harness
	harnessEvents    = 1000 // move events per session harness
	harnessReads     = 500  // conditional reads per encode harness
	harnessRestores  = 8    // checkpoint/restore repetitions
	harnessObserves  = 200_000
	harnessCacheHits = 20_000
	deltaLag         = 15 // generations a delta read trails, as at readEvery=16
)

func usSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

// runHarness returns every in-process per-layer metric.
func runHarness(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	ctx := context.Background()
	sets := make([][]geom.Point, harnessBuilds)
	for i := range sets {
		sets[i] = pointSet(seed, streamCold, 1_000_000+i)
	}

	// Topology: the default range D (1.3 × critical range, which the daemon
	// computes per request before building), the whole build, and the self
	// time of each phase span.
	tracer := telemetry.NewTracer(nil, telemetry.NewTraceRing(harnessBuilds, harnessBuilds))
	var builds, ranges []float64
	for _, pts := range sets {
		t0 := time.Now()
		cfg := topology.Config{Range: defaultRange(pts)}
		ranges = append(ranges, usSince(t0)/1000)
		tctx, root := tracer.Start(ctx, "bench.build")
		t0 = time.Now()
		if _, err := topology.BuildThetaContext(tctx, pts, cfg, 0); err != nil {
			return nil, fmt.Errorf("harness build: %w", err)
		}
		builds = append(builds, usSince(t0)/1000)
		root.End()
	}
	m["topology.build_ms"] = median(builds)
	m["unitdisk.critical_range_ms"] = median(ranges)
	phases := map[string][]float64{}
	for _, t := range tracer.Ring().Snapshot() {
		for name, v := range selfTimes(t) {
			phases[name] = append(phases[name], v)
		}
	}
	m["topology.phase1_ms"] = median(phases["topology.phase1"])
	m["topology.phase2_ms"] = median(phases["topology.phase2"])
	m["topology.stitch_ms"] = median(phases["topology.build"])

	// Topology repair: single-node moves on a maintained n=2000 topology.
	pts := sets[0]
	dyn := topology.NewDynamic(pts, topology.Config{Range: sessionRange})
	rng := rand.New(rand.NewSource(subSeed(seed, streamOps, 10)))
	var repairs, touched []float64
	for i := 0; i < harnessEvents; i++ {
		st := dyn.Apply(topology.Event{Kind: topology.Move, Node: rng.Intn(nodes), Pos: geom.Pt(rng.Float64(), rng.Float64())})
		repairs = append(repairs, float64(st.Duration)/float64(time.Microsecond))
		touched = append(touched, float64(st.Touched))
	}
	m["topology.repair_us"] = median(repairs)
	m["topology.repair_touched"] = mean(touched)

	hit, err := cacheHit(ctx)
	if err != nil {
		return nil, err
	}
	m["topocache.hit_us"] = hit

	// Session apply and delta encode on a bare registry, then the same on a
	// 4-shard, 2-replica cluster, whose apply also appends to two mirrors.
	sessCfg := session.Config{EventRate: -1, IdleTTL: -1}
	reg := session.NewRegistry(sessCfg)
	defer reg.Close()
	s, err := reg.Create(ctx, "bench", pts, session.BuildSpec{Range: sessionRange})
	if err != nil {
		return nil, fmt.Errorf("harness session: %w", err)
	}
	if m["session.apply_us"], err = applyEvents(ctx, s, seed, 11); err != nil {
		return nil, err
	}
	if m["session.encode_delta_us"], err = encodeDelta(func(since int64, buf *bytes.Buffer) (string, int64, error) {
		out, gen, err := s.EncodeSince(ctx, since, buf)
		return outcomeName(out), gen, err
	}); err != nil {
		return nil, err
	}

	cl := cluster.New(cluster.Config{Shards: 4, Replicas: 2, Session: sessCfg})
	defer cl.Close()
	cs, err := cl.Create(ctx, "bench", pts, session.BuildSpec{Range: sessionRange})
	if err != nil {
		return nil, fmt.Errorf("harness cluster: %w", err)
	}
	if m["cluster.apply_replicated_us"], err = applyEvents(ctx, cs, seed, 11); err != nil {
		return nil, err
	}
	if m["cluster.encode_since_us"], err = encodeDelta(func(since int64, buf *bytes.Buffer) (string, int64, error) {
		out, gen, src, err := cl.EncodeSince(ctx, "bench", cs.ID, since, buf)
		if err == nil && src != "replica" {
			err = errReplicaBehind
		}
		return outcomeName(out), gen, err
	}); err != nil {
		return nil, err
	}

	if m["cluster.checkpoint_ms"], m["cluster.restore_ms"], err = checkpointRestore(ctx, cs, sessCfg); err != nil {
		return nil, err
	}

	m["telemetry.observe_ns"], m["telemetry.bucket_observe_ns"] = observeCost()
	return m, nil
}

var errReplicaBehind = errors.New("replica not caught up")

func outcomeName(o session.GetOutcome) string {
	switch o {
	case session.NotModified:
		return "not_modified"
	case session.DeltaServed:
		return "delta"
	}
	return "full"
}

// applyEvents applies seeded single-node moves through the session's
// writer loop and returns the median apply time in µs.
func applyEvents(ctx context.Context, s *session.Session, seed int64, stream int) (float64, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamOps, stream)))
	lat := make([]float64, 0, harnessEvents)
	for i := 0; i < harnessEvents; i++ {
		ev := session.Event{Op: "move", Node: rng.Intn(nodes), X: rng.Float64(), Y: rng.Float64()}
		t0 := time.Now()
		res, err := s.Apply(ctx, ev)
		lat = append(lat, usSince(t0))
		if err != nil || res.Err != "" {
			return 0, fmt.Errorf("harness apply: %v %s", err, res.Err)
		}
	}
	return median(lat), nil
}

// encodeDelta times conditional reads whose cursor trails the head by
// deltaLag generations and returns the median in µs. A read the replica
// cannot serve yet is retried after its tailer catches up.
func encodeDelta(read func(since int64, buf *bytes.Buffer) (string, int64, error)) (float64, error) {
	var buf bytes.Buffer
	_, gen, err := read(-1, &buf)
	for deadline := time.Now().Add(5 * time.Second); errors.Is(err, errReplicaBehind) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		buf.Reset()
		_, gen, err = read(-1, &buf)
	}
	if err != nil {
		return 0, fmt.Errorf("harness read: %w", err)
	}
	lat := make([]float64, 0, harnessReads)
	for i := 0; i < harnessReads; i++ {
		buf.Reset()
		t0 := time.Now()
		out, _, err := read(gen-deltaLag, &buf)
		lat = append(lat, usSince(t0))
		if err != nil || out != "delta" {
			return 0, fmt.Errorf("harness read: outcome %s: %v", out, err)
		}
	}
	return median(lat), nil
}

// cacheHit fills an 8 MiB cache with n=2000-sized bodies and times
// GetOrBuild on a resident key, in µs per call.
func cacheHit(ctx context.Context) (float64, error) {
	const bodyBytes = 76 << 10
	c := topocache.New(8<<20, nil)
	body := make([]byte, bodyBytes)
	var key topocache.Key
	for i := 0; i < 100; i++ {
		key = sha256.Sum256([]byte(fmt.Sprint(i)))
		e := &topocache.Entry{Body: body, ETag: topocache.ETagFor(key)}
		if _, _, err := c.GetOrBuild(ctx, key, func() (*topocache.Entry, error) { return e, nil }); err != nil {
			return 0, err
		}
	}
	build := func() (*topocache.Entry, error) { return nil, errors.New("resident key rebuilt") }
	const batch = 1000
	var lat []float64
	for i := 0; i < harnessCacheHits/batch; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			if _, src, err := c.GetOrBuild(ctx, key, build); err != nil || src != topocache.Hit {
				return 0, fmt.Errorf("harness cache: %v", err)
			}
		}
		lat = append(lat, usSince(t0)/batch)
	}
	return median(lat), nil
}

// checkpointRestore times a loop-atomic checkpoint plus its encoding, and
// a decode plus verified restore into a fresh registry, both in ms.
func checkpointRestore(ctx context.Context, s *session.Session, cfg session.Config) (float64, float64, error) {
	var cps, rss []float64
	for i := 0; i < harnessRestores; i++ {
		t0 := time.Now()
		cp, err := s.Checkpoint(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("harness checkpoint: %w", err)
		}
		raw, err := cp.Encode()
		if err != nil {
			return 0, 0, fmt.Errorf("harness checkpoint: %w", err)
		}
		cps = append(cps, usSince(t0)/1000)

		reg := session.NewRegistry(cfg)
		t0 = time.Now()
		dec, err := session.DecodeCheckpoint(raw)
		if err == nil {
			_, err = reg.Restore(ctx, dec)
		}
		rss = append(rss, usSince(t0)/1000)
		reg.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("harness restore: %w", err)
		}
	}
	return median(cps), median(rss), nil
}

// observeCost times the two histogram kinds from two goroutines at once,
// as two session loops would hit them: the sample Histogram by name, and a
// per-tenant BucketHistogram resolved by its labeled name per observation.
// Each result is ns per observation on one goroutine.
func observeCost() (float64, float64) {
	tel := telemetry.New(nil)
	run := func(observe func(g, i int)) float64 {
		const goroutines = 2
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < harnessObserves; i++ {
					observe(g, i)
				}
			}(g)
		}
		wg.Wait()
		return float64(time.Since(t0)) / harnessObserves
	}
	plain := run(func(_, i int) { tel.Histogram("bench.observe_ms").Observe(float64(i % 50)) })
	tenantNames := []string{"t-0", "t-1"}
	bucket := run(func(g, i int) {
		tel.BucketHistogram(telemetry.LabeledName("session.apply_ms", "tenant", tenantNames[g]),
			telemetry.DefLatencyBuckets).Observe(float64(i % 50))
	})
	return plain, bucket
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
