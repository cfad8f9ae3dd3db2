package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toporouting/internal/pointset"
)

func testRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	if cfg.IdleTTL == 0 {
		cfg.IdleTTL = -1 // tests manage lifetimes explicitly unless they opt in
	}
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r
}

func mustCreate(t *testing.T, r *Registry, tenant string, n int, seed int64, spec BuildSpec) *Session {
	t.Helper()
	s, err := r.Create(context.Background(), tenant, pointset.Generate(pointset.KindUniform, n, seed), spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return s
}

func TestRegistryPerTenantQuota(t *testing.T) {
	r := testRegistry(t, Config{MaxSessionsPerTenant: 2})
	mustCreate(t, r, "acme", 50, 1, BuildSpec{})
	mustCreate(t, r, "acme", 50, 2, BuildSpec{})

	_, err := r.Create(context.Background(), "acme", pointset.Generate(pointset.KindUniform, 50, 3), BuildSpec{})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third create: want QuotaError, got %v", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("QuotaError.RetryAfter = %v, want positive", qe.RetryAfter)
	}

	// Another tenant is unaffected, and deleting frees the slot.
	mustCreate(t, r, "other", 50, 4, BuildSpec{})
	s := mustCreate(t, r, "other", 50, 5, BuildSpec{})
	if err := r.Delete("other", s.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	mustCreate(t, r, "other", 50, 6, BuildSpec{})
}

func TestRegistryGlobalCapAndFailedBuildReleasesSlot(t *testing.T) {
	r := testRegistry(t, Config{MaxSessions: 1, MaxSessionsPerTenant: 5})
	mustCreate(t, r, "a", 50, 1, BuildSpec{})
	_, err := r.Create(context.Background(), "b", pointset.Generate(pointset.KindUniform, 50, 2), BuildSpec{})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over global cap: want QuotaError, got %v", err)
	}

	r2 := testRegistry(t, Config{MaxSessionsPerTenant: 1})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r2.Create(cancelled, "t", pointset.Generate(pointset.KindUniform, 50, 3), BuildSpec{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: want context.Canceled, got %v", err)
	}
	// The failed build must not have consumed the tenant's only slot.
	mustCreate(t, r2, "t", 50, 4, BuildSpec{})
}

// TestRegistryPanickedBuildReleasesSlot pins that a build which panics —
// the builder's answer to duplicate positions — gives the tenant's slot
// back before the panic reaches the caller's recover, on both the create
// and the restore path. A leaked slot would lock the tenant out after
// MaxSessionsPerTenant bad requests.
func TestRegistryPanickedBuildReleasesSlot(t *testing.T) {
	r := testRegistry(t, Config{MaxSessionsPerTenant: 2})
	dup := pointset.Generate(pointset.KindUniform, 50, 3)
	dup[7] = dup[3]
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want a duplicate-position panic", label)
			}
		}()
		f()
	}
	for i := 0; i < 3; i++ {
		mustPanic("create", func() { _, _ = r.Create(context.Background(), "t", dup, BuildSpec{}) })
	}
	cp, err := mustCreate(t, r, "t", 50, 4, BuildSpec{}).Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cp.ID = "s-restored"
	cp.Points[7] = cp.Points[3]
	for i := 0; i < 3; i++ {
		mustPanic("restore", func() { _, _ = r.Restore(context.Background(), cp) })
	}
	// One session is hosted; the tenant's second slot is still free.
	mustCreate(t, r, "t", 50, 5, BuildSpec{})
}

func TestRegistryTenantScopedLookup(t *testing.T) {
	r := testRegistry(t, Config{})
	s := mustCreate(t, r, "acme", 50, 1, BuildSpec{})
	if _, err := r.Get("acme", s.ID); err != nil {
		t.Fatalf("owner Get: %v", err)
	}
	if _, err := r.Get("mallory", s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant Get: want ErrNotFound, got %v", err)
	}
	if err := r.Delete("mallory", s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cross-tenant Delete: want ErrNotFound, got %v", err)
	}
}

func TestTokenBucketPacing(t *testing.T) {
	r := testRegistry(t, Config{EventRate: 10, EventBurst: 2})
	for i := 0; i < 2; i++ {
		if wait, err := r.AdmitEvents("t"); err != nil || wait != 0 {
			t.Fatalf("burst take %d: wait=%v err=%v", i, wait, err)
		}
	}
	wait, err := r.AdmitEvents("t")
	if err != nil {
		t.Fatalf("AdmitEvents: %v", err)
	}
	if wait <= 0 || wait > 150*time.Millisecond {
		t.Fatalf("empty bucket wait = %v, want ~100ms", wait)
	}
	// WaitEvent paces rather than erroring, and honors cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := r.WaitEvent(ctx, "t"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitEvent under deadline: got %v", err)
	}
	if err := r.WaitEvent(context.Background(), "t"); err != nil {
		t.Fatalf("WaitEvent: %v", err)
	}
}

func TestRateLimitDisabled(t *testing.T) {
	r := testRegistry(t, Config{EventRate: -1})
	for i := 0; i < 100; i++ {
		if wait, err := r.AdmitEvents("t"); err != nil || wait != 0 {
			t.Fatalf("disabled limiter shed at %d: wait=%v err=%v", i, wait, err)
		}
	}
}

func TestApplyAdvancesGenerationAndValidates(t *testing.T) {
	r := testRegistry(t, Config{})
	s := mustCreate(t, r, "t", 60, 9, BuildSpec{})
	ctx := context.Background()

	res, err := s.Apply(ctx, Event{Op: "join", X: 0.511, Y: 0.498})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if res.Err != "" || res.Gen != 1 || res.N != 61 || res.Node != 60 {
		t.Fatalf("join result = %+v", res)
	}

	// Rejected events report Err and do not advance the generation.
	for _, ev := range []Event{
		{Op: "join", X: 0.511, Y: 0.498}, // occupied
		{Op: "leave", Node: 400},         // out of range
		{Op: "move", Node: -1, X: 0.1, Y: 0.1},
		{Op: "explode"},
	} {
		res, err := s.Apply(ctx, ev)
		if err != nil {
			t.Fatalf("apply %+v: %v", ev, err)
		}
		if res.Err == "" {
			t.Fatalf("apply %+v: want rejection", ev)
		}
		if res.Gen != 1 {
			t.Fatalf("rejected event advanced generation to %d", res.Gen)
		}
	}

	if g, _ := s.Gen(ctx); g != 1 {
		t.Fatalf("Gen = %d, want 1", g)
	}
}

func TestEncodeSinceOutcomes(t *testing.T) {
	r := testRegistry(t, Config{DeltaRing: 4})
	s := mustCreate(t, r, "t", 60, 5, BuildSpec{})
	ctx := context.Background()
	var buf bytes.Buffer

	// Fresh session, reader with no generation: full snapshot at gen 0.
	out, gen, err := s.EncodeSince(ctx, -1, &buf)
	if err != nil || out != FullServed || gen != 0 {
		t.Fatalf("initial read: out=%v gen=%d err=%v", out, gen, err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if snap.N != 60 || len(snap.Points) != 60 {
		t.Fatalf("snapshot n=%d points=%d", snap.N, len(snap.Points))
	}

	// Reader at the current generation: 304, nothing written.
	buf.Reset()
	out, gen, err = s.EncodeSince(ctx, 0, &buf)
	if err != nil || out != NotModified || buf.Len() != 0 {
		t.Fatalf("current read: out=%v gen=%d len=%d err=%v", out, gen, buf.Len(), err)
	}

	rng := rand.New(rand.NewSource(2))
	apply := func() {
		res, err := s.Apply(ctx, Event{Op: "move", Node: rng.Intn(60), X: rng.Float64(), Y: rng.Float64()})
		if err != nil || res.Err != "" {
			t.Fatalf("move: %v / %s", err, res.Err)
		}
	}

	// Within ring coverage: delta with exactly the missed records.
	apply()
	apply()
	buf.Reset()
	out, gen, err = s.EncodeSince(ctx, 0, &buf)
	if err != nil || out != DeltaServed || gen != 2 {
		t.Fatalf("delta read: out=%v gen=%d err=%v", out, gen, err)
	}
	var d Delta
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("delta decode: %v", err)
	}
	if d.FromGen != 0 || d.Gen != 2 || len(d.Records) != 2 || d.Records[0].Gen != 1 || d.Records[1].Gen != 2 {
		t.Fatalf("delta = %+v", d)
	}

	// Push the reader's generation off the 4-slot ring: full snapshot.
	for i := 0; i < 5; i++ {
		apply()
	}
	buf.Reset()
	out, _, err = s.EncodeSince(ctx, 2, &buf)
	if err != nil || out != FullServed {
		t.Fatalf("overflowed read: out=%v err=%v", out, err)
	}

	// A generation from the future (stale client, recreated session id)
	// also falls back to the snapshot rather than erroring.
	buf.Reset()
	out, _, err = s.EncodeSince(ctx, 99, &buf)
	if err != nil || out != FullServed {
		t.Fatalf("future read: out=%v err=%v", out, err)
	}
}

func TestSamePositionMoveDoesNotAdvanceGeneration(t *testing.T) {
	r := testRegistry(t, Config{})
	s := mustCreate(t, r, "t", 50, 3, BuildSpec{})
	ctx := context.Background()
	var buf bytes.Buffer
	if _, _, err := s.EncodeSince(ctx, -1, &buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	p := snap.Points[7]
	res, err := s.Apply(ctx, Event{Op: "move", Node: 7, X: p[0], Y: p[1]})
	if err != nil || res.Err != "" {
		t.Fatalf("no-op move: %v / %s", err, res.Err)
	}
	if res.Gen != 0 {
		t.Fatalf("no-op move advanced generation to %d", res.Gen)
	}
}

func TestConcurrentAppliesSerialize(t *testing.T) {
	r := testRegistry(t, Config{})
	s := mustCreate(t, r, "t", 200, 11, BuildSpec{})
	ctx := context.Background()

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				if _, err := s.Apply(ctx, Event{Op: "move", Node: rng.Intn(200), X: rng.Float64(), Y: rng.Float64()}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	g, err := s.Gen(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every accepted move advances exactly one generation; collisions on an
	// occupied position are rejected without advancing, so g ≤ total.
	if g == 0 || g > workers*perWorker {
		t.Fatalf("generation %d after %d concurrent moves", g, workers*perWorker)
	}
}

func TestSubscribeDeliversInOrderAndDisconnectsLaggards(t *testing.T) {
	r := testRegistry(t, Config{})
	s := mustCreate(t, r, "t", 60, 13, BuildSpec{})
	ctx := context.Background()

	ch, gen, cancel, err := s.Subscribe(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if gen != 0 {
		t.Fatalf("subscribe gen = %d", gen)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5; i++ {
		if res, err := s.Apply(ctx, Event{Op: "move", Node: rng.Intn(60), X: rng.Float64(), Y: rng.Float64()}); err != nil || res.Err != "" {
			t.Fatalf("move %d: %v / %s", i, err, res.Err)
		}
	}
	for want := int64(1); want <= 5; want++ {
		rec, ok := <-ch
		if !ok {
			t.Fatalf("channel closed before gen %d", want)
		}
		if rec.Gen != want {
			t.Fatalf("received gen %d, want %d", rec.Gen, want)
		}
	}

	// A subscriber with a full buffer is disconnected, not lagged.
	lag, _, lagCancel, err := s.Subscribe(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer lagCancel()
	for i := 0; i < 3; i++ {
		if res, err := s.Apply(ctx, Event{Op: "move", Node: rng.Intn(60), X: rng.Float64(), Y: rng.Float64()}); err != nil || res.Err != "" {
			t.Fatalf("lag move %d: %v / %s", i, err, res.Err)
		}
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-lag:
			if !ok {
				return // disconnected, as intended
			}
		case <-deadline:
			t.Fatal("laggard subscriber never disconnected")
		}
	}
}

func TestSessionCloseUnblocksCallers(t *testing.T) {
	r := testRegistry(t, Config{})
	s := mustCreate(t, r, "t", 50, 17, BuildSpec{})
	if err := r.Delete("t", s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(context.Background(), Event{Op: "join", X: 0.2, Y: 0.9}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("apply after close: %v", err)
	}
	var buf bytes.Buffer
	if _, _, err := s.EncodeSince(context.Background(), -1, &buf); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestIdleTTLEviction(t *testing.T) {
	r := NewRegistry(Config{IdleTTL: 40 * time.Millisecond})
	defer r.Close()
	s := mustCreate(t, r, "t", 50, 19, BuildSpec{})
	deadline := time.After(3 * time.Second)
	for r.Live() != 0 {
		select {
		case <-deadline:
			t.Fatalf("session not evicted; live=%d", r.Live())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, err := r.Get("t", s.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted Get: %v", err)
	}
	// The evicted tenant slot is free again.
	mustCreate(t, r, "t", 50, 20, BuildSpec{})
}

func TestRegistryCloseIsDrain(t *testing.T) {
	r := NewRegistry(Config{})
	s, err := r.Create(context.Background(), "t", pointset.Generate(pointset.KindUniform, 50, 21), BuildSpec{})
	if err != nil {
		t.Fatal(err)
	}
	ch, _, _, err := s.Subscribe(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, ok := <-ch; ok {
		t.Fatal("watcher channel still open after registry close")
	}
	if _, err := r.Get("t", s.ID); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := r.Create(context.Background(), "t", pointset.Generate(pointset.KindUniform, 50, 22), BuildSpec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after close: %v", err)
	}
	r.Close() // idempotent
}

// TestBuildModesProduceWorkingSessions hosts one session per build
// strategy the builder picks from the input — one grid at n = 120, tiles
// at n = 40000 — and applies an event to each.
func TestBuildModesProduceWorkingSessions(t *testing.T) {
	sizes := []int{120, 40000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	r := testRegistry(t, Config{})
	for _, n := range sizes {
		// The standard connectivity radius: a fixed formula instead of the
		// global critical range, which would dominate the large case.
		d := 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
		s := mustCreate(t, r, "t", n, 31, BuildSpec{Range: d})
		res, err := s.Apply(context.Background(), Event{Op: "join", X: 0.123, Y: 0.321})
		if err != nil || res.Err != "" {
			t.Fatalf("n=%d: join: %v / %s", n, err, res.Err)
		}
		if res.Gen != 1 || res.N != n+1 {
			t.Fatalf("n=%d: result %+v", n, res)
		}
		if err := r.Delete("t", s.ID); err != nil {
			t.Fatalf("n=%d: delete: %v", n, err)
		}
	}
}
