package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
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

// TestRegistryPanickedBuildReleasesSlot pins that a failed build — here
// the builder's ErrCoincidentPoints for duplicate positions — gives the
// tenant's slot back, on both the create and the restore path. A leaked
// slot would lock the tenant out after MaxSessionsPerTenant bad requests.
func TestRegistryPanickedBuildReleasesSlot(t *testing.T) {
	r := testRegistry(t, Config{MaxSessionsPerTenant: 2})
	dup := pointset.Generate(pointset.KindUniform, 50, 3)
	dup[7] = dup[3]
	mustFail := func(label string, f func() error) {
		t.Helper()
		if err := f(); !errors.Is(err, topology.ErrCoincidentPoints) {
			t.Fatalf("%s: got %v, want ErrCoincidentPoints", label, err)
		}
	}
	for i := 0; i < 3; i++ {
		mustFail("create", func() error { _, err := r.Create(context.Background(), "t", dup, BuildSpec{}); return err })
	}
	cp, err := mustCreate(t, r, "t", 50, 4, BuildSpec{}).Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cp.ID = "s-restored"
	cp.Points[7] = cp.Points[3]
	for i := 0; i < 3; i++ {
		mustFail("restore", func() error { _, err := r.Restore(context.Background(), cp); return err })
	}
	// One session is hosted; the tenant's second slot is still free.
	mustCreate(t, r, "t", 50, 5, BuildSpec{})
}

// TestRegistryQuotaBeforeRange pins the order of a create's checks: a
// tenant at its cap gets its QuotaError before the default range is
// chosen (no unitdisk.critical_range span), and a create that fails on its
// range or points — coincident points before any spanning tree, a
// negative range, coincident points under an explicit range — leaves the
// tenant's slot count as it was.
func TestRegistryQuotaBeforeRange(t *testing.T) {
	r := testRegistry(t, Config{MaxSessionsPerTenant: 2})
	slots := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.tenant("t").sessions
	}
	mustCreate(t, r, "t", 50, 1, BuildSpec{})
	dup := pointset.Generate(pointset.KindUniform, 50, 2)
	dup[40] = dup[9]
	for _, c := range []struct {
		name string
		pts  []geom.Point
		spec BuildSpec
		want error
	}{
		{"coincident, default range", dup, BuildSpec{}, topology.ErrCoincidentPoints},
		{"coincident, explicit range", dup, BuildSpec{Range: 0.3}, topology.ErrCoincidentPoints},
		{"negative range", pointset.Generate(pointset.KindUniform, 50, 3), BuildSpec{Range: -1}, nil},
	} {
		before := slots()
		_, err := r.Create(context.Background(), "t", c.pts, c.spec)
		if err == nil || c.want != nil && !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want an error (%v)", c.name, err, c.want)
		}
		if after := slots(); after != before {
			t.Fatalf("%s: tenant slots %d → %d, want unchanged", c.name, before, after)
		}
	}

	mustCreate(t, r, "t", 50, 4, BuildSpec{})
	ring := telemetry.NewTraceRing(4, 4)
	ctx, root := telemetry.NewTracer(nil, ring).Start(context.Background(), "create")
	_, err := r.Create(ctx, "t", pointset.Generate(pointset.KindUniform, 2000, 5), BuildSpec{})
	root.End()
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("capped tenant: want QuotaError, got %v", err)
	}
	traces := ring.Snapshot()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	for _, sp := range traces[0].Spans {
		if sp.Name == "unitdisk.critical_range" {
			t.Fatal("a capped tenant's create chose a default range before its QuotaError")
		}
	}
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

// TestBuildModesProduceWorkingSessions hosts a small (n = 120) and a large
// (n = 40000) session and applies an event to each.
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

// TestIdleTenantsAreForgotten pins that tenant state does not grow with the
// number of distinct tenants: a tenant with no session is dropped once its
// token bucket is full again (at release, or on a later sweep), while a
// tenant that still holds a session, or whose bucket is still refilling,
// keeps its drained bucket, so no quota is ever reset.
func TestIdleTenantsAreForgotten(t *testing.T) {
	r := testRegistry(t, Config{EventRate: 10, EventBurst: 2})
	var now time.Duration
	r.now = func() time.Duration { return now }
	ctx := context.Background()
	pts := pointset.Generate(pointset.KindUniform, 6, 1)
	drained := func(tenant string) bool {
		wait, err := r.AdmitEvents(tenant)
		if err != nil {
			t.Fatal(err)
		}
		return wait > 0
	}

	keeper, err := r.Create(ctx, "keeper", pts, BuildSpec{})
	if err != nil {
		t.Fatal(err)
	}
	for !drained("keeper") {
	}
	const tenants = 2000
	for i := 0; i < tenants; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		s, err := r.Create(ctx, tn, pts, BuildSpec{})
		if err != nil {
			t.Fatalf("%s: %v", tn, err)
		}
		if drained(tn) {
			t.Fatalf("%s: fresh bucket empty", tn)
		}
		if res, err := s.Apply(ctx, Event{Op: "move", Node: 0, X: 0.5, Y: 0.5 + float64(i)*1e-6}); err != nil || res.Err != "" {
			t.Fatalf("%s move: %v / %s", tn, err, res.Err)
		}
		if i%2 == 0 {
			now += time.Second // the bucket refills before the delete
		}
		if err := r.Delete(tn, s.ID); err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	left := len(r.tenants)
	r.mu.Unlock()
	if left != 1+tenants/2 {
		t.Fatalf("after deletes: %d tenants kept, want %d (keeper + the still-refilling half)", left, 1+tenants/2)
	}

	now += time.Second
	for !drained("keeper") {
	}
	r.sweepOnce(time.Time{})
	r.mu.Lock()
	_, kept := r.tenants["keeper"]
	left = len(r.tenants)
	r.mu.Unlock()
	if !kept || left != 1 {
		t.Fatalf("after sweep: %d tenants (keeper kept: %v), want only the keeper", left, kept)
	}
	if !drained("keeper") {
		t.Fatal("sweep reset the drained bucket of a tenant with a session")
	}
	if err := r.Delete("keeper", keeper.ID); err != nil {
		t.Fatal(err)
	}
	if !drained("keeper") {
		t.Fatal("deleting the last session reset a drained bucket")
	}
	now += time.Second
	r.sweepOnce(time.Time{})
	r.mu.Lock()
	left = len(r.tenants)
	r.mu.Unlock()
	if left != 0 {
		t.Fatalf("after the last sweep: %d tenants, want 0", left)
	}
}

// TestEdgelessSnapshotEncodesEmptyList pins that a session whose range
// admits no edge encodes "edges":[] on every snapshot, the first one
// included: the mirrors always did, and a reader diffing the two must not
// see null on one side.
func TestEdgelessSnapshotEncodesEmptyList(t *testing.T) {
	r := testRegistry(t, Config{})
	s, err := r.Create(context.Background(), "t", []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}, BuildSpec{Range: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var buf bytes.Buffer
		if _, err := s.EncodeSnapshot(context.Background(), &buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(buf.Bytes(), []byte(`"edges":[]`)) {
			t.Fatalf("snapshot %d: %s", i, buf.Bytes())
		}
	}
}

// fakeReplicator records what its session hands it.
type fakeReplicator struct {
	gens   []int64
	closed bool
}

func (f *fakeReplicator) Append(rec DeltaRecord) { f.gens = append(f.gens, rec.Gen) }
func (f *fakeReplicator) Close()                 { f.closed = true }

// TestReplicatorLifecycle pins the replicator contract the cluster's
// mirrors rely on: Rewire installs a replicator seeded at the checkpoint's
// generation and closes the one it replaces, every acked record reaches the
// installed one, and closing the session closes it but leaves it readable.
// A closed session refuses Rewire without calling install.
func TestReplicatorLifecycle(t *testing.T) {
	r := testRegistry(t, Config{EventRate: -1})
	s := mustCreate(t, r, "acme", 40, 1, BuildSpec{})
	ctx := context.Background()
	move := func(node int) {
		t.Helper()
		if res, err := s.Apply(ctx, Event{Op: "move", Node: node, X: 0.1 + 0.01*float64(node), Y: 0.5}); err != nil || res.Err != "" {
			t.Fatalf("apply: %v / %s", err, res.Err)
		}
	}
	first, second := &fakeReplicator{}, &fakeReplicator{}
	install := func(rep *fakeReplicator, wantGen int64) func(*Checkpoint) Replicator {
		return func(cp *Checkpoint) Replicator {
			if cp.Gen != wantGen {
				t.Fatalf("install saw a checkpoint at gen %d, want %d", cp.Gen, wantGen)
			}
			return rep
		}
	}
	if err := s.Rewire(ctx, install(first, 0)); err != nil {
		t.Fatal(err)
	}
	move(1)
	if err := s.Rewire(ctx, install(second, 1)); err != nil {
		t.Fatal(err)
	}
	move(2)
	if !first.closed || fmt.Sprint(first.gens) != "[1]" {
		t.Fatalf("replaced replicator: closed %v, gens %v; want closed after [1]", first.closed, first.gens)
	}
	if second.closed || fmt.Sprint(second.gens) != "[2]" || s.Replicator() != second {
		t.Fatalf("installed replicator: closed %v, gens %v, installed %v", second.closed, second.gens, s.Replicator() == second)
	}
	if err := r.Delete("acme", s.ID); err != nil {
		t.Fatal(err)
	}
	if !second.closed || s.Replicator() != second {
		t.Fatalf("after Delete: closed %v, still installed %v; want both", second.closed, s.Replicator() == second)
	}
	err := s.Rewire(ctx, func(*Checkpoint) Replicator {
		t.Fatal("Rewire ran install on a closed session")
		return nil
	})
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Rewire on a closed session: %v, want ErrSessionClosed", err)
	}
}

// TestApplyObservesLatency pins that Session.Apply records every applied
// event in its tenant's session.apply_ms histogram, whoever calls it, and
// that a refused apply records nothing.
func TestApplyObservesLatency(t *testing.T) {
	tel := telemetry.New(nil)
	r := testRegistry(t, Config{EventRate: -1, Telemetry: tel})
	s := mustCreate(t, r, "acme", 40, 2, BuildSpec{})
	for i := 0; i < 3; i++ {
		if _, err := s.Apply(context.Background(), Event{Op: "move", Node: i, X: 0.2 + 0.1*float64(i), Y: 0.4}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if _, err := s.Apply(context.Background(), Event{Op: "move", Node: 0, X: 0.9, Y: 0.9}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("apply on a closed session: %v", err)
	}
	h := tel.BucketHistogram(telemetry.LabeledName("session.apply_ms", "tenant", "acme"), telemetry.DefLatencyBuckets)
	if got := h.Snapshot().Count; got != 3 {
		t.Fatalf("session.apply_ms{tenant=acme} count = %d, want 3", got)
	}
}
