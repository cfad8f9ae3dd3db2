package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"toporouting/internal/pointset"
	"toporouting/internal/session"
	"toporouting/internal/telemetry"
)

func testCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Session.IdleTTL == 0 {
		cfg.Session.IdleTTL = -1
	}
	if cfg.Session.EventRate == 0 {
		cfg.Session.EventRate = -1
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

func clusterCreate(t *testing.T, c *Cluster, tenant string, n int, seed int64) *session.Session {
	t.Helper()
	s, err := c.Create(context.Background(), tenant, pointset.Generate(pointset.KindUniform, n, seed), session.BuildSpec{})
	if err != nil {
		t.Fatalf("Create(%s): %v", tenant, err)
	}
	return s
}

// firstMirror returns the session's first mirror (white-box: the tests live
// in the package so they can reach placement state the API hides).
func firstMirror(t testing.TB, c *Cluster, id string) *replica {
	t.Helper()
	for _, sh := range c.shards {
		for _, s := range sh.reg.Sessions() {
			if ms, _ := mirrorsOf(s); s.ID == id && len(ms) > 0 {
				return ms[0]
			}
		}
	}
	t.Fatalf("session %s has no mirrors", id)
	return nil
}

func TestClusterCreateGetDeleteAcrossShards(t *testing.T) {
	c := testCluster(t, Config{Shards: 3, Replicas: 1})
	handles := map[string]*session.Session{}
	for i := 0; i < 6; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		handles[tn] = clusterCreate(t, c, tn, 60, int64(i))
	}
	if got := c.Live(); got != 6 {
		t.Fatalf("Live = %d, want 6", got)
	}
	for tn, s := range handles {
		if _, err := c.Get(tn, s.ID); err != nil {
			t.Fatalf("Get(%s, %s): %v", tn, s.ID, err)
		}
		if _, err := c.Get("mallory", s.ID); !errors.Is(err, session.ErrNotFound) {
			t.Fatalf("cross-tenant Get: want ErrNotFound, got %v", err)
		}
	}
	for tn, s := range handles {
		if err := c.Delete(tn, s.ID); err != nil {
			t.Fatalf("Delete(%s): %v", tn, err)
		}
	}
	if got := c.Live(); got != 0 {
		t.Fatalf("Live after deletes = %d, want 0", got)
	}
	st := c.Status()
	for _, row := range st.Shards {
		if row.Mirrors != 0 {
			t.Fatalf("shard %d still hosts %d mirrors after deletes", row.ID, row.Mirrors)
		}
	}
}

// TestReplicaReadEquivalence pins the replica read contract: a caught-up
// mirror serves byte-identical responses to the primary for every cursor —
// 304, delta, and full snapshot alike — and the cluster reports the source.
// The mixed case sends joins and leaves through the mirror's swap-remove
// replay. Each case then kills the primary's shard: the session promoted
// from the mirror's checkpoint must read the same as a session in a bare
// registry that saw the same events.
func TestReplicaReadEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		nodes  int
		ring   int        // DeltaRing; 0 keeps the default
		seeds  [][2]int64 // (point seed, event seed)
		events int
		mixed  bool
	}{
		{name: "moves", nodes: 80, seeds: [][2]int64{{9, 17}}, events: 20},
		{name: "join-leave-move", nodes: 60, ring: 64, seeds: [][2]int64{{1, 101}, {2, 102}, {3, 103}, {4, 104}, {5, 105}}, events: 200, mixed: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range tc.seeds {
				cfg := session.Config{IdleTTL: -1, EventRate: -1, DeltaRing: tc.ring}
				c := testCluster(t, Config{Shards: 2, Replicas: 1, Session: cfg})
				pts := pointset.Generate(pointset.KindUniform, tc.nodes, seed[0])
				s, err := c.Create(context.Background(), "acme", pts, session.BuildSpec{})
				if err != nil {
					t.Fatal(err)
				}
				// The reference mints the same id: the shard's prefix, first
				// sequence number.
				cfg.IDPrefix = s.ID[:strings.Index(s.ID, "-")+1]
				ref := session.NewRegistry(cfg)
				t.Cleanup(ref.Close)
				want, err := ref.Create(context.Background(), "acme", pts, session.BuildSpec{})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed[1]))
				applyBoth(t, s, want, rng, tc.events, tc.mixed)
				requireReplicaReads(t, c, s)

				victim, _ := c.ring.owner("acme")
				if rb, err := c.Kill(victim); err != nil || rb.Moved != 1 {
					t.Fatalf("Kill(%d): %+v, %v", victim, rb, err)
				}
				promoted, err := c.Get("acme", s.ID)
				if err != nil {
					t.Fatalf("promoted session: %v", err)
				}
				requireSameReads(t, want, promoted, "promoted")
				applyBoth(t, promoted, want, rng, 20, tc.mixed)
				requireSameReads(t, want, promoted, "promoted after churn")
			}
		})
	}
}

// applyBoth applies count events drawn from rng (see randomEvent) to a and
// b, requiring the same echo from both.
func applyBoth(t *testing.T, a, b *session.Session, rng *rand.Rand, count int, mixed bool) {
	t.Helper()
	ctx := context.Background()
	n := liveN(t, a)
	for i := 0; i < count; i++ {
		ev := randomEvent(rng, n, mixed)
		ra, err := a.Apply(ctx, ev)
		if err != nil || ra.Err != "" {
			t.Fatalf("apply %d (%+v): %v / %s", i, ev, err, ra.Err)
		}
		rb, err := b.Apply(ctx, ev)
		if err != nil || rb.Gen != ra.Gen || rb.N != ra.N || rb.Err != "" {
			t.Fatalf("reference apply %d (%+v): %+v vs %+v, %v", i, ev, rb, ra, err)
		}
		n = ra.N
	}
}

// randomEvent draws one event over n nodes: with mixed, one fifth joins,
// one fifth leaves and the rest moves; otherwise a move.
func randomEvent(rng *rand.Rand, n int, mixed bool) session.Event {
	ev := session.Event{Op: "move", Node: rng.Intn(n), X: rng.Float64(), Y: rng.Float64()}
	if mixed {
		switch rng.Intn(5) {
		case 0:
			ev = session.Event{Op: "join", X: ev.X, Y: ev.Y}
		case 1:
			ev = session.Event{Op: "leave", Node: ev.Node}
		}
	}
	return ev
}

func liveN(t *testing.T, s *session.Session) int {
	t.Helper()
	st, err := s.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st.N
}

// requireReplicaReads asserts that the cluster serves s from a replica with
// the primary's exact bytes at every cursor class.
func requireReplicaReads(t *testing.T, c *Cluster, s *session.Session) {
	t.Helper()
	ctx := context.Background()
	gen, err := s.Gen(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, since := range []int64{-1, gen, gen - 1, gen - 10, 0} {
		var want bytes.Buffer
		wo, wg, err := s.EncodeSince(ctx, since, &want)
		if err != nil {
			t.Fatalf("primary EncodeSince(%d): %v", since, err)
		}
		var got bytes.Buffer
		o, g, source, err := c.EncodeSince(ctx, s.Tenant, s.ID, since, &got)
		if err != nil {
			t.Fatalf("cluster EncodeSince(%d): %v", since, err)
		}
		if source != "replica" {
			t.Fatalf("since=%d served by %q, want replica", since, source)
		}
		if o != wo || g != wg || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("since=%d replica diverged from primary:\nprimary (%v, %d): %s\nreplica (%v, %d): %s",
				since, wo, wg, want.Bytes(), o, g, got.Bytes())
		}
	}
}

// requireSameReads asserts that a and b serve byte-identical responses for
// every probed cursor: current (304), one and several generations behind
// (deltas), both sides of a 64-record ring's edge, and no cursor at all.
func requireSameReads(t *testing.T, a, b *session.Session, label string) {
	t.Helper()
	ctx := context.Background()
	gen, err := a.Gen(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, since := range []int64{-1, gen, gen - 1, gen - 5, gen - 63, gen - 64, gen - 65, 0} {
		var ab, bb bytes.Buffer
		ao, ag, aerr := a.EncodeSince(ctx, since, &ab)
		bo, bg, berr := b.EncodeSince(ctx, since, &bb)
		if aerr != nil || berr != nil {
			t.Fatalf("%s: since=%d: %v / %v", label, since, aerr, berr)
		}
		if ao != bo || ag != bg || !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("%s: since=%d diverged:\nreference (%v, %d): %s\npromoted (%v, %d): %s",
				label, since, ao, ag, ab.Bytes(), bo, bg, bb.Bytes())
		}
	}
}

// TestReplicaReadYourWrite pins synchronous replication: a read issued
// right after Apply returns is served by the replica at exactly the acked
// generation, for every event of a mixed stream. An Apply under a
// cancelled context runs nothing: it returns context.Canceled and neither
// the primary nor its mirror advances.
func TestReplicaReadYourWrite(t *testing.T) {
	c := testCluster(t, Config{Shards: 3, Replicas: 2})
	s := clusterCreate(t, c, "acme", 60, 4)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	n := 60
	var buf bytes.Buffer
	for i := 0; i < 100; i++ {
		ev := randomEvent(rng, n, true)
		res, err := s.Apply(ctx, ev)
		if err != nil || res.Err != "" {
			t.Fatalf("apply %d (%+v): %v / %s", i, ev, err, res.Err)
		}
		n = res.N
		buf.Reset()
		out, gen, source, err := c.EncodeSince(ctx, "acme", s.ID, res.Gen-1, &buf)
		if err != nil || source != "replica" || gen != res.Gen || out != session.DeltaServed {
			t.Fatalf("read after apply %d: outcome %v gen %d source %q err %v, want a replica delta at gen %d",
				i, out, gen, source, err, res.Gen)
		}
	}

	acked, err := s.Gen(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Apply(cancelled, session.Event{Op: "join", X: 0.5, Y: 0.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("apply under a cancelled ctx: %v, want context.Canceled", err)
	}
	if gen, err := s.Gen(ctx); err != nil || gen != acked {
		t.Fatalf("primary at gen %d (%v) after a cancelled apply, want %d", gen, err, acked)
	}
	buf.Reset()
	if out, gen, source, err := c.EncodeSince(ctx, "acme", s.ID, acked, &buf); err != nil || source != "replica" || gen != acked || out != session.NotModified {
		t.Fatalf("mirror read after a cancelled apply: outcome %v gen %d source %q err %v, want not-modified at %d", out, gen, source, err, acked)
	}
}

// TestHostingStartsNoGoroutine pins that a session and its mirrors are
// data, not threads: hosting 32 sessions with two mirrors each on four
// shards and applying events to them leaves the goroutine count where it
// was after New, and deleting them leaves it there too.
func TestHostingStartsNoGoroutine(t *testing.T) {
	const (
		sessions = 32
		slack    = 4 // unrelated runtime and test-framework goroutines
	)
	c := testCluster(t, Config{Shards: 4, Replicas: 2})
	base := runtime.NumGoroutine()
	ctx := context.Background()
	handles := make([]*session.Session, sessions)
	for i := range handles {
		handles[i] = clusterCreate(t, c, fmt.Sprintf("tenant-%d", i), 40, int64(i))
		for j := 0; j < 3; j++ {
			if res, err := handles[i].Apply(ctx, session.Event{Op: "move", Node: j, X: 0.1 * float64(i%10), Y: 0.3 + 0.1*float64(j)}); err != nil || res.Err != "" {
				t.Fatalf("session %d apply %d: %v / %s", i, j, err, res.Err)
			}
		}
	}
	if got := runtime.NumGoroutine(); got > base+slack {
		t.Fatalf("%d goroutines with %d sessions hosted, %d after New: hosting must start none", got, sessions, base)
	}
	for i, s := range handles {
		if err := c.Delete(s.Tenant, s.ID); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if got := runtime.NumGoroutine(); got > base+slack {
		t.Fatalf("%d goroutines after every session was deleted, %d after New", got, base)
	}
}

// TestAttachWithoutMirrorsSkipsCheckpoint pins that wiring an empty
// replica set (Replicas: 0, the default daemon) captures no checkpoint:
// attachLocked at n=2000 allocates at most twice, where a capture of the
// points, edge list and ring costs nine allocations. The set is still
// installed, so the session counts as attached.
func TestAttachWithoutMirrorsSkipsCheckpoint(t *testing.T) {
	c := testCluster(t, Config{Shards: 2})
	s := clusterCreate(t, c, "acme", 2000, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.attachLocked(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("attachLocked with no mirrors: %v allocations per call, want ≤ 2", allocs)
	}
	if ms, attached := mirrorsOf(s); !attached || len(ms) != 0 {
		t.Fatalf("after attach: attached %v with %d mirrors, want attached with none", attached, len(ms))
	}
}

// TestClusterKillRebalance is the tentpole's crash drill, run under -race:
// eight tenants stream moves concurrently while the busiest shard is
// hard-killed mid-run. Every session must survive via promotion from its
// replica log, and — the invariant everything else exists for — no event
// the cluster ever acknowledged may be missing afterwards.
func TestClusterKillRebalance(t *testing.T) {
	tel := telemetry.New(nil)
	c := testCluster(t, Config{Shards: 4, Replicas: 2, Session: session.Config{IdleTTL: -1, EventRate: -1, Telemetry: tel}})
	const (
		tenants = 8
		nodes   = 100
		events  = 200
	)
	ids := make([]string, tenants)
	for i := 0; i < tenants; i++ {
		ids[i] = clusterCreate(t, c, fmt.Sprintf("tenant-%d", i), nodes, int64(i)).ID
	}

	maxAcked := make([]int64, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := fmt.Sprintf("tenant-%d", i)
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			for ev := 0; ev < events; ev++ {
				ok := false
				for attempt := 0; attempt < 400; attempt++ {
					s, err := c.Get(tn, ids[i])
					if err == nil {
						res, aerr := s.Apply(context.Background(), session.Event{
							Op: "move", Node: rng.Intn(nodes), X: rng.Float64(), Y: rng.Float64(),
						})
						if aerr == nil && res.Err == "" {
							// Acked: the cluster answered this event. Its
							// generation is now a floor the session must
							// never drop below, kill or no kill.
							if res.Gen > maxAcked[i] {
								maxAcked[i] = res.Gen
							}
							ok = true
							break
						}
					}
					time.Sleep(2 * time.Millisecond) // failover window; retry
				}
				if !ok {
					t.Errorf("tenant %d: event %d never applied", i, ev)
					return
				}
			}
		}(i)
	}

	// Let the streams build up, then kill the shard hosting the most
	// sessions — the worst case the rebalance can face.
	time.Sleep(100 * time.Millisecond)
	victim, most := -1, -1
	for _, row := range c.Status().Shards {
		if row.Alive && row.Sessions > most {
			victim, most = row.ID, row.Sessions
		}
	}
	if most < 1 {
		t.Fatal("no shard hosts a session")
	}
	rb, err := c.Kill(victim)
	if err != nil {
		t.Fatalf("Kill(%d): %v", victim, err)
	}
	if rb.Lost != 0 {
		t.Fatalf("kill lost %d sessions (moved %d, rereplicated %d) — replica logs must cover every acked event", rb.Lost, rb.Moved, rb.Rereplicated)
	}
	if rb.Moved != most {
		t.Fatalf("moved %d sessions, shard hosted %d", rb.Moved, most)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		s, err := c.Get(tn, ids[i])
		if err != nil {
			t.Fatalf("tenant %d: session gone after rebalance: %v", i, err)
		}
		gen, err := s.Gen(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gen < maxAcked[i] {
			t.Fatalf("tenant %d: ACKED EVENT LOST — session at gen %d, acked through %d", i, gen, maxAcked[i])
		}
	}
	if got := tel.Counter("cluster.failovers").Value(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}
	if lost := tel.Counter("cluster.sessions_lost").Value(); lost != 0 {
		t.Fatalf("sessions_lost counter = %d, want 0", lost)
	}

	// Guard rails: a dead shard cannot die twice, and the last alive shard
	// is unkillable.
	if _, err := c.Kill(victim); err == nil {
		t.Fatal("second Kill of the same shard succeeded")
	}
	alive := c.Status()
	n := 0
	for _, row := range alive.Shards {
		if row.Alive {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("alive shards = %d, want 3", n)
	}
}

// TestIdleEvictionDropsRoutes pins that a session its shard's sweeper
// evicts takes its route and mirrors with it: a later kill of its old
// shard must not promote it back, and the status must count neither it nor
// its mirrors.
func TestIdleEvictionDropsRoutes(t *testing.T) {
	const tenants = 8
	c := testCluster(t, Config{Shards: 4, Replicas: 2, Session: session.Config{IdleTTL: 40 * time.Millisecond}})
	ids := make([]string, tenants)
	hosted := map[int]int{} // sessions per primary shard, read off the id prefix
	for i := range ids {
		ids[i] = clusterCreate(t, c, fmt.Sprintf("tenant-%d", i), 60, int64(i)).ID
		var shard int
		if _, err := fmt.Sscanf(ids[i], "s%d-", &shard); err != nil {
			t.Fatalf("session id %q carries no shard prefix: %v", ids[i], err)
		}
		hosted[shard]++
	}
	victim := -1
	for sh, n := range hosted {
		if victim < 0 || n > hosted[victim] {
			victim = sh
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Live() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after 5 s with a 40 ms idle TTL", c.Live())
		}
		time.Sleep(10 * time.Millisecond)
	}

	rb, err := c.Kill(victim)
	if err != nil {
		t.Fatalf("Kill(%d): %v", victim, err)
	}
	if rb.Moved != 0 || rb.Lost != 0 || rb.Rereplicated != 0 {
		t.Fatalf("kill of shard %d, which hosted %d evicted sessions: %+v, want nothing moved", victim, hosted[victim], rb)
	}
	for i, id := range ids {
		if _, err := c.Get(fmt.Sprintf("tenant-%d", i), id); !errors.Is(err, session.ErrNotFound) {
			t.Fatalf("evicted session %s after the kill: Get err = %v, want ErrNotFound", id, err)
		}
	}
	st := c.Status()
	mirrors := 0
	for _, row := range st.Shards {
		mirrors += row.Mirrors
	}
	if st.Sessions != 0 || mirrors != 0 {
		t.Fatalf("status after eviction holds %d sessions and %d mirrors, want none", st.Sessions, mirrors)
	}
}

// TestKillLastShardRefused pins the refusal path without load.
func TestKillLastShardRefused(t *testing.T) {
	c := testCluster(t, Config{Shards: 1})
	if _, err := c.Kill(0); err == nil {
		t.Fatal("killed the last alive shard")
	}
	if _, err := c.Kill(7); err == nil {
		t.Fatal("killed a shard that does not exist")
	}
}

// mirrorState reads a mirror's generation and whether it is still open.
func mirrorState(m *replica) (gen int64, open bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.feed.Gen(), !m.closed
}

// TestEvictionClosesMirrors pins that a session's mirrors live exactly as
// long as the session: once the idle sweeper has evicted every session,
// every mirror taken before the eviction closes, with no further call into
// the cluster to notice it.
func TestEvictionClosesMirrors(t *testing.T) {
	const tenants = 8
	c := testCluster(t, Config{Shards: 4, Replicas: 2, Session: session.Config{IdleTTL: 40 * time.Millisecond}})
	var mirrors []*replica
	for i := 0; i < tenants; i++ {
		s := clusterCreate(t, c, fmt.Sprintf("tenant-%d", i), 60, int64(i))
		ms, _ := mirrorsOf(s)
		if len(ms) != 2 {
			t.Fatalf("session %s has %d mirrors, want 2", s.ID, len(ms))
		}
		mirrors = append(mirrors, ms...)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Live() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after 5 s with a 40 ms idle TTL", c.Live())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The sweeper closes what it evicted just after Live drops, so give it
	// a moment.
	deadline = time.Now().Add(2 * time.Second)
	for {
		open := 0
		for _, m := range mirrors {
			if _, ok := mirrorState(m); ok {
				open++
			}
		}
		if open == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d mirrors still open 2 s after their sessions were evicted", open, len(mirrors))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMirrorWatchEndsAtEviction pins that a watch a mirror serves ends when
// its session is evicted, as a primary-served watch does.
func TestMirrorWatchEndsAtEviction(t *testing.T) {
	c := testCluster(t, Config{Shards: 3, Replicas: 1, Session: session.Config{IdleTTL: 40 * time.Millisecond}})
	s := clusterCreate(t, c, "acme", 60, 1)
	ch, _, cancel, source, err := c.Subscribe(context.Background(), "acme", s.ID, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if source != "replica" {
		t.Fatalf("watch served by %q, want replica", source)
	}
	timeout := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-timeout:
			t.Fatal("mirror-served watch still open 2 s after a 40 ms idle TTL")
		}
	}
}

// TestPlacementProperty runs seeded random sequences of create, event,
// delete, read and kill over eight tenants and checks, after every step,
// the invariant the cluster's lookups rest on: every hosted session lives
// on its tenant's ring owner, with exactly min(Replicas, alive-1) open
// mirrors on the next ring owners, each at the primary's generation; a
// mirror no session holds any more is closed; the status counts what the
// registries host; and a deleted session answers ErrNotFound everywhere.
func TestPlacementProperty(t *testing.T) {
	const (
		tenants = 8
		nodes   = 30
		steps   = 120
	)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			c := testCluster(t, Config{Shards: 4, Replicas: 2, Session: session.Config{IdleTTL: -1}})
			ctx := context.Background()
			rng := rand.New(rand.NewSource(seed))
			live := map[string]string{} // session id → tenant
			gone := map[string]string{}
			var held map[*replica]bool // the mirrors the sessions held after the last step
			pick := func() (id, tenant string) {
				ids := make([]string, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				id = ids[rng.Intn(len(ids))]
				return id, live[id]
			}
			for step := 0; step < steps; step++ {
				op := rng.Intn(40)
				switch {
				case op < 12 || len(live) == 0:
					tn := fmt.Sprintf("tenant-%d", rng.Intn(tenants))
					s := clusterCreate(t, c, tn, nodes, rng.Int63())
					live[s.ID] = tn
				case op < 24:
					id, tn := pick()
					s, err := c.Get(tn, id)
					if err != nil {
						t.Fatalf("step %d: Get(%s): %v", step, id, err)
					}
					ev := session.Event{Op: "move", Node: rng.Intn(nodes), X: rng.Float64(), Y: rng.Float64()}
					if res, err := s.Apply(ctx, ev); err != nil || res.Err != "" {
						t.Fatalf("step %d: apply to %s: %v / %s", step, id, err, res.Err)
					}
				case op < 30:
					id, tn := pick()
					if err := c.Delete(tn, id); err != nil {
						t.Fatalf("step %d: Delete(%s): %v", step, id, err)
					}
					delete(live, id)
					gone[id] = tn
				case op < 39:
					id, tn := pick()
					s, err := c.Get(tn, id)
					if err != nil {
						t.Fatalf("step %d: Get(%s): %v", step, id, err)
					}
					gen, err := s.Gen(ctx)
					if err != nil {
						t.Fatal(err)
					}
					want := "replica"
					if len(c.aliveIDsLocked()) == 1 {
						want = "primary" // no shard left for a mirror
					}
					var buf bytes.Buffer
					since := rng.Int63n(gen+2) - 1 // a cursor in [-1, gen]
					if _, g, source, err := c.EncodeSince(ctx, tn, id, since, &buf); err != nil || source != want || g != gen {
						t.Fatalf("step %d: read %s since %d: source %q, gen %d (primary %d), %v; want %s", step, id, since, source, g, gen, err, want)
					}
				default:
					var alive []int
					for _, row := range c.Status().Shards {
						if row.Alive {
							alive = append(alive, row.ID)
						}
					}
					if len(alive) == 1 {
						continue
					}
					victim := alive[rng.Intn(len(alive))]
					rb, err := c.Kill(victim)
					if err != nil || rb.Lost != 0 {
						t.Fatalf("step %d: Kill(%d): %+v, %v", step, victim, rb, err)
					}
				}
				now := checkPlacement(t, c, step, live, gone)
				for m := range held {
					if _, open := mirrorState(m); open && !now[m] {
						t.Fatalf("step %d: a mirror on shard %d outlived its session's wiring", step, m.shard)
					}
				}
				held = now
			}
		})
	}
}

// checkPlacement asserts the placement invariant of TestPlacementProperty
// and returns the mirrors the hosted sessions hold.
func checkPlacement(t *testing.T, c *Cluster, step int, live, gone map[string]string) map[*replica]bool {
	t.Helper()
	held := map[*replica]bool{}
	ctx := context.Background()
	alive := len(c.aliveIDsLocked())
	wantMirrors := min(c.cfg.Replicas, alive-1)
	hosted := 0
	for _, sh := range c.shards {
		if !sh.alive {
			continue
		}
		for _, s := range sh.reg.Sessions() {
			hosted++
			if owner, _ := c.ring.owner(s.Tenant); owner != sh.id {
				t.Fatalf("step %d: session %s of %s on shard %d, ring owner %d", step, s.ID, s.Tenant, sh.id, owner)
			}
			if live[s.ID] != s.Tenant {
				t.Fatalf("step %d: shard %d hosts %s of %s, which the model does not hold", step, sh.id, s.ID, s.Tenant)
			}
			gen, err := s.Gen(ctx)
			if err != nil {
				t.Fatal(err)
			}
			ms, _ := mirrorsOf(s)
			owners := c.ring.owners(s.Tenant, 1+c.cfg.Replicas)
			if len(ms) != wantMirrors {
				t.Fatalf("step %d: session %s has %d mirrors, want %d", step, s.ID, len(ms), wantMirrors)
			}
			for k, m := range ms {
				held[m] = true
				mg, open := mirrorState(m)
				if m.shard != owners[1+k] || !open || mg != gen {
					t.Fatalf("step %d: session %s mirror %d on shard %d (open %v, gen %d), want shard %d of %v, open, gen %d",
						step, s.ID, k, m.shard, open, mg, owners[1+k], owners, gen)
				}
			}
		}
	}
	if hosted != len(live) {
		t.Fatalf("step %d: registries host %d sessions, model holds %d", step, hosted, len(live))
	}
	if st, n := c.Status(), c.Live(); st.Sessions != n || n != hosted {
		t.Fatalf("step %d: Status().Sessions = %d, Live() = %d, hosted %d", step, st.Sessions, n, hosted)
	}
	for id, tn := range gone {
		var buf bytes.Buffer
		_, getErr := c.Get(tn, id)
		_, _, _, readErr := c.EncodeSince(ctx, tn, id, -1, &buf)
		_, _, _, _, subErr := c.Subscribe(ctx, tn, id, 1)
		delErr := c.Delete(tn, id)
		for _, err := range []error{getErr, readErr, subErr, delErr} {
			if !errors.Is(err, session.ErrNotFound) {
				t.Fatalf("step %d: deleted session %s: Get %v, EncodeSince %v, Subscribe %v, Delete %v, want ErrNotFound",
					step, id, getErr, readErr, subErr, delErr)
			}
		}
	}
	return held
}
