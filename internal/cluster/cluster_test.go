package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	rt := c.routes[id]
	if rt == nil || len(rt.mirrors) == 0 {
		t.Fatalf("session %s has no mirrors", id)
	}
	return rt.mirrors[0]
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

				c.mu.RLock()
				victim := c.routes[s.ID].primary
				c.mu.RUnlock()
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
