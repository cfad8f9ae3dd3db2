// Package cluster shards the hosted-session layer across N registry
// instances — in-process shards behind the same interfaces a networked
// deployment would use. Tenants map to shards by consistent hashing with
// a configurable replication factor: the shard primary owns writes, read
// replicas apply each delta record inside the primary's apply, before the
// ack, and a checkpoint (snapshot + delta ring + generation) rehosts a
// session after a crash or rebalance. This is the paper's locality
// discipline applied to serving: a session's full replication state is
// its bounded delta window, so moving or re-replicating one costs
// O(session), never O(cluster).
//
// Concurrency is three kinds of mutex, always taken in this order:
// Cluster.mu (placement), a session's lock, a replica's lock. Neither a
// session nor a mirror runs a goroutine.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"toporouting/internal/geom"
	"toporouting/internal/session"
	"toporouting/internal/telemetry"
)

// Config parameterizes a Cluster. The zero value is a single shard with no
// replicas — behaviorally identical to one bare session registry.
type Config struct {
	// Shards is the number of in-process registry shards tenants hash
	// onto; 0 selects 1. Session quotas (MaxSessions and per-tenant caps)
	// apply per shard.
	Shards int
	// Replicas is the read-replica count per hosted session, clamped to
	// Shards-1 (replicas never share a shard with their primary).
	Replicas int
	// Session configures every shard's registry. Telemetry rides inside it.
	Session session.Config
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Replicas < 0 {
		c.Replicas = 0
	}
	if c.Replicas > c.Shards-1 {
		c.Replicas = c.Shards - 1
	}
	return c
}

// shard is one registry instance plus the replica mirrors it hosts for
// sessions whose primaries live elsewhere.
type shard struct {
	id      int
	reg     *session.Registry
	alive   bool
	mirrors map[string]*replica
}

// route is the placement record of one hosted session: which shard owns
// writes, and the mirrors serving reads.
type route struct {
	tenant  string
	primary int
	mirrors []*replica
}

// Cluster is the sharded session layer: tenant-consistent-hash placement,
// write routing to shard primaries, replica reads, and checkpoint-based
// failover when a shard dies. A mirror applies each record inside its
// primary's apply, so a replica read always sees every acknowledged
// write, and hosting a session or a mirror starts no goroutine.
type Cluster struct {
	cfg      Config
	ringSize int // resolved per-session delta-ring size for mirrors

	mu     sync.RWMutex
	shards []*shard
	ring   *hashRing
	routes map[string]*route
	closed bool

	tel *telemetry.Telemetry
	// Read-path instruments, each resolved on first use.
	readsReplica, readsPrimary telemetry.Lazy[telemetry.Counter]
}

// checkpointByteBuckets sizes the checkpoint_bytes histogram: serialized
// sessions run from a few KB (hundreds of nodes) to tens of MB (the node
// cap with a deep ring).
var checkpointByteBuckets = []float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}

// New builds the shards and their registries. Shard i mints session ids
// with prefix "s<i>-" when sharding is on, so an id can never collide with
// one minted elsewhere after a rebalance moves it.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	ringSize := cfg.Session.DeltaRing
	if ringSize <= 0 {
		ringSize = 256 // the registry's own DeltaRing default
	}
	c := &Cluster{
		cfg:      cfg,
		ringSize: ringSize,
		shards:   make([]*shard, cfg.Shards),
		routes:   make(map[string]*route),
		tel:      cfg.Session.Telemetry,
	}
	ids := make([]int, cfg.Shards)
	for i := range c.shards {
		scfg := cfg.Session
		if cfg.Shards > 1 {
			scfg.IDPrefix = fmt.Sprintf("s%d-", i)
		}
		c.shards[i] = &shard{
			id:      i,
			reg:     session.NewRegistry(scfg),
			alive:   true,
			mirrors: make(map[string]*replica),
		}
		ids[i] = i
	}
	c.ring = newRing(ids)
	if c.tel.Enabled() {
		c.tel.Gauge("cluster.shards_alive").Set(float64(cfg.Shards))
	}
	return c
}

// Create hosts a topology for tenant on its ring-owner shard and attaches
// the session's replica set.
func (c *Cluster) Create(ctx context.Context, tenant string, pts []geom.Point, spec session.BuildSpec) (*session.Session, error) {
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return nil, session.ErrClosed
	}
	owners := c.ring.owners(tenant, 1)
	if len(owners) == 0 {
		c.mu.RUnlock()
		return nil, session.ErrClosed
	}
	primary := c.shards[owners[0]]
	c.mu.RUnlock()

	// The build runs on the shard registry outside the cluster lock — it
	// can take seconds at large n and must not stall routing.
	s, err := primary.reg.Create(ctx, tenant, pts, spec)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || !primary.alive {
		// The shard died (or the cluster drained) while we were building;
		// its registry already closed the session. Surface as a drain.
		return nil, session.ErrClosed
	}
	c.reapLocked()
	if err := c.attachLocked(s, tenant, primary.id); err != nil {
		primary.reg.Delete(tenant, s.ID)
		return nil, err
	}
	return s, nil
}

// attachLocked wires a session's replica set: one mirror on each of the
// next Replicas alive ring owners after the primary, initialized from a
// checkpoint taken under the session lock together with the hookup, so no
// record is lost between capture and hookup.
// Caller holds c.mu.
func (c *Cluster) attachLocked(s *session.Session, tenant string, primary int) error {
	var mirrors []*replica
	err := s.Rewire(context.Background(), func(cp *session.Checkpoint) func(session.DeltaRecord) {
		for _, si := range c.ring.owners(tenant, 1+c.cfg.Replicas) {
			if si == primary {
				continue
			}
			mirrors = append(mirrors, newReplica(si, cp, c.ringSize))
		}
		if len(mirrors) == 0 {
			return nil
		}
		ms := mirrors
		return func(rec session.DeltaRecord) {
			for _, m := range ms {
				m.append(rec)
			}
		}
	})
	if err != nil {
		closeAll(mirrors)
		return err
	}
	for _, m := range mirrors {
		c.shards[m.shard].mirrors[s.ID] = m
	}
	c.routes[s.ID] = &route{tenant: tenant, primary: primary, mirrors: mirrors}
	return nil
}

// lookup resolves id to its route and primary shard under the read lock.
func (c *Cluster) lookup(tenant, id string) (*route, *shard, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, nil, session.ErrClosed
	}
	rt, ok := c.routes[id]
	if !ok || rt.tenant != tenant {
		return nil, nil, session.ErrNotFound
	}
	return rt, c.shards[rt.primary], nil
}

// primary resolves id to its route and its primary session. The registry
// lookup doubles as the liveness/TTL check: a session its shard's sweeper
// evicted has its route dropped, so no mirror serves it afterwards.
func (c *Cluster) primary(tenant, id string) (*route, *session.Session, error) {
	rt, sh, err := c.lookup(tenant, id)
	if err != nil {
		return nil, nil, err
	}
	s, err := sh.reg.Get(tenant, id)
	if err == session.ErrNotFound {
		c.dropRoute(id)
	}
	return rt, s, err
}

// Get returns tenant's session handle for writes (event application).
func (c *Cluster) Get(tenant, id string) (*session.Session, error) {
	_, s, err := c.primary(tenant, id)
	return s, err
}

// Delete ends tenant's session id and tears down its mirrors.
func (c *Cluster) Delete(tenant, id string) error {
	_, sh, err := c.lookup(tenant, id)
	if err != nil {
		return err
	}
	err = sh.reg.Delete(tenant, id)
	c.dropRoute(id)
	return err
}

// dropRoute removes id's placement record and closes its mirrors.
func (c *Cluster) dropRoute(id string) {
	var mirrors []*replica
	c.mu.Lock()
	if rt, ok := c.routes[id]; ok {
		mirrors = c.unrouteLocked(id, rt)
	}
	c.mu.Unlock()
	closeAll(mirrors)
}

// unrouteLocked removes id's placement record and its mirrors' shard
// entries, returning the mirrors for the caller to close. Caller holds
// c.mu.
func (c *Cluster) unrouteLocked(id string, rt *route) []*replica {
	for _, m := range rt.mirrors {
		delete(c.shards[m.shard].mirrors, id)
	}
	delete(c.routes, id)
	return rt.mirrors
}

// reapLocked drops the route of every session its primary no longer hosts
// and closes the route's mirrors. A shard's registry evicts idle sessions
// without telling the cluster, so without this an evicted session's
// mirrors — full copies of it — would outlive it, and a kill of its old
// shard would promote it back. Caller holds c.mu.
func (c *Cluster) reapLocked() {
	for id, rt := range c.routes {
		if _, err := c.shards[rt.primary].reg.Get(rt.tenant, id); err == session.ErrNotFound {
			closeAll(c.unrouteLocked(id, rt))
		}
	}
}

func closeAll(mirrors []*replica) {
	for _, m := range mirrors {
		m.close()
	}
}

// EncodeSince serves a conditional read, preferring an alive replica and
// falling back to the primary otherwise. source reports which served
// ("replica" or "primary").
func (c *Cluster) EncodeSince(ctx context.Context, tenant, id string, since int64, buf *bytes.Buffer) (outcome session.GetOutcome, gen int64, source string, err error) {
	rt, s, err := c.primary(tenant, id)
	if err != nil {
		return session.FullServed, 0, "", err
	}
	if m := c.pickReplica(rt); m != nil {
		if out, g, ok := m.tryEncodeSince(since, buf); ok {
			s.Touch()
			if c.tel.Enabled() {
				c.readsReplica.Get(func() *telemetry.Counter {
					return c.tel.Counter(telemetry.LabeledName("cluster.reads", "source", "replica"))
				}).Inc()
			}
			return out, g, "replica", nil
		}
	}
	out, g, err := s.EncodeSince(ctx, since, buf)
	if err == nil && c.tel.Enabled() {
		c.readsPrimary.Get(func() *telemetry.Counter {
			return c.tel.Counter(telemetry.LabeledName("cluster.reads", "source", "primary"))
		}).Inc()
	}
	return out, g, "primary", err
}

// Subscribe attaches a watch, served from a replica when one is available
// (its applies push the same records the primary would), falling back to
// the primary session.
func (c *Cluster) Subscribe(ctx context.Context, tenant, id string, buffer int) (<-chan session.DeltaRecord, int64, func(), string, error) {
	rt, s, err := c.primary(tenant, id)
	if err != nil {
		return nil, 0, nil, "", err
	}
	if m := c.pickReplica(rt); m != nil {
		if ch, gen, cancel, ok := m.subscribe(buffer); ok {
			s.Touch()
			return ch, gen, cancel, "replica", nil
		}
	}
	ch, gen, cancel, err := s.Subscribe(ctx, buffer)
	return ch, gen, cancel, "primary", err
}

// pickReplica returns the first alive mirror of rt, or nil.
func (c *Cluster) pickReplica(rt *route) *replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range rt.mirrors {
		if c.shards[m.shard].alive {
			return m
		}
	}
	return nil
}

// AdmitEvents charges one event token against tenant's owner shard.
func (c *Cluster) AdmitEvents(tenant string) (time.Duration, error) {
	sh, err := c.tenantShard(tenant)
	if err != nil {
		return 0, err
	}
	return sh.reg.AdmitEvents(tenant)
}

// WaitEvent charges one token against tenant's owner shard, pacing the
// caller when the bucket is empty.
func (c *Cluster) WaitEvent(ctx context.Context, tenant string) error {
	sh, err := c.tenantShard(tenant)
	if err != nil {
		return err
	}
	return sh.reg.WaitEvent(ctx, tenant)
}

func (c *Cluster) tenantShard(tenant string) (*shard, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, session.ErrClosed
	}
	owners := c.ring.owners(tenant, 1)
	if len(owners) == 0 {
		return nil, session.ErrClosed
	}
	return c.shards[owners[0]], nil
}

// Live reports hosted sessions across alive shards.
func (c *Cluster) Live() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, sh := range c.shards {
		if sh.alive {
			n += sh.reg.Live()
		}
	}
	return n
}

// ShardStatus is one shard's row in the debug status.
type ShardStatus struct {
	ID       int  `json:"id"`
	Alive    bool `json:"alive"`
	Sessions int  `json:"sessions"`
	Mirrors  int  `json:"mirrors"`
}

// Status is the /debug/cluster payload.
type Status struct {
	Shards   []ShardStatus `json:"shards"`
	Replicas int           `json:"replicas"`
	Sessions int           `json:"sessions"`
}

// Status reports shard liveness and session placement, reaping the routes
// of evicted sessions first so it counts only hosted ones.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	st := Status{Replicas: c.cfg.Replicas, Sessions: len(c.routes)}
	for _, sh := range c.shards {
		row := ShardStatus{ID: sh.id, Alive: sh.alive, Mirrors: len(sh.mirrors)}
		if sh.alive {
			row.Sessions = sh.reg.Live()
		}
		st.Shards = append(st.Shards, row)
	}
	return st
}

// RebalanceStats summarizes one forced failover.
type RebalanceStats struct {
	Shard int `json:"shard"`
	// Moved counts sessions promoted from a replica and rehosted.
	Moved int `json:"moved"`
	// Lost counts sessions that had no surviving replica (Replicas=0, or
	// every mirror shard already dead) — their state died with the shard.
	Lost int `json:"lost"`
	// Rereplicated counts sessions whose primary survived but lost a
	// mirror on the dead shard and got a fresh one.
	Rereplicated int `json:"rereplicated"`
}

// Kill hard-stops shard i — the in-process equivalent of SIGKILLing its
// host. Nothing is flushed from the dying shard: recovery uses only the
// mirrors, which the ack-ordered apply already brought to every
// acknowledged generation, so an acknowledged event can never be lost if
// the session had a replica. The shard's primaries are promoted (replica
// checkpoint → serialize → restore-by-rebuild on the new ring owner), and
// surviving primaries that lost a mirror are re-replicated. A session the
// shard already evicted stays gone. The last alive shard cannot be killed.
func (c *Cluster) Kill(i int) (RebalanceStats, error) {
	st := RebalanceStats{Shard: i}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return st, session.ErrClosed
	}
	if i < 0 || i >= len(c.shards) {
		return st, fmt.Errorf("cluster: no shard %d", i)
	}
	sh := c.shards[i]
	if !sh.alive {
		return st, fmt.Errorf("cluster: shard %d already dead", i)
	}
	alive := 0
	for _, s := range c.shards {
		if s.alive {
			alive++
		}
	}
	if alive <= 1 {
		return st, fmt.Errorf("cluster: refusing to kill the last alive shard")
	}

	// Read the dying registry's membership while it still answers: a
	// session it already evicted is dropped here, never promoted.
	c.reapLocked()
	sh.alive = false
	c.ring = newRing(c.aliveIDsLocked())
	// Close the dead shard's sessions before recovery so they cannot ack
	// further events: everything acked up to this point is on the mirrors,
	// everything after the kill is refused.
	sh.reg.Close()
	deadMirrors := sh.mirrors
	sh.mirrors = make(map[string]*replica)

	for id, rt := range c.routes {
		switch {
		case rt.primary == i:
			c.promoteLocked(id, rt, &st)
		case c.routeLostMirrorLocked(rt, i):
			c.rereplicateLocked(id, rt, &st)
		}
	}
	for _, m := range deadMirrors {
		m.close()
	}
	if c.tel.Enabled() {
		c.tel.Counter("cluster.failovers").Inc()
		c.tel.Counter("cluster.ownership_moves").Add(int64(st.Moved))
		c.tel.Counter("cluster.sessions_lost").Add(int64(st.Lost))
		c.tel.Gauge("cluster.shards_alive").Set(float64(alive - 1))
	}
	return st, nil
}

func (c *Cluster) aliveIDsLocked() []int {
	var ids []int
	for _, s := range c.shards {
		if s.alive {
			ids = append(ids, s.id)
		}
	}
	return ids
}

func (c *Cluster) routeLostMirrorLocked(rt *route, dead int) bool {
	for _, m := range rt.mirrors {
		if m.shard == dead {
			return true
		}
	}
	return false
}

// promoteLocked fails a session over: checkpoint the first surviving
// replica (it holds every acked generation), round-trip the checkpoint
// through its serialized form (the same path a networked deployment would
// take), restore on the new ring owner, and attach a fresh mirror set.
func (c *Cluster) promoteLocked(id string, rt *route, st *RebalanceStats) {
	var src *replica
	for _, m := range rt.mirrors {
		if c.shards[m.shard].alive {
			src = m
			break
		}
	}
	if src == nil {
		c.loseLocked(id, rt, st)
		return
	}
	t0 := time.Now()
	raw, err := src.checkpoint().Encode()
	if err != nil {
		c.loseLocked(id, rt, st)
		return
	}
	cp, err := session.DecodeCheckpoint(raw)
	if err != nil {
		c.loseLocked(id, rt, st)
		return
	}
	if c.tel.Enabled() {
		c.tel.BucketHistogram("cluster.checkpoint_bytes", checkpointByteBuckets).Observe(float64(len(raw)))
		c.tel.BucketHistogram("cluster.checkpoint_ms", telemetry.DefLatencyBuckets).
			Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	owners := c.ring.owners(rt.tenant, 1)
	if len(owners) == 0 {
		c.loseLocked(id, rt, st)
		return
	}
	s, err := c.shards[owners[0]].reg.Restore(context.Background(), cp)
	if err != nil {
		c.loseLocked(id, rt, st)
		return
	}
	oldMirrors := c.unrouteLocked(id, rt)
	if err := c.attachLocked(s, rt.tenant, owners[0]); err != nil {
		c.shards[owners[0]].reg.Delete(rt.tenant, id)
		st.Lost++
	} else {
		st.Moved++
	}
	closeAll(oldMirrors)
}

// loseLocked drops a session whose state cannot be recovered.
func (c *Cluster) loseLocked(id string, rt *route, st *RebalanceStats) {
	closeAll(c.unrouteLocked(id, rt))
	st.Lost++
}

// rereplicateLocked rebuilds the mirror set of a session whose primary
// survived but whose replica set lost a shard: a fresh checkpoint, taken
// under the session lock, seeds the new mirrors (dead ones are simply
// discarded — the Kill path closes them).
func (c *Cluster) rereplicateLocked(id string, rt *route, st *RebalanceStats) {
	sh := c.shards[rt.primary]
	s, err := sh.reg.Get(rt.tenant, id)
	oldMirrors := c.unrouteLocked(id, rt)
	// A session evicted between placement and now just loses its route.
	if err == nil && c.attachLocked(s, rt.tenant, rt.primary) == nil {
		st.Rereplicated++
	}
	closeAll(oldMirrors) // idempotent for the dead-shard mirror Kill also closes
}

// Close drains every shard and mirror. Safe to call more than once.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	shards := c.shards
	routes := c.routes
	c.routes = make(map[string]*route)
	c.mu.Unlock()
	for _, sh := range shards {
		sh.reg.Close()
	}
	for _, rt := range routes {
		closeAll(rt.mirrors)
	}
}
