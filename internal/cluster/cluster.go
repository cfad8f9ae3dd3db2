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
// The shard registries are the only index of hosted sessions. A session
// always lives on its tenant's ring owner, so placement is derived from
// the ring, and a session's mirrors are its replicator, closed with it:
// the cluster keeps no state per session.
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

// shard is one registry instance. The mirrors it holds are reachable only
// through their sessions (see mirrorSet).
type shard struct {
	id    int
	reg   *session.Registry
	alive bool
}

// Cluster is the sharded session layer: tenant-consistent-hash placement,
// write routing to shard primaries, replica reads, and checkpoint-based
// failover when a shard dies. A session is found by a ring walk to its
// tenant's owner plus one registry lookup. A mirror applies each record
// inside its primary's apply, so a replica read always sees every
// acknowledged write, and hosting a session or a mirror starts no
// goroutine.
type Cluster struct {
	cfg      Config
	ringSize int // resolved per-session delta-ring size for mirrors

	mu     sync.RWMutex
	shards []*shard
	ring   *hashRing
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
		tel:      cfg.Session.Telemetry,
	}
	ids := make([]int, cfg.Shards)
	for i := range c.shards {
		scfg := cfg.Session
		if cfg.Shards > 1 {
			scfg.IDPrefix = fmt.Sprintf("s%d-", i)
		}
		c.shards[i] = &shard{id: i, reg: session.NewRegistry(scfg), alive: true}
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
	primary, err := c.tenantShard(tenant)
	if err != nil {
		return nil, err
	}
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
	// A kill of another shard meanwhile moved none of this tenant's keys,
	// so primary is still its ring owner.
	if err := c.attachLocked(s); err != nil {
		primary.reg.Delete(tenant, s.ID)
		return nil, err
	}
	return s, nil
}

// mirrorSet is a session's replica set, installed as its replicator: one
// mirror on each of the Replicas ring owners after the primary. It lives
// as long as the session's wiring does: the session closes it when it
// closes, and Rewire when it installs the next set.
type mirrorSet []*replica

// Append implements session.Replicator.
func (ms mirrorSet) Append(rec session.DeltaRecord) {
	for _, m := range ms {
		m.append(rec)
	}
}

// Close implements session.Replicator.
func (ms mirrorSet) Close() {
	for _, m := range ms {
		m.close()
	}
}

// on reports whether one of the set's mirrors lives on shard i.
func (ms mirrorSet) on(i int) bool {
	for _, m := range ms {
		if m.shard == i {
			return true
		}
	}
	return false
}

// mirrorsOf returns s's mirror set; attached is false until Create or a
// promotion has installed one.
func mirrorsOf(s *session.Session) (ms mirrorSet, attached bool) {
	ms, attached = s.Replicator().(mirrorSet)
	return ms, attached
}

// attachLocked wires s's replica set on its tenant's current ring owners
// after the primary, initialized from a checkpoint taken under the session
// lock together with the hookup, so no record is lost between capture and
// hookup. The set replaces, and closes, the one installed before; it is
// installed even when empty, which marks s as attached, and then without
// a checkpoint, since no mirror would read it. s must be hosted on its
// tenant's ring owner. Caller holds c.mu.
func (c *Cluster) attachLocked(s *session.Session) error {
	owners := c.ring.owners(s.Tenant, 1+c.cfg.Replicas)[1:]
	if len(owners) == 0 {
		return s.Attach(context.Background(), mirrorSet(nil))
	}
	return s.Rewire(context.Background(), func(cp *session.Checkpoint) session.Replicator {
		ms := make(mirrorSet, 0, len(owners))
		for _, si := range owners {
			ms = append(ms, newReplica(si, cp, c.ringSize))
		}
		return ms
	})
}

// Get returns tenant's session handle for writes (event application).
func (c *Cluster) Get(tenant, id string) (*session.Session, error) {
	sh, err := c.tenantShard(tenant)
	if err != nil {
		return nil, err
	}
	return sh.reg.Get(tenant, id)
}

// Delete ends tenant's session id; the session closes its mirrors.
func (c *Cluster) Delete(tenant, id string) error {
	sh, err := c.tenantShard(tenant)
	if err != nil {
		return err
	}
	return sh.reg.Delete(tenant, id)
}

// EncodeSince serves a conditional read from the first of the session's
// mirrors that answers, falling back to the primary. source reports which
// served ("replica" or "primary").
func (c *Cluster) EncodeSince(ctx context.Context, tenant, id string, since int64, buf *bytes.Buffer) (outcome session.GetOutcome, gen int64, source string, err error) {
	s, err := c.Get(tenant, id)
	if err != nil {
		return session.FullServed, 0, "", err
	}
	ms, _ := mirrorsOf(s)
	for _, m := range ms {
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

// Subscribe attaches a watch, served from the first of the session's
// mirrors that accepts it (its applies push the same records the primary
// would), falling back to the primary session. Either way the watch ends
// when the session closes.
func (c *Cluster) Subscribe(ctx context.Context, tenant, id string, buffer int) (<-chan session.DeltaRecord, int64, func(), string, error) {
	s, err := c.Get(tenant, id)
	if err != nil {
		return nil, 0, nil, "", err
	}
	ms, _ := mirrorsOf(s)
	for _, m := range ms {
		if ch, gen, cancel, ok := m.subscribe(buffer); ok {
			s.Touch()
			return ch, gen, cancel, "replica", nil
		}
	}
	ch, gen, cancel, err := s.Subscribe(ctx, buffer)
	return ch, gen, cancel, "primary", err
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

// tenantShard returns tenant's ring-owner shard, the one that hosts every
// session of tenant.
func (c *Cluster) tenantShard(tenant string) (*shard, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.ownerLocked(tenant)
}

// ownerLocked returns tenant's ring-owner shard. Caller holds c.mu.
func (c *Cluster) ownerLocked(tenant string) (*shard, error) {
	if c.closed {
		return nil, session.ErrClosed
	}
	i, ok := c.ring.owner(tenant)
	if !ok {
		return nil, session.ErrClosed
	}
	return c.shards[i], nil
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

// Status reports shard liveness, the sessions each alive shard hosts, and
// the mirrors each shard holds for them.
func (c *Cluster) Status() Status {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Status{Replicas: c.cfg.Replicas, Shards: make([]ShardStatus, len(c.shards))}
	for i, sh := range c.shards {
		st.Shards[i].ID, st.Shards[i].Alive = sh.id, sh.alive
	}
	for i, sh := range c.shards {
		if !sh.alive {
			continue
		}
		for _, s := range sh.reg.Sessions() {
			st.Shards[i].Sessions++
			st.Sessions++
			ms, _ := mirrorsOf(s)
			for _, m := range ms {
				st.Shards[m.shard].Mirrors++
			}
		}
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
	// session it already evicted is not listed, so it is never promoted.
	doomed := sh.reg.Sessions()
	sh.alive = false
	c.ring = newRing(c.aliveIDsLocked())
	// Close the dead shard's sessions before recovery so they cannot ack
	// further events: everything acked up to this point is on the mirrors,
	// everything after the kill is refused. A closed session's mirrors
	// stop applying but keep their state.
	sh.reg.Close()
	for _, s := range doomed {
		c.promoteLocked(s, &st)
	}
	// The ring lost only shard i's keys, so every other session is still
	// on its tenant's owner; one that had a mirror on shard i gets a fresh
	// set, and Rewire closes the old one.
	for _, live := range c.shards {
		if !live.alive {
			continue
		}
		for _, s := range live.reg.Sessions() {
			if ms, _ := mirrorsOf(s); ms.on(i) && c.attachLocked(s) == nil {
				st.Rereplicated++
			}
		}
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

// promoteLocked fails over one session of a killed shard: checkpoint its
// first mirror on an alive shard (it holds every acked generation), round-
// trip the checkpoint through its serialized form (the same path a
// networked deployment would take), restore on the tenant's new ring
// owner, and attach a fresh mirror set. A session with no surviving mirror
// is lost. Caller holds c.mu.
func (c *Cluster) promoteLocked(s *session.Session, st *RebalanceStats) {
	ms, attached := mirrorsOf(s)
	if !attached {
		return // its Create has not returned it and now fails with ErrClosed
	}
	var src *replica
	for _, m := range ms {
		if c.shards[m.shard].alive {
			src = m
			break
		}
	}
	if src == nil {
		st.Lost++
		return
	}
	t0 := time.Now()
	raw, err := src.checkpoint().Encode()
	if err != nil {
		st.Lost++
		return
	}
	cp, err := session.DecodeCheckpoint(raw)
	if err != nil {
		st.Lost++
		return
	}
	if c.tel.Enabled() {
		c.tel.BucketHistogram("cluster.checkpoint_bytes", checkpointByteBuckets).Observe(float64(len(raw)))
		c.tel.BucketHistogram("cluster.checkpoint_ms", telemetry.DefLatencyBuckets).
			Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	owner, err := c.ownerLocked(s.Tenant)
	if err != nil {
		st.Lost++
		return
	}
	restored, err := owner.reg.Restore(context.Background(), cp)
	if err != nil {
		st.Lost++
		return
	}
	if err := c.attachLocked(restored); err != nil {
		owner.reg.Delete(s.Tenant, s.ID)
		st.Lost++
		return
	}
	st.Moved++
}

// Close drains every shard; each closing session closes its mirrors. Safe
// to call more than once.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	for _, sh := range c.shards {
		sh.reg.Close()
	}
}
