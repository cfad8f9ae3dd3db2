package cluster

import (
	"bytes"
	"sync"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/session"
)

// replica is one read replica of a hosted session: a structural mirror of
// the primary's state (positions and N-graph) plus its own session.Feed,
// fed by the primary's replication hook.
//
// Replication is synchronous. The primary applies every delta record to
// the mirror under the mirror's mutex, inside its own apply and before
// the event is acknowledged, so a mirror always stands at the primary's
// acked generation: a hard-killed primary can never have acked a
// generation its replicas don't hold, and a read served by a mirror is
// never behind a write its client saw acknowledged. Replaying a record is
// a local edit of about a microsecond, so a mirror needs no goroutine.
//
// Lock order: Cluster.mu → session lock → replica.mu. Code holding
// replica.mu takes neither of the others.
type replica struct {
	shard int // hosting shard id, for liveness checks and placement

	mu sync.Mutex

	tenant     string
	theta, rng float64

	pts  []geom.Point
	g    *graph.Graph
	feed *session.Feed // generation, ring, watchers

	closed bool
}

// newReplica seeds a mirror from a checkpoint. The checkpoint must come
// from a Rewire capture (or a just-created session): the first record
// appended afterwards has generation cp.Gen+1.
func newReplica(shard int, cp *session.Checkpoint, ringSize int) *replica {
	m := &replica{
		shard:  shard,
		tenant: cp.Tenant,
		theta:  cp.Theta,
		rng:    cp.Range,
		pts:    cp.Positions(),
		g:      graph.New(len(cp.Points)),
		feed:   session.NewFeed(cp.ID, cp.Gen, ringSize, cp.Ring),
	}
	for _, e := range cp.Edges {
		m.g.AddEdge(e[0], e[1])
	}
	return m
}

// append applies one record the primary is about to acknowledge. Called
// synchronously from the primary session's apply, under its lock.
func (m *replica) append(rec session.DeltaRecord) {
	m.mu.Lock()
	if !m.closed {
		m.applyLocked(rec)
	}
	m.mu.Unlock()
}

// applyLocked replays one record the way a wire client would: the event's
// structural part (a leave swap-removes the node, exactly as the primary's
// graph did), then the edge changes, then the feed publish.
func (m *replica) applyLocked(rec session.DeltaRecord) {
	switch rec.Op {
	case "join":
		m.pts = append(m.pts, geom.Pt(rec.X, rec.Y))
		m.g.AddNode()
	case "leave":
		z := len(m.pts) - 1
		m.g.RemoveNodeSwap(rec.Node)
		m.pts[rec.Node] = m.pts[z]
		m.pts = m.pts[:z]
	case "move":
		m.pts[rec.Node] = geom.Pt(rec.X, rec.Y)
	}
	for _, e := range rec.EdgesRemoved {
		m.g.RemoveEdge(e[0], e[1])
	}
	for _, e := range rec.EdgesAdded {
		m.g.AddEdge(e[0], e[1])
	}
	m.feed.Publish(rec)
}

// tryEncodeSince serves a conditional read from the mirror: same outcomes
// and bytes as the primary's EncodeSince. ok is false when the replica
// must not answer: it is closed, or the caller is ahead of the mirror (it
// holds a generation from some other source; serving would time-travel
// the client backwards).
func (m *replica) tryEncodeSince(since int64, buf *bytes.Buffer) (outcome session.GetOutcome, gen int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen = m.feed.Gen()
	if m.closed || since > gen {
		return 0, 0, false
	}
	outcome, err := m.feed.EncodeSince(since, buf, m.pts, m.g)
	if err != nil {
		return 0, 0, false
	}
	return outcome, gen, true
}

// subscribe registers a watch fed by the mirror's applies, mirroring the
// primary's Subscribe semantics (laggards are disconnected, close means
// resync).
func (m *replica) subscribe(buffer int) (<-chan session.DeltaRecord, int64, func(), bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, nil, false
	}
	ch, id := m.feed.Subscribe(buffer)
	cancel := func() {
		m.mu.Lock()
		m.feed.Unsubscribe(id)
		m.mu.Unlock()
	}
	return ch, m.feed.Gen(), cancel, true
}

// checkpoint serializes the mirror. Because applies are ack-ordered, the
// result holds every generation the primary ever acknowledged.
func (m *replica) checkpoint() *session.Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.feed.Checkpoint(m.tenant, m.theta, m.rng, m.pts, m.g)
}

// close stops applying and disconnects subscribers. Idempotent.
func (m *replica) close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.feed.Close()
	}
	m.mu.Unlock()
}
