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
// Replication is split into a synchronous log append and an asynchronous
// apply. The primary's loop appends every delta record to the replica's
// log *before* the event is acknowledged — so a hard-killed primary can
// never have acked a generation its replicas don't hold — while a tailer
// goroutine advances the mirror along the log by generation cursor. The
// replica's lag is logGen minus the feed's generation: zero when caught
// up, bounded by the cluster's staleness budget for reads, irrelevant for
// durability (the log is already on the replica).
type replica struct {
	shard int // hosting shard id, for liveness checks and placement

	mu   sync.Mutex
	cond *sync.Cond

	tenant     string
	theta, rng float64

	logGen int64 // generation of the newest appended (acked) record
	log    []session.DeltaRecord

	pts  []geom.Point
	g    *graph.Graph
	feed *session.Feed // generation the mirror has applied up to, ring, watchers

	paused bool // test hook: the tailer holds off applying
	closed bool
	done   chan struct{} // closed when the tailer exits
}

// newReplica seeds a mirror from a checkpoint and starts its tailer. The
// checkpoint must come from a Rewire capture (or a just-created session):
// the first record appended afterwards has generation cp.Gen+1.
func newReplica(shard int, cp *session.Checkpoint, ringSize int) *replica {
	m := &replica{
		shard:  shard,
		tenant: cp.Tenant,
		theta:  cp.Theta,
		rng:    cp.Range,
		logGen: cp.Gen,
		pts:    cp.Positions(),
		g:      graph.New(len(cp.Points)),
		feed:   session.NewFeed(cp.ID, cp.Gen, ringSize, cp.Ring),
		done:   make(chan struct{}),
	}
	for _, e := range cp.Edges {
		m.g.AddEdge(e[0], e[1])
	}
	m.cond = sync.NewCond(&m.mu)
	go m.tail()
	return m
}

// append adds one acked record to the replica's log. Called synchronously
// from the primary session's loop; must not block.
func (m *replica) append(rec session.DeltaRecord) {
	m.mu.Lock()
	if !m.closed {
		m.log = append(m.log, rec)
		m.logGen = rec.Gen
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// tail is the apply loop: it advances the mirror along the log, one
// generation at a time, and fans applied records out to watch subscribers.
func (m *replica) tail() {
	defer close(m.done)
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for !m.closed && (m.paused || len(m.log) == 0) {
			m.cond.Wait()
		}
		if m.closed {
			m.feed.Close()
			return
		}
		m.applyNextLocked()
	}
}

// applyNextLocked pops the oldest log record and applies it.
func (m *replica) applyNextLocked() {
	rec := m.log[0]
	m.log = m.log[1:]
	if len(m.log) == 0 {
		m.log = nil // release the drained backing array
	}
	m.applyLocked(rec)
}

// applyLocked replays one record the way a wire client would: the event's
// structural part (a leave swap-removes the node, exactly as the primary's
// graph did), then the net edge changes, then the feed publish.
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

// lag reports how many acked generations the mirror has yet to apply.
func (m *replica) lag() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logGen - m.feed.Gen()
}

// tryEncodeSince serves a conditional read from the mirror: same outcomes
// and bytes as the primary's EncodeSince. ok is false when the replica
// must not answer — its lag exceeds the staleness budget, or the caller
// is ahead of the mirror (it has seen a generation the cursor has not
// reached yet; serving would time-travel the client backwards).
func (m *replica) tryEncodeSince(since, budget int64, buf *bytes.Buffer) (outcome session.GetOutcome, gen int64, lag int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gen = m.feed.Gen()
	lag = m.logGen - gen
	if m.closed || lag > budget || since > gen {
		return 0, 0, lag, false
	}
	outcome, err := m.feed.EncodeSince(since, buf, m.pts, m.g)
	if err != nil {
		return 0, 0, lag, false
	}
	return outcome, gen, lag, true
}

// subscribe registers a watch fed by the tailer, mirroring the primary's
// Subscribe semantics (laggards are disconnected, close means resync).
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

// checkpoint drains the pending log inline — promotion must not wait on
// the tailer (or respect a test pause) — and serializes the fully
// caught-up mirror. Because appends are ack-ordered, the result holds
// every generation the dead primary ever acknowledged.
func (m *replica) checkpoint() *session.Checkpoint {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.log) > 0 {
		m.applyNextLocked()
	}
	return m.feed.Checkpoint(m.tenant, m.theta, m.rng, m.pts, m.g)
}

// setPaused is a test hook: a paused tailer stops applying (lag grows)
// while appends keep landing in the log.
func (m *replica) setPaused(p bool) {
	m.mu.Lock()
	m.paused = p
	m.cond.Broadcast()
	m.mu.Unlock()
}

// close stops the tailer and disconnects subscribers. Idempotent; waits
// for the tailer to exit.
func (m *replica) close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	<-m.done
}
