package cluster

import (
	"bytes"
	"encoding/json"
	"sort"
	"sync"

	"toporouting/internal/session"
)

// replica is one read replica of a hosted session: a structural mirror of
// the primary's wire state (points + N-edge set) plus its own copy of the
// delta ring, fed by the primary's replication hook.
//
// Replication is split into a synchronous log append and an asynchronous
// apply. The primary's loop appends every delta record to the replica's
// log *before* the event is acknowledged — so a hard-killed primary can
// never have acked a generation its replicas don't hold — while a tailer
// goroutine advances the mirror along the log by generation cursor. The
// replica's lag is logGen-gen: zero when caught up, bounded by the
// cluster's staleness budget for reads, irrelevant for durability (the
// log is already on the replica).
type replica struct {
	shard int // hosting shard id, for liveness checks and placement

	mu   sync.Mutex
	cond *sync.Cond

	id, tenant string
	theta, rng float64

	logGen int64 // generation of the newest appended (acked) record
	log    []session.DeltaRecord

	gen    int64 // generation the mirror has applied up to
	points [][2]float64
	edges  map[[2]int]bool

	ring       []session.DeltaRecord // same circular discipline as the session's
	head, live int

	subs   map[int]chan session.DeltaRecord
	subSeq int

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
		id:     cp.ID,
		tenant: cp.Tenant,
		theta:  cp.Theta,
		rng:    cp.Range,
		logGen: cp.Gen,
		gen:    cp.Gen,
		points: append([][2]float64(nil), cp.Points...),
		edges:  make(map[[2]int]bool, len(cp.Edges)),
		ring:   make([]session.DeltaRecord, ringSize),
		subs:   make(map[int]chan session.DeltaRecord),
		done:   make(chan struct{}),
	}
	for _, e := range cp.Edges {
		m.edges[e] = true
	}
	recs := cp.Ring
	if len(recs) > ringSize {
		recs = recs[len(recs)-ringSize:]
	}
	m.live = copy(m.ring, recs)
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
			for id, ch := range m.subs {
				close(ch)
				delete(m.subs, id)
			}
			return
		}
		m.applyNextLocked()
	}
}

// applyNextLocked pops the oldest log record and applies it: the event's
// structural replay (exactly the wire client's discipline), then the net
// edge changes, then the ring push and subscriber fanout.
func (m *replica) applyNextLocked() {
	rec := m.log[0]
	m.log = m.log[1:]
	if len(m.log) == 0 {
		m.log = nil // release the drained backing array
	}
	switch rec.Op {
	case "join":
		m.points = append(m.points, [2]float64{rec.X, rec.Y})
	case "leave":
		x, z := rec.Node, len(m.points)-1
		for e := range m.edges {
			if e[0] == x || e[1] == x {
				delete(m.edges, e)
			}
		}
		if x != z {
			for e := range m.edges {
				if e[0] == z || e[1] == z {
					delete(m.edges, e)
					u, v := e[0], e[1]
					if u == z {
						u = x
					}
					if v == z {
						v = x
					}
					if u > v {
						u, v = v, u
					}
					m.edges[[2]int{u, v}] = true
				}
			}
			m.points[x] = m.points[z]
		}
		m.points = m.points[:z]
	case "move":
		m.points[rec.Node] = [2]float64{rec.X, rec.Y}
	}
	for _, e := range rec.EdgesRemoved {
		delete(m.edges, e)
	}
	for _, e := range rec.EdgesAdded {
		m.edges[e] = true
	}
	m.gen = rec.Gen
	m.pushLocked(rec)
	for id, ch := range m.subs {
		select {
		case ch <- rec:
		default:
			close(ch)
			delete(m.subs, id)
		}
	}
}

func (m *replica) pushLocked(rec session.DeltaRecord) {
	if len(m.ring) == 0 {
		return
	}
	if m.live < len(m.ring) {
		m.ring[(m.head+m.live)%len(m.ring)] = rec
		m.live++
		return
	}
	m.ring[m.head] = rec
	m.head = (m.head + 1) % len(m.ring)
}

// lag reports how many acked generations the mirror has yet to apply.
func (m *replica) lag() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.logGen - m.gen
}

// tryEncodeSince serves a conditional read from the mirror: same outcomes
// and bytes as the primary's EncodeSince. ok is false when the replica
// must not answer — its lag exceeds the staleness budget, or the caller
// is ahead of the mirror (it has seen a generation the cursor has not
// reached yet; serving would time-travel the client backwards).
func (m *replica) tryEncodeSince(since, budget int64, buf *bytes.Buffer) (outcome session.GetOutcome, gen int64, lag int64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lag = m.logGen - m.gen
	if m.closed || lag > budget || since > m.gen {
		return 0, 0, lag, false
	}
	gen = m.gen
	var encErr error
	switch {
	case since == m.gen:
		outcome = session.NotModified
	case since >= 0 && since < m.gen && m.gen-since <= int64(m.live):
		outcome = session.DeltaServed
		d := session.Delta{ID: m.id, FromGen: since, Gen: m.gen, Records: m.recordsLocked(since)}
		encErr = json.NewEncoder(buf).Encode(&d)
	default:
		outcome = session.FullServed
		snap := m.snapshotLocked()
		encErr = json.NewEncoder(buf).Encode(&snap)
	}
	if encErr != nil {
		return 0, 0, lag, false
	}
	return outcome, gen, lag, true
}

func (m *replica) recordsLocked(since int64) []session.DeltaRecord {
	n := int(m.gen - since)
	out := make([]session.DeltaRecord, 0, n)
	for i := m.live - n; i < m.live; i++ {
		out = append(out, m.ring[(m.head+i)%len(m.ring)])
	}
	return out
}

// snapshotLocked materializes the mirror into the same wire shape the
// primary serves, byte for byte: identical struct, identical encoder, and
// aggregates recomputed from the mirrored edge set.
func (m *replica) snapshotLocked() session.Snapshot {
	n := len(m.points)
	deg := make([]int32, n)
	adj := make([][]int32, n)
	for e := range m.edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for i := range adj {
		adj[i] = make([]int32, 0, deg[i])
	}
	maxDeg := 0
	for e := range m.edges {
		adj[e[0]] = append(adj[e[0]], int32(e[1]))
		adj[e[1]] = append(adj[e[1]], int32(e[0]))
	}
	for _, d := range deg {
		if int(d) > maxDeg {
			maxDeg = int(d)
		}
	}
	connected := true
	if n > 1 {
		seen := make([]bool, n)
		stack := []int32{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[u] {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		connected = count == n
	}
	edges := make([][2]int, 0, len(m.edges))
	for e := range m.edges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return session.Snapshot{
		ID:        m.id,
		Gen:       m.gen,
		N:         n,
		NumEdges:  len(m.edges),
		MaxDegree: maxDeg,
		Connected: connected,
		Points:    m.points,
		Edges:     edges,
	}
}

// subscribe registers a watch fed by the tailer, mirroring the primary's
// Subscribe semantics (laggards are disconnected, close means resync).
func (m *replica) subscribe(buffer int) (<-chan session.DeltaRecord, int64, func(), bool) {
	if buffer < 1 {
		buffer = 64
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, 0, nil, false
	}
	ch := make(chan session.DeltaRecord, buffer)
	m.subSeq++
	id := m.subSeq
	m.subs[id] = ch
	cancel := func() {
		m.mu.Lock()
		if c, ok := m.subs[id]; ok {
			close(c)
			delete(m.subs, id)
		}
		m.mu.Unlock()
	}
	return ch, m.gen, cancel, true
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
	snap := m.snapshotLocked()
	var ring []session.DeltaRecord
	if m.live > 0 {
		ring = m.recordsLocked(m.gen - int64(m.live))
	}
	return &session.Checkpoint{
		ID:     m.id,
		Tenant: m.tenant,
		Theta:  m.theta,
		Range:  m.rng,
		Gen:    m.gen,
		Points: append([][2]float64(nil), snap.Points...),
		Edges:  snap.Edges,
		Ring:   ring,
	}
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
