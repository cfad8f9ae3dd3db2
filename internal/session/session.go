// Package session hosts long-lived, tenant-owned topologies behind the
// serving layer. A session wraps a topology.Dynamic: the expensive build
// happens once at creation, and churn arrives as a
// stream of join/leave/move events repaired locally in the 2D-ball — the
// ~18x-over-rebuild path the paper's locality argument promises, finally
// reachable over the wire.
//
// Every applied event advances a generation number and appends one delta
// record (the event plus the net N-edge changes its repair caused) to a
// bounded per-session ring. A reader holding generation g gets back either
// "nothing changed" (304), the compact records (g, current], or — when g
// has fallen off the ring — a full snapshot. Watchers receive the same
// records pushed over a channel for SSE delivery.
//
// Concurrency model: a session is a single-writer loop. Every operation —
// apply, snapshot, delta read, subscribe — is a closure executed by the
// session's one goroutine, so topology.Dynamic (not safe for concurrent
// use) never races and every reader sees a consistent (gen, state) pair.
// Callers block only for their own closure; the channel handshake is the
// serialization point.
package session

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"toporouting/internal/geom"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
)

// Lifecycle errors. The HTTP layer maps ErrNotFound to 404, ErrClosed and
// ErrSessionClosed to 503 (the registry or session is going away), and
// QuotaError to 429 + Retry-After.
var (
	ErrNotFound      = errors.New("session: no such session")
	ErrClosed        = errors.New("session: registry closed")
	ErrSessionClosed = errors.New("session: session closed")
)

// Event is one wire-format churn event (one NDJSON line of the events
// stream).
type Event struct {
	// Op is "join", "leave", or "move".
	Op string `json:"op"`
	// Node is the target id for leave and move.
	Node int `json:"node,omitempty"`
	// X, Y is the (new) position for join and move.
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// ApplyResult is the per-event echo of the events stream: the generation
// the event produced and the locality stats of its repair. Err is set (and
// Gen unchanged) when the event was rejected; the stream continues.
type ApplyResult struct {
	Seq      int     `json:"seq"`
	Gen      int64   `json:"gen"`
	Op       string  `json:"op"`
	Node     int     `json:"node"`
	N        int     `json:"n"`
	Phase1   int     `json:"phase1"`
	Touched  int     `json:"touched"`
	RepairUS float64 `json:"repair_us"`
	Err      string  `json:"error,omitempty"`
}

// DeltaRecord is one generation's change: the event that produced it and
// the net N-edge churn of its repair. A client holding the previous
// generation replays the event's structural part (join appends a node;
// leave drops the departing node's incident edges, relabels the last id
// onto the vacated one, and shrinks; move rewrites one position) and then
// the edge lists, in that order, to reproduce the server's state exactly.
type DeltaRecord struct {
	Gen          int64    `json:"gen"`
	Op           string   `json:"op"`
	Node         int      `json:"node"`
	X            float64  `json:"x"`
	Y            float64  `json:"y"`
	EdgesAdded   [][2]int `json:"edges_added,omitempty"`
	EdgesRemoved [][2]int `json:"edges_removed,omitempty"`
	Touched      int      `json:"touched"`
}

// Snapshot is the full-state wire shape of GET /v1/sessions/{id}.
type Snapshot struct {
	ID        string       `json:"id"`
	Gen       int64        `json:"gen"`
	N         int          `json:"n"`
	NumEdges  int          `json:"num_edges"`
	MaxDegree int          `json:"max_degree"`
	Connected bool         `json:"connected"`
	Points    [][2]float64 `json:"points"`
	Edges     [][2]int     `json:"edges"`
}

// Delta is the incremental wire shape: every record in (from_gen, gen].
type Delta struct {
	ID      string        `json:"id"`
	FromGen int64         `json:"from_gen"`
	Gen     int64         `json:"gen"`
	Records []DeltaRecord `json:"records"`
}

// GetOutcome classifies how a conditional read was served; the server
// exports the three as counters whose ratio is the delta hit rate.
type GetOutcome int

// Conditional-read outcomes.
const (
	// NotModified: the caller's generation is current (serve 304).
	NotModified GetOutcome = iota
	// DeltaServed: the ring covered (since, gen]; records were written.
	DeltaServed
	// FullServed: no usable generation (or it fell off the ring); a full
	// snapshot was written.
	FullServed
)

// Session is one hosted topology. All fields below the loop channel are
// owned by the loop goroutine; external access goes through do().
type Session struct {
	ID      string
	Tenant  string
	Created time.Time

	maxNodes int

	// Per-tenant instruments, resolved once at creation.
	cEvents  *telemetry.Counter
	hTouched *telemetry.BucketHistogram

	cmds      chan func()
	closed    chan struct{} // closed by Close: stop accepting work
	loopDone  chan struct{} // closed when the loop exits
	closeOnce sync.Once

	// lastActive is a unix-nano timestamp bumped by every apply/read;
	// the registry's TTL sweeper compares it against IdleTTL.
	lastActive atomic.Int64

	// Loop-owned state.
	dyn    *topology.Dynamic
	rec    recorder
	gen    int64
	ring   []DeltaRecord // circular: ring[(head+i)%len] is the i-th oldest
	head   int
	live   int
	subs   map[int]*subscriber
	subSeq int
	// repl, when set (see Rewire), receives every delta record on the loop
	// goroutine before the apply is acknowledged — the cluster layer's
	// synchronous replication hook. It must not block.
	repl func(DeltaRecord)

	// Encoding scratch, loop-owned: snapshots reuse these instead of
	// allocating per GET, which matters because a full snapshot is the
	// delta path's fallback under hot polling.
	scratchPts   [][2]float64
	scratchEdges [][2]int
}

type subscriber struct {
	ch chan DeltaRecord
}

// newSession wraps an already-built dynamic topology. The registry starts
// the loop; the session does not know about quotas or peers.
func newSession(id, tenant string, dyn *topology.Dynamic, ringSize, maxNodes int, tel *telemetry.Telemetry) *Session {
	s := &Session{
		ID:       id,
		Tenant:   tenant,
		Created:  time.Now(),
		maxNodes: maxNodes,
		cEvents:  tel.Counter(telemetry.LabeledName("session.events", "tenant", tenant)),
		hTouched: tel.BucketHistogram(
			telemetry.LabeledName("session.repair_touched", "tenant", tenant),
			telemetry.DefCountBuckets,
		),
		cmds:     make(chan func()),
		closed:   make(chan struct{}),
		loopDone: make(chan struct{}),
		dyn:      dyn,
		ring:     make([]DeltaRecord, ringSize),
		subs:     make(map[int]*subscriber),
	}
	s.rec.reset()
	dyn.SetEdgeObserver(&s.rec)
	s.touch()
	return s
}

func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// Touch marks the session active without running a loop closure. The
// cluster layer calls it when a replica serves a read, so replica-served
// sessions do not idle-evict out from under their readers.
func (s *Session) Touch() { s.touch() }

// IdleSince returns the time of the last apply/read.
func (s *Session) IdleSince() time.Time { return time.Unix(0, s.lastActive.Load()) }

// loop is the single writer: it executes submitted closures until Close,
// then disconnects every watcher and exits.
func (s *Session) loop() {
	defer close(s.loopDone)
	for {
		select {
		case f := <-s.cmds:
			f()
		case <-s.closed:
			for _, sub := range s.subs {
				close(sub.ch)
			}
			s.subs = nil
			return
		}
	}
}

// do runs f on the loop goroutine and waits for it. The unbuffered send is
// the serialization point: once the loop accepts f it runs it to
// completion, so a successful send always returns a result. ctx bounds
// only the wait for a loop slot — abandoning a closure mid-flight would
// tear the state.
func (s *Session) do(ctx context.Context, f func()) error {
	done := make(chan struct{})
	wrapped := func() {
		f()
		close(done)
	}
	select {
	case s.cmds <- wrapped:
		<-done
		return nil
	case <-s.closed:
		return ErrSessionClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the loop after the in-flight closure (idempotent; safe from
// any goroutine). Watchers see their channels close.
func (s *Session) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.loopDone
}

// Apply executes one wire event through the single-writer loop. A semantic
// rejection (occupied position, bad node id, node-cap breach) is reported
// in the result, not as an error — the stream goes on; the error return is
// reserved for "could not run at all" (session closed, ctx done).
func (s *Session) Apply(ctx context.Context, ev Event) (ApplyResult, error) {
	var res ApplyResult
	err := s.do(ctx, func() { res = s.apply(ev) })
	if err == nil {
		s.touch()
	}
	return res, err
}

// apply validates and applies one event on the loop, recording its delta.
func (s *Session) apply(ev Event) ApplyResult {
	res := ApplyResult{Op: ev.Op, Node: ev.Node, Gen: s.gen, N: s.dyn.N()}
	var tev topology.Event
	switch ev.Op {
	case "join":
		if s.dyn.N() >= s.maxNodes {
			res.Err = fmt.Sprintf("session at the %d-node cap", s.maxNodes)
			return res
		}
		if !finite(ev.X) || !finite(ev.Y) {
			res.Err = "non-finite position"
			return res
		}
		if s.dyn.HasNodeAt(geom.Pt(ev.X, ev.Y)) {
			res.Err = "position already occupied"
			return res
		}
		tev = topology.Event{Kind: topology.Join, Pos: geom.Pt(ev.X, ev.Y)}
	case "leave":
		if ev.Node < 0 || ev.Node >= s.dyn.N() {
			res.Err = fmt.Sprintf("node %d out of range [0,%d)", ev.Node, s.dyn.N())
			return res
		}
		if s.dyn.N() <= 2 {
			res.Err = "leave would drop below two nodes"
			return res
		}
		tev = topology.Event{Kind: topology.Leave, Node: ev.Node}
	case "move":
		if ev.Node < 0 || ev.Node >= s.dyn.N() {
			res.Err = fmt.Sprintf("node %d out of range [0,%d)", ev.Node, s.dyn.N())
			return res
		}
		if !finite(ev.X) || !finite(ev.Y) {
			res.Err = "non-finite position"
			return res
		}
		to := geom.Pt(ev.X, ev.Y)
		if to != s.dyn.Points()[ev.Node] && s.dyn.HasNodeAt(to) {
			res.Err = "position already occupied"
			return res
		}
		tev = topology.Event{Kind: topology.Move, Node: ev.Node, Pos: to}
	default:
		res.Err = fmt.Sprintf("unknown op %q (want join, leave, or move)", ev.Op)
		return res
	}

	s.rec.reset()
	st := s.dyn.Apply(tev)
	res.N = st.N
	res.Phase1 = st.Phase1
	res.Touched = st.Touched
	res.RepairUS = float64(st.Duration) / float64(time.Microsecond)
	if ev.Op == "join" {
		res.Node = st.N - 1 // the joined node took the next dense id
	}
	if ev.Op == "move" && st.Touched == 0 {
		// Same-position move: Dynamic no-opped, nothing changed, the
		// generation must not advance (a delta would be empty anyway).
		return res
	}

	s.gen++
	res.Gen = s.gen
	record := DeltaRecord{
		Gen:          s.gen,
		Op:           ev.Op,
		Node:         res.Node,
		X:            ev.X,
		Y:            ev.Y,
		EdgesAdded:   s.rec.sortedAdded(),
		EdgesRemoved: s.rec.sortedRemoved(),
		Touched:      st.Touched,
	}
	s.push(record)
	if s.repl != nil {
		// Ack-ordered replication: the record reaches every replica's log
		// before the client sees this generation acknowledged, so a
		// hard-killed primary can never have acked an event its replicas
		// don't hold.
		s.repl(record)
	}
	for id, sub := range s.subs {
		select {
		case sub.ch <- record:
		default:
			// The watcher is not draining; dropping records would desync
			// its mirror, so disconnect it instead — the closed channel
			// tells it to fall back to a full snapshot.
			close(sub.ch)
			delete(s.subs, id)
		}
	}
	s.cEvents.Inc()
	s.hTouched.Observe(float64(st.Touched))
	return res
}

// push appends one record to the delta ring, overwriting the oldest once
// the ring is full. The ring always holds the newest `live` generations
// (s.gen-live, s.gen].
func (s *Session) push(r DeltaRecord) {
	if len(s.ring) == 0 {
		return
	}
	if s.live < len(s.ring) {
		s.ring[(s.head+s.live)%len(s.ring)] = r
		s.live++
		return
	}
	s.ring[s.head] = r
	s.head = (s.head + 1) % len(s.ring)
}

// EncodeSince writes the response for a conditional read into buf on the
// loop goroutine: nothing (NotModified) when since is current, the delta
// records (since, gen] when the ring still holds them, or a full snapshot.
// since < 0 means "no generation" and always yields the snapshot. The
// returned generation is the session's current one (the caller's next
// If-None-Match value).
func (s *Session) EncodeSince(ctx context.Context, since int64, buf *bytes.Buffer) (GetOutcome, int64, error) {
	var (
		outcome GetOutcome
		gen     int64
		encErr  error
	)
	err := s.do(ctx, func() {
		gen = s.gen
		switch {
		case since == s.gen:
			outcome = NotModified
		case since >= 0 && since < s.gen && s.gen-since <= int64(s.live):
			outcome = DeltaServed
			d := Delta{ID: s.ID, FromGen: since, Gen: s.gen, Records: s.records(since)}
			encErr = json.NewEncoder(buf).Encode(&d)
		default:
			outcome = FullServed
			snap := s.snapshot()
			encErr = json.NewEncoder(buf).Encode(&snap)
		}
	})
	if err != nil {
		return FullServed, 0, err
	}
	s.touch()
	return outcome, gen, encErr
}

// EncodeSnapshot writes the full snapshot into buf unconditionally.
func (s *Session) EncodeSnapshot(ctx context.Context, buf *bytes.Buffer) (int64, error) {
	var (
		gen    int64
		encErr error
	)
	err := s.do(ctx, func() {
		gen = s.gen
		snap := s.snapshot()
		encErr = json.NewEncoder(buf).Encode(&snap)
	})
	if err != nil {
		return 0, err
	}
	s.touch()
	return gen, encErr
}

// records collects the ring entries with generation > since, oldest first.
// Only called when the ring covers them.
func (s *Session) records(since int64) []DeltaRecord {
	n := int(s.gen - since)
	out := make([]DeltaRecord, 0, n)
	for i := s.live - n; i < s.live; i++ {
		out = append(out, s.ring[(s.head+i)%len(s.ring)])
	}
	return out
}

// snapshot materializes the loop-owned state into the wire shape, reusing
// the session's scratch slices (safe: the caller encodes inside the same
// closure, before the next apply can touch them).
func (s *Session) snapshot() Snapshot {
	pts := s.dyn.Points()
	s.scratchPts = s.scratchPts[:0]
	for _, p := range pts {
		s.scratchPts = append(s.scratchPts, [2]float64{p.X, p.Y})
	}
	g := s.dyn.Topology().N
	s.scratchEdges = s.scratchEdges[:0]
	for _, e := range g.Edges() {
		s.scratchEdges = append(s.scratchEdges, [2]int{e.U, e.V})
	}
	return Snapshot{
		ID:        s.ID,
		Gen:       s.gen,
		N:         len(pts),
		NumEdges:  g.NumEdges(),
		MaxDegree: g.MaxDegree(),
		Connected: g.Connected(),
		Points:    s.scratchPts,
		Edges:     s.scratchEdges,
	}
}

// Stats is the lightweight header of a session: the current generation
// and graph-level aggregates, without materializing points or edges.
type Stats struct {
	ID        string `json:"id"`
	Gen       int64  `json:"gen"`
	N         int    `json:"n"`
	NumEdges  int    `json:"num_edges"`
	MaxDegree int    `json:"max_degree"`
	Connected bool   `json:"connected"`
}

// Stats reads the session header on the loop.
func (s *Session) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := s.do(ctx, func() {
		g := s.dyn.Topology().N
		st = Stats{
			ID:        s.ID,
			Gen:       s.gen,
			N:         s.dyn.N(),
			NumEdges:  g.NumEdges(),
			MaxDegree: g.MaxDegree(),
			Connected: g.Connected(),
		}
	})
	if err != nil {
		return Stats{}, err
	}
	s.touch()
	return st, nil
}

// Gen returns the current generation.
func (s *Session) Gen(ctx context.Context) (int64, error) {
	var g int64
	err := s.do(ctx, func() { g = s.gen })
	return g, err
}

// Subscribe registers a watcher: a channel receiving every delta record
// from the returned generation onward, in order. A watcher that stops
// draining is disconnected (channel closed) rather than lagged, so a
// closed channel means "resync from a snapshot". Call the returned cancel
// to unsubscribe; the channel is closed either way when the session
// closes.
func (s *Session) Subscribe(ctx context.Context, buffer int) (<-chan DeltaRecord, int64, func(), error) {
	if buffer < 1 {
		buffer = 64
	}
	var (
		ch  chan DeltaRecord
		gen int64
		id  int
	)
	err := s.do(ctx, func() {
		ch = make(chan DeltaRecord, buffer)
		s.subSeq++
		id = s.subSeq
		s.subs[id] = &subscriber{ch: ch}
		gen = s.gen
	})
	if err != nil {
		return nil, 0, nil, err
	}
	s.touch()
	cancel := func() {
		_ = s.do(context.Background(), func() {
			if sub, ok := s.subs[id]; ok {
				close(sub.ch)
				delete(s.subs, id)
			}
		})
	}
	return ch, gen, cancel, nil
}

// recorder nets the repair's observer notifications into set deltas: an
// edge removed and re-added within one event cancels out, so the record
// carries exactly the presence changes between consecutive generations.
type recorder struct {
	added   map[[2]int]struct{}
	removed map[[2]int]struct{}
}

func (r *recorder) reset() {
	if r.added == nil {
		r.added = make(map[[2]int]struct{})
		r.removed = make(map[[2]int]struct{})
		return
	}
	clear(r.added)
	clear(r.removed)
}

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// EdgeAdded implements topology.EdgeObserver.
func (r *recorder) EdgeAdded(u, v int) {
	k := edgeKey(u, v)
	if _, ok := r.removed[k]; ok {
		delete(r.removed, k)
		return
	}
	r.added[k] = struct{}{}
}

// EdgeRemoved implements topology.EdgeObserver.
func (r *recorder) EdgeRemoved(u, v int) {
	k := edgeKey(u, v)
	if _, ok := r.added[k]; ok {
		delete(r.added, k)
		return
	}
	r.removed[k] = struct{}{}
}

func sortedEdges(m map[[2]int]struct{}) [][2]int {
	if len(m) == 0 {
		return nil
	}
	out := make([][2]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func (r *recorder) sortedAdded() [][2]int   { return sortedEdges(r.added) }
func (r *recorder) sortedRemoved() [][2]int { return sortedEdges(r.removed) }

func finite(x float64) bool {
	return x == x && x < 1e308 && x > -1e308
}
