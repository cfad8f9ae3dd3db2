// Package session hosts long-lived, tenant-owned topologies behind the
// serving layer. A session wraps a topology.Dynamic: the expensive build
// happens once at creation, and churn arrives as a
// stream of join/leave/move events repaired locally, recomputing only the
// rows each event changed an input of — the path the paper's locality
// argument promises, reachable over the wire.
//
// Every applied event advances a generation number and appends one delta
// record (the event plus the net N-edge changes its repair caused) to a
// bounded per-session ring. A reader holding generation g gets back either
// "nothing changed" (304), the compact records (g, current], or — when g
// has fallen off the ring — a full snapshot. Watchers receive the same
// records pushed over a channel for SSE delivery.
//
// Concurrency model: one mutex per session. Every operation — apply,
// snapshot, delta read, subscribe — takes it and runs inline on the
// caller's goroutine, so topology.Dynamic (not safe for concurrent use)
// never races and every reader sees a consistent (gen, state) pair. A
// repair is a local edit of tens of microseconds, so hosting a session
// starts no goroutine of its own.
package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
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

// Session is one hosted topology. The fields below mu are guarded by it;
// external access goes through do().
type Session struct {
	ID      string
	Tenant  string
	Created time.Time

	maxNodes int

	// Per-tenant instruments, resolved once at creation.
	cEvents  *telemetry.Counter
	hTouched *telemetry.BucketHistogram
	hApplyMS *telemetry.BucketHistogram

	// lastActive is a unix-nano timestamp bumped by every apply/read;
	// the registry's TTL sweeper compares it against IdleTTL.
	lastActive atomic.Int64

	// repl holds the replicator Rewire installed. It is written under mu
	// but read without it (see Replicator), so a read served by a mirror
	// never waits on an apply.
	repl atomic.Pointer[replBox]

	mu     sync.Mutex
	closed bool // set by Close: do refuses further work
	dyn    *topology.Dynamic
	rec    recorder
	feed   *Feed // generation, delta ring, watchers
}

// Replicator is a session's replica set as the session sees it. Append
// receives every delta record under the session lock, before the apply is
// acknowledged, and must not block; Close stops the appends and is called
// when the session closes or Rewire replaces the replicator.
type Replicator interface {
	Append(DeltaRecord)
	Close()
}

// replBox lets an interface value sit behind an atomic.Pointer.
type replBox struct{ r Replicator }

// newSession wraps an already-built dynamic topology and the feed it
// publishes to. The session does not know about quotas or peers.
func newSession(tenant string, dyn *topology.Dynamic, feed *Feed, maxNodes int, tel *telemetry.Telemetry) *Session {
	s := &Session{
		ID:       feed.id,
		Tenant:   tenant,
		Created:  time.Now(),
		maxNodes: maxNodes,
		cEvents:  tel.Counter(telemetry.LabeledName("session.events", "tenant", tenant)),
		hTouched: tel.BucketHistogram(
			telemetry.LabeledName("session.repair_touched", "tenant", tenant),
			telemetry.DefCountBuckets,
		),
		hApplyMS: tel.BucketHistogram(
			telemetry.LabeledName("session.apply_ms", "tenant", tenant),
			telemetry.DefLatencyBuckets,
		),
		dyn:  dyn,
		feed: feed,
	}
	dyn.SetEdgeObserver(&s.rec)
	s.touch()
	return s
}

func (s *Session) touch() { s.lastActive.Store(time.Now().UnixNano()) }

// Touch marks the session active without taking the session lock. The
// cluster layer calls it when a replica serves a read, so replica-served
// sessions do not idle-evict out from under their readers.
func (s *Session) Touch() { s.touch() }

// IdleSince returns the time of the last apply/read.
func (s *Session) IdleSince() time.Time { return time.Unix(0, s.lastActive.Load()) }

// Replicator returns the installed replicator, or nil. It takes no lock.
func (s *Session) Replicator() Replicator {
	if b := s.repl.Load(); b != nil {
		return b.r
	}
	return nil
}

// do runs f under the session lock. A ctx already done, or a session
// already closed, runs nothing; once f starts it runs to completion —
// abandoning it mid-flight would tear the state.
func (s *Session) do(ctx context.Context, f func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	f()
	return nil
}

// Close refuses further work after the in-flight operation (idempotent;
// safe from any goroutine). Watchers see their channels close, and the
// replicator is closed but stays installed, so its state can still be read.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.feed.Close()
		if r := s.Replicator(); r != nil {
			r.Close()
		}
	}
}

// Apply executes one wire event under the session lock. A semantic
// rejection (occupied position, bad node id, node-cap breach) is reported
// in the result, not as an error — the stream goes on; the error return is
// reserved for "could not run at all" (session closed, ctx done).
func (s *Session) Apply(ctx context.Context, ev Event) (ApplyResult, error) {
	t0 := time.Now()
	var res ApplyResult
	err := s.do(ctx, func() { res = s.apply(ev) })
	if err == nil {
		s.touch()
		s.hApplyMS.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	return res, err
}

// apply validates and applies one event, recording its delta. Caller holds
// s.mu.
func (s *Session) apply(ev Event) ApplyResult {
	res := ApplyResult{Op: ev.Op, Node: ev.Node, Gen: s.feed.gen, N: s.dyn.N()}
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
		if to == s.dyn.Points()[ev.Node] {
			// Same-position move: nothing changes, so the generation
			// must not advance (a delta would be empty anyway).
			return res
		}
		if s.dyn.HasNodeAt(to) {
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
	res.Gen = s.feed.gen + 1
	record := DeltaRecord{
		Gen:          res.Gen,
		Op:           ev.Op,
		Node:         res.Node,
		X:            ev.X,
		Y:            ev.Y,
		EdgesAdded:   sortedEdges(s.rec.added),
		EdgesRemoved: sortedEdges(s.rec.removed),
		Touched:      st.Touched,
	}
	if r := s.Replicator(); r != nil {
		// Ack-ordered replication: every replica has applied the record
		// before the client sees this generation acknowledged, so a
		// hard-killed primary can never have acked an event its replicas
		// don't hold.
		r.Append(record)
	}
	s.feed.Publish(record)
	s.cEvents.Inc()
	s.hTouched.Observe(float64(st.Touched))
	return res
}

// EncodeSince writes the response for a conditional read into buf under
// the session lock: nothing (NotModified) when since is current, the delta
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
		gen = s.feed.gen
		outcome, encErr = s.feed.EncodeSince(since, buf, s.dyn.Points(), s.dyn.Topology().N)
	})
	if err != nil {
		return FullServed, 0, err
	}
	s.touch()
	return outcome, gen, encErr
}

// EncodeSnapshot writes the full snapshot into buf unconditionally.
func (s *Session) EncodeSnapshot(ctx context.Context, buf *bytes.Buffer) (int64, error) {
	_, gen, err := s.EncodeSince(ctx, -1, buf)
	return gen, err
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

// Stats reads the session header.
func (s *Session) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := s.do(ctx, func() {
		g := s.dyn.Topology().N
		st = Stats{
			ID:        s.ID,
			Gen:       s.feed.gen,
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
	err := s.do(ctx, func() { g = s.feed.gen })
	return g, err
}

// Subscribe registers a watcher: a channel receiving every delta record
// from the returned generation onward, in order. A watcher that stops
// draining is disconnected (channel closed) rather than lagged, so a
// closed channel means "resync from a snapshot". Call the returned cancel
// to unsubscribe; the channel is closed either way when the session
// closes.
func (s *Session) Subscribe(ctx context.Context, buffer int) (<-chan DeltaRecord, int64, func(), error) {
	var (
		ch  <-chan DeltaRecord
		gen int64
		id  int
	)
	err := s.do(ctx, func() {
		ch, id = s.feed.Subscribe(buffer)
		gen = s.feed.gen
	})
	if err != nil {
		return nil, 0, nil, err
	}
	s.touch()
	cancel := func() {
		_ = s.do(context.Background(), func() { s.feed.Unsubscribe(id) })
	}
	return ch, gen, cancel, nil
}

// recorder collects the repair's observer notifications. The repair
// reports each edge whose presence changed exactly once, and never one
// that it both added and removed (see topology.EdgeObserver), so the two
// lists already are the set deltas between consecutive generations.
type recorder struct {
	added, removed [][2]int
}

func (r *recorder) reset() { r.added, r.removed = r.added[:0], r.removed[:0] }

func edgeKey(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// EdgeAdded implements topology.EdgeObserver.
func (r *recorder) EdgeAdded(u, v int) { r.added = append(r.added, edgeKey(u, v)) }

// EdgeRemoved implements topology.EdgeObserver.
func (r *recorder) EdgeRemoved(u, v int) { r.removed = append(r.removed, edgeKey(u, v)) }

// sortedEdges returns es sorted in a fresh slice (the delta record keeps
// it past the recorder's next reset), or nil when es is empty.
func sortedEdges(es [][2]int) [][2]int {
	if len(es) == 0 {
		return nil
	}
	out := slices.Clone(es)
	sort.Slice(out, func(i, j int) bool { return lessEdge(out[i], out[j]) })
	return out
}

func finite(x float64) bool {
	return x == x && x < 1e308 && x > -1e308
}
