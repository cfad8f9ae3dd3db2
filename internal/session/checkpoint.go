package session

import (
	"context"
	"encoding/json"
	"fmt"

	"toporouting/internal/geom"
	"toporouting/internal/topology"
)

// Checkpoint is the serialized form of a hosted session: everything needed
// to rehost it on another registry after a crash or rebalance. It carries
// the point set, the exact N-edge set (for verification — the restore
// rebuilds the topology from the points and must reproduce it), the
// current generation, and the delta ring so restored readers keep their
// incremental window. The PR2 invariant (incremental repair ≡ from-scratch
// rebuild, edge for edge) is what makes restore-by-rebuild exact: a
// checkpoint needs no builder-internal state, only the inputs.
type Checkpoint struct {
	ID     string        `json:"id"`
	Tenant string        `json:"tenant"`
	Theta  float64       `json:"theta"`
	Range  float64       `json:"range"`
	Gen    int64         `json:"gen"`
	Points [][2]float64  `json:"points"`
	Edges  [][2]int      `json:"edges"`
	Ring   []DeltaRecord `json:"ring,omitempty"`
}

// Encode serializes the checkpoint.
func (cp *Checkpoint) Encode() ([]byte, error) { return json.Marshal(cp) }

// DecodeCheckpoint parses and validates a serialized checkpoint.
func DecodeCheckpoint(raw []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(raw, &cp); err != nil {
		return nil, fmt.Errorf("session: checkpoint decode: %w", err)
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Validate checks the structural invariants a restore relies on: a usable
// identity, finite points, in-range edge endpoints, and a delta ring whose
// generations run contiguously up to Gen (the replication-cursor contract).
func (cp *Checkpoint) Validate() error {
	if cp.ID == "" || cp.Tenant == "" {
		return fmt.Errorf("session: checkpoint missing id or tenant")
	}
	if cp.Gen < 0 {
		return fmt.Errorf("session: checkpoint generation %d negative", cp.Gen)
	}
	if len(cp.Points) < 2 {
		return fmt.Errorf("session: checkpoint has %d points, need at least two", len(cp.Points))
	}
	for i, p := range cp.Points {
		if !finite(p[0]) || !finite(p[1]) {
			return fmt.Errorf("session: checkpoint point %d not finite", i)
		}
	}
	n := len(cp.Points)
	for i, e := range cp.Edges {
		if e[0] < 0 || e[1] <= e[0] || e[1] >= n {
			return fmt.Errorf("session: checkpoint edge %d (%d,%d) invalid for n=%d", i, e[0], e[1], n)
		}
		if i > 0 && !lessEdge(cp.Edges[i-1], e) {
			return fmt.Errorf("session: checkpoint edges out of order at %d", i)
		}
	}
	for i, rec := range cp.Ring {
		want := cp.Gen - int64(len(cp.Ring)-1-i)
		if rec.Gen != want {
			return fmt.Errorf("session: checkpoint ring gap at %d: gen %d, want %d", i, rec.Gen, want)
		}
	}
	return nil
}

// Positions returns the checkpointed points as geometry.
func (cp *Checkpoint) Positions() []geom.Point {
	pts := make([]geom.Point, len(cp.Points))
	for i, p := range cp.Points {
		pts[i] = geom.Pt(p[0], p[1])
	}
	return pts
}

// checkpointLocked captures the session state. Caller holds s.mu.
func (s *Session) checkpointLocked() *Checkpoint {
	t := s.dyn.Topology()
	return s.feed.Checkpoint(s.Tenant, t.Cfg.Theta, t.Cfg.Range, s.dyn.Points(), t.N)
}

// Checkpoint serializes the session under its lock: the captured state is
// a consistent (gen, points, edges, ring) cut — no apply can interleave.
func (s *Session) Checkpoint(ctx context.Context) (*Checkpoint, error) {
	var cp *Checkpoint
	if err := s.do(ctx, func() { cp = s.checkpointLocked() }); err != nil {
		return nil, err
	}
	return cp, nil
}

// Rewire atomically captures a checkpoint and installs a new replicator,
// both under the session lock: no delta record can be applied between the
// capture and the install, so a replica initialized from the checkpoint
// sees every subsequent record exactly once. install receives the
// checkpoint and returns the replicator to install (nil detaches); the
// replicator it replaces is closed. A closed session runs nothing and
// returns ErrSessionClosed.
func (s *Session) Rewire(ctx context.Context, install func(*Checkpoint) Replicator) error {
	return s.do(ctx, func() { s.replaceLocked(install(s.checkpointLocked())) })
}

// Attach is Rewire for a replicator that needs no checkpoint, such as an
// empty replica set: it installs r under the session lock without capturing
// one.
func (s *Session) Attach(ctx context.Context, r Replicator) error {
	return s.do(ctx, func() { s.replaceLocked(r) })
}

// replaceLocked installs r and closes the replicator it replaces. Caller
// holds s.mu.
func (s *Session) replaceLocked(r Replicator) {
	old := s.Replicator()
	s.repl.Store(&replBox{r})
	if old != nil {
		old.Close()
	}
}

// Restore rehosts a checkpointed session: the topology is rebuilt from the
// checkpoint's points, and the rebuild must reproduce
// the checkpointed edge set exactly — guaranteed by the maintenance
// invariant, verified here so a corrupted or tampered checkpoint aborts
// instead of silently serving a diverged topology. The session keeps its
// id, generation, and delta ring, so restored readers resume their cursors
// as if nothing moved.
func (r *Registry) Restore(ctx context.Context, cp *Checkpoint) (*Session, error) {
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	if len(cp.Points) > r.cfg.MaxNodes {
		return nil, fmt.Errorf("session: checkpoint has %d points, exceeds the %d-node cap", len(cp.Points), r.cfg.MaxNodes)
	}
	if err := r.reserveSlot(cp.Tenant, cp.ID); err != nil {
		return nil, err
	}
	top, err := r.build(ctx, cp.Tenant, cp.Positions(), topology.Config{Theta: cp.Theta, Range: cp.Range, Telemetry: r.cfg.Telemetry})
	if err != nil {
		return nil, err
	}
	if err := verifyEdges(top, cp.Edges); err != nil {
		r.release(cp.Tenant)
		return nil, err
	}
	// The generation carries over, and the ring keeps the newest records it
	// can hold, so delta readers survive the move.
	feed := NewFeed(cp.ID, cp.Gen, r.cfg.DeltaRing, cp.Ring)
	s := newSession(cp.Tenant, topology.NewDynamicFrom(top), feed, r.cfg.MaxNodes, r.cfg.Telemetry)
	if err := r.host(s, "session.restored"); err != nil {
		return nil, err
	}
	return s, nil
}

// verifyEdges checks that the rebuilt topology's edge set equals the
// checkpointed one. Both sides are sorted lexicographically (graph.Edges
// returns U<V ascending; Validate enforced the same on the checkpoint).
func verifyEdges(top *topology.Topology, want [][2]int) error {
	got := top.N.Edges()
	if len(got) != len(want) {
		return fmt.Errorf("session: restore rebuilt %d edges, checkpoint has %d", len(got), len(want))
	}
	for i, e := range got {
		if e.U != want[i][0] || e.V != want[i][1] {
			return fmt.Errorf("session: restore edge %d is (%d,%d), checkpoint has (%d,%d)", i, e.U, e.V, want[i][0], want[i][1])
		}
	}
	return nil
}

func lessEdge(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}
