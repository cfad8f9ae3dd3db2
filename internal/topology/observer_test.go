package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// edgeLog records observer notifications in order.
type edgeLog struct {
	ops []edgeOp
}

type edgeOp struct {
	u, v  int
	added bool
}

func (l *edgeLog) EdgeAdded(u, v int)   { l.ops = append(l.ops, edgeOp{u, v, true}) }
func (l *edgeLog) EdgeRemoved(u, v int) { l.ops = append(l.ops, edgeOp{u, v, false}) }

// mirror is a client-side replica of the N edge set, maintained purely from
// the event stream plus the observer's repair diffs — the contract a
// session-delta consumer relies on.
type mirror struct {
	n     int
	edges map[graph.Edge]bool
}

func newMirror(n int, es []graph.Edge) *mirror {
	m := &mirror{n: n, edges: make(map[graph.Edge]bool)}
	for _, e := range es {
		m.edges[e] = true
	}
	return m
}

// applyStructural replays the mechanical part of an event: a Leave drops
// the departing node's incident edges and relabels the last id onto the
// vacated one; Join grows the id space; Move changes nothing structural.
func (m *mirror) applyStructural(ev Event) {
	switch ev.Kind {
	case Join:
		m.n++
	case Leave:
		x, z := ev.Node, m.n-1
		for e := range m.edges {
			if e.U == x || e.V == x {
				delete(m.edges, e)
			}
		}
		if x != z {
			for e := range m.edges {
				if e.U == z || e.V == z {
					delete(m.edges, e)
					nu, nv := e.U, e.V
					if nu == z {
						nu = x
					}
					if nv == z {
						nv = x
					}
					m.edges[graph.Canon(nu, nv)] = true
				}
			}
		}
		m.n = z
	}
}

func (m *mirror) applyOps(ops []edgeOp) {
	for _, op := range ops {
		e := graph.Canon(op.u, op.v)
		if op.added {
			m.edges[e] = true
		} else {
			delete(m.edges, e)
		}
	}
}

func (m *mirror) sorted() []graph.Edge {
	out := make([]graph.Edge, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// TestEdgeObserverMirrorsTopology drives a random 120-event churn sequence
// and asserts after every event that the mirror — structural replay plus
// observed repair diffs — matches the maintained N graph edge-for-edge.
func TestEdgeObserverMirrorsTopology(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 140, 23)
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3})
	log := &edgeLog{}
	d.SetEdgeObserver(log)
	m := newMirror(d.N(), d.Topology().N.Edges())

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 120; i++ {
		var ev Event
		switch rng.Intn(3) {
		case 0:
			ev = Event{Kind: Join, Pos: geom.Pt(rng.Float64(), rng.Float64())}
		case 1:
			ev = Event{Kind: Leave, Node: rng.Intn(d.N())}
		default:
			ev = Event{Kind: Move, Node: rng.Intn(d.N()), Pos: geom.Pt(rng.Float64(), rng.Float64())}
		}
		log.ops = log.ops[:0]
		d.Apply(ev)
		requireUnnetted(t, log.ops, fmt.Sprintf("event %d (%v)", i, ev.Kind))
		m.applyStructural(ev)
		m.applyOps(log.ops)
		got, want := m.sorted(), d.Topology().N.Edges()
		if len(got) != len(want) {
			t.Fatalf("event %d (%v): mirror has %d edges, topology %d", i, ev.Kind, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("event %d (%v): edge %d differs: mirror %v, topology %v", i, ev.Kind, j, got[j], want[j])
			}
		}
	}
	requireEquivalent(t, d, "after observed churn")
}

// requireUnnetted asserts the EdgeObserver contract a delta recorder
// relies on: within one event no edge is reported twice, and none is both
// added and removed.
func requireUnnetted(t *testing.T, ops []edgeOp, label string) {
	t.Helper()
	seen := make(map[graph.Edge]bool, len(ops))
	for _, op := range ops {
		e := graph.Canon(op.u, op.v)
		if seen[e] {
			t.Fatalf("%s: edge %v reported more than once in one event", label, e)
		}
		seen[e] = true
	}
}

// TestEdgeObserverDetachable pins that a nil observer restores the
// unobserved fast path and that observation never perturbs the repair.
func TestEdgeObserverDetachable(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 80, 7)
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3})
	log := &edgeLog{}
	d.SetEdgeObserver(log)
	d.Apply(Event{Kind: Join, Pos: geom.Pt(0.41, 0.59)})
	if len(log.ops) == 0 {
		t.Fatal("observed join produced no edge notifications")
	}
	seen := len(log.ops)
	d.SetEdgeObserver(nil)
	d.Apply(Event{Kind: Join, Pos: geom.Pt(0.62, 0.37)})
	if len(log.ops) != seen {
		t.Fatal("detached observer still notified")
	}
	requireEquivalent(t, d, "after detach")
}
