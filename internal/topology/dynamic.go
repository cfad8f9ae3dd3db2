package topology

import (
	"fmt"
	"time"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
	"toporouting/internal/telemetry"
)

// EventKind enumerates the churn events the incremental maintenance
// understands.
type EventKind int

// Churn event kinds.
const (
	// Join adds a node at Event.Pos; it receives the next dense id.
	Join EventKind = iota
	// Leave removes node Event.Node; the last node takes the vacated id
	// (swap removal), keeping ids dense.
	Leave
	// Move relocates node Event.Node to Event.Pos.
	Move
)

// String returns the event-kind name.
func (k EventKind) String() string {
	switch k {
	case Join:
		return "join"
	case Leave:
		return "leave"
	case Move:
		return "move"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one topology-churn step.
type Event struct {
	// Kind selects the mutation.
	Kind EventKind
	// Node is the target id for Leave and Move.
	Node int
	// Pos is the (new) position for Join and Move.
	Pos geom.Point
}

// UpdateStats reports the locality of one incremental repair: how few nodes
// the ΘALG locality radius let it touch.
type UpdateStats struct {
	// Kind echoes the applied event.
	Kind EventKind
	// Phase1 is the number of nodes whose phase-1 sector selections were
	// recomputed (the ≤D ball around the disturbance).
	Phase1 int
	// Touched is the number of nodes whose phase-2 admissions and
	// incident edges were recomputed (the ≤2D ball); Touched ≥ Phase1 and
	// Touched/N is the recomputed fraction a full rebuild would have
	// spent on all n nodes.
	Touched int
	// N is the node count after the event.
	N int
	// Duration is the wall time of the repair.
	Duration time.Duration
}

// EdgeObserver receives the final-topology (N-graph) edge mutations a
// repair performs, in the id space current at notification time. Observers
// see exactly the edges whose presence changed — an edge removed and
// re-added within one repair is reported twice (remove, then add), and the
// caller nets them out if it wants set deltas.
//
// Structural mutations are NOT reported: a Leave's swap-removal (edges
// incident to the departing node vanish; the last node's edges are
// relabeled to the vacated id) and a Join's isolated new node follow
// mechanically from the event itself, so a consumer maintaining a mirror
// replays them from the event and takes only the repair's edge churn from
// the observer. This is what keeps a delta small: the locality argument
// bounds repair churn to the 2D-ball, while swap-relabel may touch edges
// arbitrarily far away — which the mirror can relabel locally for free.
type EdgeObserver interface {
	EdgeAdded(u, v int)
	EdgeRemoved(u, v int)
}

// Dynamic maintains a ΘALG topology under node churn. Where BuildTheta
// recomputes all n nodes, Apply repairs only the neighborhood the paper's
// locality argument implies: a node's phase-1 selection depends on
// positions within the transmission range D (protocol round 1), and its
// phase-2 admission on selections of nodes within D — i.e. on positions
// within 2D (rounds 2–3). A join, leave, or move therefore invalidates
// phase-1 rows only inside the D-ball and admissions/edges only inside the
// 2D-ball around the disturbed positions, and Apply recomputes exactly
// those. The maintained topology is edge-for-edge the one BuildTheta would
// produce on the current point set, under the paper's standing assumption
// of unique pairwise distances (Section 2.1); exact-tie inputs such as
// unjittered grids may diverge after a Leave, because swap-renumbering
// changes the ids that break exact-distance ties.
//
// The transmission range D stays fixed across events (recomputing a
// critical range is inherently global); per-node Orientations are not
// supported. Dynamic is not safe for concurrent use.
type Dynamic struct {
	t   *Topology
	idx *spatial.DynGrid
	tel *telemetry.Telemetry
	obs EdgeObserver

	// Repair instruments, resolved once so Apply never looks them up.
	cEvents, cTouched   *telemetry.Counter
	hTouched, hRepairMS *telemetry.BucketHistogram

	mark    []int32 // per-node visit stamp for ball dedup
	stamp   int32
	p1, p2  []int32 // scratch: affected node sets
	nbrs    []int32 // scratch: neighbor snapshot during edge fixes
	centers [2]geom.Point
}

// NewDynamic builds the initial topology over a copy of pts (so later
// events never mutate the caller's slice) and returns the maintenance
// handle. It panics on an invalid configuration, like BuildTheta, and
// additionally rejects per-node Orientations, which swap-renumbering does
// not support.
func NewDynamic(pts []geom.Point, cfg Config) *Dynamic {
	if cfg.Orientations != nil {
		panic("topology: NewDynamic does not support per-node orientations")
	}
	return newDynamic(BuildTheta(append([]geom.Point(nil), pts...), cfg))
}

// NewDynamicFrom wraps an already-built topology — typically a
// BuildThetaContext result, which tiles large inputs across workers — as a
// churn-maintenance handle without rebuilding it. The handle takes
// ownership of t: its tables and graphs mutate in place across Apply
// calls. Positions are copied first, so the slice the topology was built
// over stays untouched. Like NewDynamic it rejects per-node Orientations,
// which swap-renumbering does not support.
func NewDynamicFrom(t *Topology) *Dynamic {
	if t.Cfg.Orientations != nil {
		panic("topology: NewDynamicFrom does not support per-node orientations")
	}
	t.Pts = append([]geom.Point(nil), t.Pts...)
	return newDynamic(t)
}

// newDynamic wraps t, which owns its positions, and resolves the repair
// instruments of t's telemetry scope.
func newDynamic(t *Topology) *Dynamic {
	tel := t.Cfg.Telemetry
	return &Dynamic{
		t:         t,
		idx:       spatial.NewDynGrid(t.Pts, t.Cfg.Range),
		tel:       tel,
		mark:      make([]int32, len(t.Pts)),
		cEvents:   tel.Counter("topology.events"),
		cTouched:  tel.Counter("topology.nodes_touched"),
		hTouched:  tel.BucketHistogram("topology.repair_touched", telemetry.DefCountBuckets),
		hRepairMS: tel.BucketHistogram("topology.repair_ms", telemetry.DefLatencyBuckets),
	}
}

// Topology returns the maintained topology. Callers must treat it as
// read-only; it remains valid (and mutates) across Apply calls.
func (d *Dynamic) Topology() *Topology { return d.t }

// SetEdgeObserver installs obs to receive the repair-phase N-edge
// mutations of subsequent Apply calls (nil removes it). See EdgeObserver
// for what is and is not reported.
func (d *Dynamic) SetEdgeObserver(obs EdgeObserver) { d.obs = obs }

// N returns the current node count.
func (d *Dynamic) N() int { return len(d.t.Pts) }

// Points returns the current positions. Callers must not mutate the slice;
// it is invalidated by the next Apply.
func (d *Dynamic) Points() []geom.Point { return d.t.Pts }

// HasNodeAt reports whether some node sits exactly at p. Joins and moves
// onto an occupied position are rejected (the ΘALG sector geometry needs
// distinct positions).
func (d *Dynamic) HasNodeAt(p geom.Point) bool {
	found := false
	d.idx.ForEachWithin(p, 0, func(int) { found = true })
	return found
}

// Apply executes one churn event and repairs the topology locally. It
// panics on an out-of-range node, a coincident position, or a Leave that
// would drop the node count below two.
func (d *Dynamic) Apply(ev Event) UpdateStats {
	start := time.Now()
	var st UpdateStats
	switch ev.Kind {
	case Join:
		st = d.join(ev.Pos)
	case Leave:
		st = d.leave(ev.Node)
	case Move:
		st = d.move(ev.Node, ev.Pos)
	default:
		panic(fmt.Sprintf("topology: unknown event kind %d", int(ev.Kind)))
	}
	st.Kind = ev.Kind
	st.N = len(d.t.Pts)
	st.Duration = time.Since(start)
	d.cEvents.Inc()
	d.cTouched.Add(int64(st.Touched))
	d.hTouched.Observe(float64(st.Touched))
	d.hRepairMS.Observe(float64(st.Duration) / float64(time.Millisecond))
	if d.tel.Tracing() {
		d.tel.Emit(telemetry.Event{Layer: "topology", Kind: "repair", Name: ev.Kind.String(),
			DurMS: float64(st.Duration) / float64(time.Millisecond),
			Fields: map[string]float64{
				"n":       float64(st.N),
				"phase1":  float64(st.Phase1),
				"touched": float64(st.Touched),
				"edges":   float64(d.t.N.NumEdges()),
			}})
	}
	return st
}

func (d *Dynamic) checkNode(x int) {
	if x < 0 || x >= len(d.t.Pts) {
		panic(fmt.Sprintf("topology: event targets node %d of %d", x, len(d.t.Pts)))
	}
}

func (d *Dynamic) checkVacant(p geom.Point) {
	if d.HasNodeAt(p) {
		panic(fmt.Sprintf("topology: position (%v, %v) already occupied; ΘALG requires distinct positions", p.X, p.Y))
	}
}

func (d *Dynamic) join(p geom.Point) UpdateStats {
	d.checkVacant(p)
	k := d.t.Sectors.Count()
	d.idx.Insert(p)
	d.t.Pts = append(d.t.Pts, p)
	d.t.NearestOut = append(d.t.NearestOut, newRow(k))
	d.t.AdmitIn = append(d.t.AdmitIn, newRow(k))
	d.t.N.AddNode()
	d.t.Yao.AddNode()
	d.mark = append(d.mark, 0)
	return d.repair(d.centersFor(p, p))
}

func (d *Dynamic) leave(x int) UpdateStats {
	d.checkNode(x)
	n := len(d.t.Pts)
	if n <= 2 {
		panic("topology: Leave would drop below two nodes")
	}
	z := n - 1
	oldPos := d.t.Pts[x]
	d.t.N.RemoveNodeSwap(x)
	d.t.Yao.RemoveNodeSwap(x)
	d.idx.RemoveSwap(x)
	if x != z {
		// Node z took id x: move its rows down and rewrite every in-range
		// reference to the old id. Only nodes within D of z's position can
		// reference it.
		zPos := d.t.Pts[z]
		d.t.Pts[x] = zPos
		d.t.NearestOut[x] = d.t.NearestOut[z]
		d.t.AdmitIn[x] = d.t.AdmitIn[z]
		d.idx.ForEachWithin(zPos, d.t.Cfg.Range, func(u int) {
			relabelRow(d.t.NearestOut[u], int32(z), int32(x))
			relabelRow(d.t.AdmitIn[u], int32(z), int32(x))
		})
	}
	d.t.Pts = d.t.Pts[:z]
	d.t.NearestOut = d.t.NearestOut[:z]
	d.t.AdmitIn = d.t.AdmitIn[:z]
	d.mark = d.mark[:z]
	return d.repair(d.centersFor(oldPos, oldPos))
}

func (d *Dynamic) move(x int, to geom.Point) UpdateStats {
	d.checkNode(x)
	from := d.t.Pts[x]
	if from == to {
		return UpdateStats{}
	}
	d.checkVacant(to)
	d.idx.MoveTo(x, to)
	d.t.Pts[x] = to
	return d.repair(d.centersFor(from, to))
}

func (d *Dynamic) centersFor(a, b geom.Point) []geom.Point {
	d.centers[0], d.centers[1] = a, b
	if a == b {
		return d.centers[:1]
	}
	return d.centers[:2]
}

// relabelRow rewrites references to old into now in a sector row.
func relabelRow(row []int32, old, now int32) {
	for i, v := range row {
		if v == old {
			row[i] = now
		}
	}
}

// newRow allocates one sector row initialized to -1.
func newRow(k int) []int32 {
	row := make([]int32, k)
	for i := range row {
		row[i] = -1
	}
	return row
}

// repair restores the BuildTheta invariants after the positions near
// centers changed: phase-1 rows for every node within D of a center,
// phase-2 admissions and incident N-edges for every node within 2D, and
// Yao edges alongside. Everything farther is provably unaffected — its
// phase-1 ball and the phase-1 balls of its selectors contain no changed
// position.
func (d *Dynamic) repair(centers []geom.Point) UpdateStats {
	D := d.t.Cfg.Range
	d.p1 = d.collect(d.p1[:0], centers, D)
	d.p2 = d.collect(d.p2[:0], centers, 2*D)

	for _, u := range d.p1 {
		d.t.phase1Row(int(u), d.idx)
	}
	d.fixEdges(d.t.Yao, d.p1, d.t.NearestOut, d.yaoSupported, nil)

	for _, u := range d.p2 {
		d.t.admitRow(int(u), d.idx)
	}
	d.fixEdges(d.t.N, d.p2, d.t.AdmitIn, d.admitSupported, d.obs)

	return UpdateStats{Phase1: len(d.p1), Touched: len(d.p2)}
}

// collect appends the deduplicated union of the r-balls around centers to
// out, in deterministic (center-major, grid) order.
func (d *Dynamic) collect(out []int32, centers []geom.Point, r float64) []int32 {
	d.stamp++
	stamp := d.stamp
	for _, c := range centers {
		d.idx.ForEachWithin(c, r, func(u int) {
			if d.mark[u] != stamp {
				d.mark[u] = stamp
				out = append(out, int32(u))
			}
		})
	}
	return out
}

// yaoSupported reports whether the Yao edge (u, v) is justified by the
// current phase-1 tables: u selected v or v selected u.
func (d *Dynamic) yaoSupported(u, v int) bool {
	return d.t.NearestOut[u][d.t.SectorOf(u, v)] == int32(v) ||
		d.t.NearestOut[v][d.t.SectorOf(v, u)] == int32(u)
}

// admitSupported reports whether the N edge (u, v) is justified by the
// current phase-2 tables: u admitted v or v admitted u.
func (d *Dynamic) admitSupported(u, v int) bool {
	return d.t.AdmitIn[u][d.t.SectorOf(u, v)] == int32(v) ||
		d.t.AdmitIn[v][d.t.SectorOf(v, u)] == int32(u)
}

// fixEdges reconciles g's edges incident to the given nodes with the
// (already recomputed) sector tables: drop incident edges the tables no
// longer support, then add every edge the nodes' own rows assert. Edges
// with both endpoints outside nodes are untouched — their rows did not
// change, so their support did not either. A non-nil obs is told about
// every actual presence change: removals are always real (the neighbor
// snapshot lists only present edges, and an edge already dropped via its
// other endpoint no longer appears), and adds are screened with HasEdge so
// re-asserting a surviving edge stays silent.
func (d *Dynamic) fixEdges(g *graph.Graph, nodes []int32, rows [][]int32, supported func(u, v int) bool, obs EdgeObserver) {
	for _, u := range nodes {
		d.nbrs = append(d.nbrs[:0], g.Neighbors(int(u))...)
		for _, v := range d.nbrs {
			if !supported(int(u), int(v)) {
				g.RemoveEdge(int(u), int(v))
				if obs != nil {
					obs.EdgeRemoved(int(u), int(v))
				}
			}
		}
	}
	for _, u := range nodes {
		for _, v := range rows[u] {
			if v >= 0 {
				if obs != nil && !g.HasEdge(int(u), int(v)) {
					obs.EdgeAdded(int(u), int(v))
				}
				g.AddEdge(int(u), int(v))
			}
		}
	}
}
