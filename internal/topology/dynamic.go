package topology

import (
	"fmt"
	"time"

	"toporouting/internal/geom"
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

// UpdateStats reports the locality of one incremental repair: how few rows
// the change-driven repair had to recompute.
type UpdateStats struct {
	// Kind echoes the applied event.
	Kind EventKind
	// Phase1 is the number of phase-1 rows recomputed in full: the event
	// node's own row (join and move) and every row that had selected it.
	// Rows that only gained the event node as a candidate are patched in
	// O(1) and not counted.
	Phase1 int
	// Touched is the number of nodes whose phase-2 admissions and incident
	// N-edges were recomputed: the change set A, which holds the event node
	// (join and move), every old and new target of its row, and the old and
	// new target of every phase-1 entry that changed. Touched/N is the
	// recomputed fraction a full rebuild would have spent on all n nodes.
	Touched int
	// N is the node count after the event.
	N int
	// Duration is the wall time of the repair.
	Duration time.Duration
}

// EdgeObserver receives the final-topology (N-graph) edge mutations a
// repair performs, in the id space current at notification time. Observers
// see exactly the edges whose presence changed, each at most once per
// Apply: removals all come first and name edges neither endpoint's
// admission row asserts any more, so no later add can restore them, and
// an add is reported only for an edge not yet present. No edge is ever
// both removed and added by one event, so the two notification lists are
// already the set deltas between consecutive states.
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
// recomputes all n nodes, Apply recomputes only the rows an event can
// change, using both halves of the paper's locality argument (Section
// 2.1): a node's phase-1 selection depends only on positions within the
// transmission range D, and its phase-2 admission only on the phase-1
// selections that point at it. For an event at node x:
//
//   - x's own phase-1 row is recomputed in full;
//   - a row that had selected x lost the candidate its selection rested
//     on and is recomputed in full;
//   - a row within D of x's new position that had not selected x either
//     takes x in the one sector x falls into or stays as it is;
//   - every other phase-1 row is unchanged.
//
// Phase 2 then reruns only over the change set A: x, every old and new
// target of x's row, and the old and new target of every phase-1 entry
// that changed. No other node gained, lost or reordered a candidate. The
// maintained topology is edge-for-edge the one BuildTheta would produce on
// the current point set, under the paper's standing assumption of unique
// pairwise distances (Section 2.1); exact-tie inputs such as unjittered
// grids may diverge after a Leave, because swap-renumbering changes the
// ids that break exact-distance ties.
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

	// Per-repair scratch. seen[u] == stamp once this repair recomputed
	// u's phase-1 row; inA[u] == stamp once u is in the change set.
	seen, inA []int32
	stamp     int32
	phase1    int     // full phase-1 rescans
	admit     []int32 // the change set A
	prev      []int32 // a row's selections before its rescan
	nbrs      []int32 // neighbor snapshot during edge fixes
	// A Leave's record, taken in pre-removal ids: the departed node's
	// row and the rows that had selected it.
	targets, selectors []int32
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
// BuildThetaContext result — as a churn-maintenance handle without
// rebuilding it. The handle takes
// ownership of t: its tables and N mutate in place across Apply
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
		seen:      make([]int32, len(t.Pts)),
		inA:       make([]int32, len(t.Pts)),
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
	x := d.idx.Insert(p)
	d.t.Pts = append(d.t.Pts, p)
	d.t.NearestOut = append(d.t.NearestOut, newRow(k))
	d.t.AdmitIn = append(d.t.AdmitIn, newRow(k))
	d.t.N.AddNode()
	d.seen = append(d.seen, 0)
	d.inA = append(d.inA, 0)
	d.begin()
	d.rescanEvent(x)
	d.offerAll(x)
	return d.finish()
}

func (d *Dynamic) leave(x int) UpdateStats {
	d.checkNode(x)
	n := len(d.t.Pts)
	if n <= 2 {
		panic("topology: Leave would drop below two nodes")
	}
	z := n - 1
	// Record what the departure changes while ids are still unambiguous:
	// the departed node's targets lose a phase-2 candidate, and every row
	// that selected it loses its entry. The entries are cleared here,
	// because after the swap-relabel below a reference to x and one to z
	// would both read x.
	d.targets = append(d.targets[:0], d.t.NearestOut[x]...)
	d.selectors = d.selectors[:0]
	d.idx.ForEachWithin(d.t.Pts[x], d.t.Cfg.Range, func(w int) {
		if w != x && clearRef(d.t.NearestOut[w], int32(x)) {
			d.selectors = append(d.selectors, int32(w))
		}
	})
	d.t.N.RemoveNodeSwap(x)
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
	d.seen = d.seen[:z]
	d.inA = d.inA[:z]
	d.begin()
	for _, v := range d.targets {
		d.addAdmit(swapped(v, int32(z), int32(x)))
	}
	for _, w := range d.selectors {
		d.rescan(int(swapped(w, int32(z), int32(x))))
	}
	return d.finish()
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
	d.begin()
	d.rescanEvent(x)
	// Only a row within D of x's old position can have selected x.
	d.idx.ForEachWithin(from, d.t.Cfg.Range, func(w int) {
		if d.seen[w] != d.stamp && rowHas(d.t.NearestOut[w], int32(x)) {
			d.rescan(w)
		}
	})
	d.offerAll(x)
	return d.finish()
}

// relabelRow rewrites references to old into now in a sector row.
func relabelRow(row []int32, old, now int32) {
	for i, v := range row {
		if v == old {
			row[i] = now
		}
	}
}

// clearRef resets the entry of row that selects v, if any, to -1 and
// reports whether there was one.
func clearRef(row []int32, v int32) bool {
	for i, u := range row {
		if u == v {
			row[i] = -1
			return true
		}
	}
	return false
}

// swapped translates an id recorded before a swap removal: z became x.
func swapped(v, z, x int32) int32 {
	if v == z {
		return x
	}
	return v
}

// newRow allocates one sector row initialized to -1.
func newRow(k int) []int32 {
	row := make([]int32, k)
	for i := range row {
		row[i] = -1
	}
	return row
}

// begin starts a repair with empty change sets.
func (d *Dynamic) begin() {
	d.stamp++
	d.phase1 = 0
	d.admit = d.admit[:0]
}

// addAdmit puts u into the change set A; negative ids (empty sectors) are
// ignored.
func (d *Dynamic) addAdmit(u int32) {
	if u >= 0 && d.inA[u] != d.stamp {
		d.inA[u] = d.stamp
		d.admit = append(d.admit, u)
	}
}

// rescanEvent recomputes the event node x's phase-1 row in full. x itself
// appeared or moved, so every node it selects, before or after, sees a
// changed candidate: all of them join the change set, not only the
// entries that differ.
func (d *Dynamic) rescanEvent(x int) {
	d.seen[x] = d.stamp
	d.addAdmit(int32(x))
	row := d.t.NearestOut[x]
	for _, v := range row {
		d.addAdmit(v)
	}
	d.t.phase1Row(x, d.idx)
	d.phase1++
	for _, v := range row {
		d.addAdmit(v)
	}
}

// rescan recomputes row w in full and puts the old and new target of every
// entry that changed into the change set.
func (d *Dynamic) rescan(w int) {
	d.seen[w] = d.stamp
	row := d.t.NearestOut[w]
	d.prev = append(d.prev[:0], row...)
	d.t.phase1Row(w, d.idx)
	d.phase1++
	for s, v := range row {
		if old := d.prev[s]; old != v {
			d.addAdmit(old)
			d.addAdmit(v)
		}
	}
}

// offerAll patches every row within D of x that was not recomputed in
// full: such a row did not select x, so x is at most a new candidate in
// the one sector it falls into, and it takes that sector only if it beats
// the current selection there.
func (d *Dynamic) offerAll(x int) {
	d.idx.ForEachWithin(d.t.Pts[x], d.t.Cfg.Range, func(w int) {
		if d.seen[w] == d.stamp {
			return
		}
		row := d.t.NearestOut[w]
		s := d.t.SectorOf(w, x)
		cur := row[s]
		if cur >= 0 && !closer(d.t.Pts, w, x, int(cur)) {
			return
		}
		row[s] = int32(x)
		d.addAdmit(cur) // x is in A already
	})
}

// finish restores the graph invariants from the recomputed phase-1 rows:
// phase-2 admissions and N edges over the change set. Every other
// admission provably kept its candidate set and their order, so every
// other edge kept its support.
func (d *Dynamic) finish() UpdateStats {
	for _, u := range d.admit {
		d.t.admitRow(int(u), d.idx)
	}
	d.fixEdges()
	return UpdateStats{Phase1: d.phase1, Touched: len(d.admit)}
}

// fixEdges reconciles N's edges incident to the change set with the
// (already recomputed) admission tables: drop incident edges neither
// endpoint admits any more, then add every edge the nodes' own rows
// assert. Edges with both endpoints outside the change set are untouched —
// their rows did not change, so their support did not either. An installed
// observer is told about every actual presence change: removals are always
// real (the neighbor snapshot lists only present edges, and an edge
// already dropped via its other endpoint no longer appears), and adds are
// screened with HasEdge so re-asserting a surviving edge stays silent.
func (d *Dynamic) fixEdges() {
	g, rows, obs := d.t.N, d.t.AdmitIn, d.obs
	for _, u := range d.admit {
		d.nbrs = append(d.nbrs[:0], g.Neighbors(int(u))...)
		for _, v := range d.nbrs {
			if !rowHas(rows[u], v) && !rowHas(rows[v], u) {
				g.RemoveEdge(int(u), int(v))
				if obs != nil {
					obs.EdgeRemoved(int(u), int(v))
				}
			}
		}
	}
	for _, u := range d.admit {
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
