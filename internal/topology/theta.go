// Package topology implements the paper's primary contribution: the
// two-phase local topology-control algorithm ΘALG (Section 2.1, proposed by
// Li et al. and analyzed by Jia/Rajaraman/Scheideler), its incremental
// maintenance under churn, and the θ-path replacement used by Lemma 2.9
// and Theorem 2.8. A build's one artifact is the pair of per-node sector
// tables plus the final topology N stitched from them; the plain Yao graph
// ΘALG prunes and the message counts of the 3-round protocol are derived
// from the tables on demand. Resolve is the one check of ΘALG's input
// (point count, θ, range, distinct positions) for every caller. The
// message-passing realization of the protocol lives in internal/dist.
package topology

import (
	"context"
	"fmt"
	"math"
	"sync"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
	"toporouting/internal/telemetry"
)

// DefaultTheta is the default cone angle (π/6, i.e. 12 sectors). The
// analysis requires θ ≤ π/3; smaller angles trade degree for stretch.
const DefaultTheta = math.Pi / 6

// Config parameterizes ΘALG.
type Config struct {
	// Theta is the cone angle; must be in (0, π/3]. Zero selects
	// DefaultTheta.
	Theta float64
	// Range is the maximum transmission range D defining the transmission
	// graph G*. Must be positive.
	Range float64
	// Orientations optionally anchors each node's sector partition at its
	// own azimuth (radians). The paper's nodes each divide the 360° space
	// around themselves, so no shared frame is assumed; nil uses azimuth
	// 0 everywhere. Length must equal the point count when non-nil.
	Orientations []float64
	// Telemetry, when non-nil, records build-phase timings, counters, and
	// (when tracing) a per-build event. nil disables instrumentation at
	// zero cost.
	Telemetry *telemetry.Telemetry

	// distinct is set by Resolve, which has shown the positions distinct;
	// a build with it set skips its own check.
	distinct bool
}

func (c Config) withDefaults() Config {
	if c.Theta == 0 {
		c.Theta = DefaultTheta
	}
	return c
}

// Topology is the output of ΘALG on a point set: the per-sector selection
// tables that the θ-path replacement and the distributed protocol are
// defined in terms of, and the bounded-degree graph N stitched from them.
// The intermediate Yao graph N₁ is YaoGraph, computed on call.
type Topology struct {
	// Pts are the node positions; node i is Pts[i].
	Pts []geom.Point
	// Cfg echoes the configuration the topology was built with.
	Cfg Config
	// Sectors is the cone partition used by every node.
	Sectors geom.Sectors
	// N is the final topology: connected (when G* is), degree ≤ 4π/θ,
	// O(1) energy-stretch (Theorem 2.2).
	N *graph.Graph
	// NearestOut[u][s] is u's phase-1 selection in sector s: the nearest
	// node of u within range whose direction falls in sector s, or -1.
	// v = NearestOut[u][s] means v ∈ N(u).
	NearestOut [][]int32
	// AdmitIn[u][s] is the phase-2 admission: among all w with
	// u ∈ N(w) lying in sector s of u, the nearest such w, or -1. Every
	// admitted pair is an edge of N.
	AdmitIn [][]int32
}

// closer reports whether a is strictly preferred to b as a neighbor of u,
// breaking exact distance ties by node id. The paper assumes unique pairwise
// distances; this deterministic tie-break realizes that assumption for
// degenerate inputs such as exact grids.
func closer(pts []geom.Point, u, a, b int) bool {
	da, db := geom.Dist2(pts[u], pts[a]), geom.Dist2(pts[u], pts[b])
	if da != db {
		return da < db
	}
	return a < b
}

// withinIndex is the spatial-query capability the builders and the
// incremental maintenance need: both *spatial.Grid (immutable, batch
// builds) and *spatial.DynGrid (mutable, churn maintenance) provide it.
type withinIndex interface {
	ForEachWithin(p geom.Point, r float64, fn func(j int))
}

// phase1Row recomputes node u's phase-1 selections in place: per sector,
// the nearest node within transmission range. The result is a pure
// function of the positions (and ids, for exact-tie breaks) of u's in-range
// nodes — visit order never matters because closer is a strict total order.
func (t *Topology) phase1Row(u int, idx withinIndex) {
	row := t.NearestOut[u]
	for i := range row {
		row[i] = -1
	}
	idx.ForEachWithin(t.Pts[u], t.Cfg.Range, func(v int) {
		if v == u {
			return
		}
		s := t.SectorOf(u, v)
		if row[s] < 0 || closer(t.Pts, u, v, int(row[s])) {
			row[s] = int32(v)
		}
	})
}

// phase1Scanner runs phase1Row's selection loop over a node range with one
// hoisted visitor instead of a fresh closure per row: the per-row closures
// were one heap allocation per node, the dominant allocation of an
// otherwise arena-backed build. The selection logic is phase1Row's exactly;
// rows are assumed pre-initialized to -1 (fresh sector tables are).
type phase1Scanner struct {
	t   *Topology
	u   int
	row []int32
}

func (s *phase1Scanner) visit(v int) {
	if v == s.u {
		return
	}
	sec := s.t.SectorOf(s.u, v)
	if s.row[sec] < 0 || closer(s.t.Pts, s.u, v, int(s.row[sec])) {
		s.row[sec] = int32(v)
	}
}

// scan processes the rows of nodes, checking ctx every cancelStride rows.
// It returns early (with rows partially filled) once the context dies;
// callers check ctx.Err() after all parts complete, as fillGrid does.
func (s *phase1Scanner) scan(ctx context.Context, nodes []int32, idx withinIndex) {
	t := s.t
	fn := s.visit
	for i, u := range nodes {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return
		}
		s.u, s.row = int(u), t.NearestOut[u]
		idx.ForEachWithin(t.Pts[u], t.Cfg.Range, fn)
	}
}

// scatterAdmissions runs phase 2's scatter over the rows of nodes for the
// targets in [lo, hi): every w in nodes that selected such a v is an
// in-neighbor candidate of v in sector S(v, w), and v keeps the closest.
// Only rows AdmitIn[lo:hi] are written, so workers owning disjoint target
// ranges never race, and the winners do not depend on the visit order
// because closer is a strict total order. It checks ctx like
// phase1Scanner.scan.
func (t *Topology) scatterAdmissions(ctx context.Context, nodes []int32, lo, hi int32) {
	for i, w := range nodes {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return
		}
		for _, v := range t.NearestOut[w] {
			if v < lo || v >= hi {
				continue
			}
			s := t.SectorOf(int(v), int(w))
			cur := t.AdmitIn[v][s]
			if cur < 0 || closer(t.Pts, int(v), int(w), int(cur)) {
				t.AdmitIn[v][s] = w
			}
		}
	}
}

// admitRow recomputes node u's phase-2 admissions in place by gathering:
// per sector of u, the nearest in-range w that selected u in phase 1. This
// is the per-node (gather) formulation of scatterAdmissions —
// both compute the maximum of the same candidate set under the same strict
// order, so they agree exactly. Whether w selected u is read off w's row:
// a row holds u only in the sector u falls into, so in-range nodes that
// did not select u cost no SectorOf.
func (t *Topology) admitRow(u int, idx withinIndex) {
	row := t.AdmitIn[u]
	for i := range row {
		row[i] = -1
	}
	idx.ForEachWithin(t.Pts[u], t.Cfg.Range, func(w int) {
		if w == u || !rowHas(t.NearestOut[w], int32(u)) {
			return
		}
		s := t.SectorOf(u, w)
		if row[s] < 0 || closer(t.Pts, u, w, int(row[s])) {
			row[s] = int32(w)
		}
	})
}

// rowHas reports whether a sector row selects v.
func rowHas(row []int32, v int32) bool {
	for _, u := range row {
		if u == v {
			return true
		}
	}
	return false
}

// ErrCoincidentPoints is the error of a build over a point set in which two
// nodes share a position (see checkDistinct). It wraps ErrInvalidInput.
var ErrCoincidentPoints = fmt.Errorf("topology: %w: coincident points; ΘALG requires distinct positions", ErrInvalidInput)

// BuildTheta runs ΘALG on pts and returns the resulting topology. It panics
// on an invalid configuration or coincident points; callers with outside
// input check it with Resolve first. The transmission graph G* is
// implicit: nodes within distance Cfg.Range are mutually reachable.
func BuildTheta(pts []geom.Point, cfg Config) *Topology {
	t, err := build(context.Background(), pts, cfg, 1, nil)
	if err != nil {
		panic(err)
	}
	return t
}

// BuildThetaContext is BuildTheta under a cancellation context: the build
// checks ctx between row batches of every phase and returns (nil, ctx.Err())
// promptly after cancellation, so a caller whose client went away stops
// burning CPU mid-build. Coincident points return an error wrapping
// ErrCoincidentPoints instead of panicking. workers caps the goroutines
// the build fans out over (≤ 1 stays sequential). The topology is
// identical for every worker count.
func BuildThetaContext(ctx context.Context, pts []geom.Point, cfg Config, workers int) (*Topology, error) {
	return build(ctx, pts, cfg, workers, nil)
}

// cancelStride is how many per-node rows a build loop processes between
// context checks: large enough that the atomic ctx.Err() load is amortized
// to noise, small enough that cancellation lands in well under a
// millisecond of work.
const cancelStride = 256

// build is the one ΘALG builder behind every entry point. It validates the
// input, takes the sector tables (fresh, or recycled from ar when non-nil),
// fills them and stitches N from them (fillGrid), and records telemetry.
// workers caps the fill's goroutines; the tables and N (adjacency order
// included) are bit-identical for every worker count.
func build(ctx context.Context, pts []geom.Point, cfg Config, workers int, ar *BuildArena) (*Topology, error) {
	cfg = cfg.withDefaults()
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("topology: non-positive range %v", cfg.Range))
	}
	sectors := geom.NewSectors(cfg.Theta)
	n := len(pts)
	k := sectors.Count()
	if cfg.Orientations != nil && len(cfg.Orientations) != n {
		panic(fmt.Sprintf("topology: %d orientations for %d points", len(cfg.Orientations), n))
	}
	if !cfg.distinct {
		if err := checkDistinct(pts); err != nil {
			return nil, err
		}
	}
	// The proof covers pts as they are now, so the echoed Cfg drops it.
	cfg.distinct = false
	t := &Topology{
		Pts:     pts,
		Cfg:     cfg,
		Sectors: sectors,
	}
	if ar != nil {
		t.NearestOut, t.AdmitIn = ar.sectorTables(n, k)
	} else {
		t.NearestOut = newSectorTable(n, k)
		t.AdmitIn = newSectorTable(n, k)
	}
	tel := cfg.Telemetry
	stopBuild := tel.StartPhase("topology.build")
	ctx, spanBuild := telemetry.StartChild(ctx, "topology.build")
	spanBuild.SetAttr("n", float64(n))
	err := t.fillGrid(ctx, workers, ar)
	stopBuild()
	if err != nil {
		spanBuild.End()
		return nil, err
	}
	spanBuild.SetAttr("edges", float64(t.N.NumEdges()))
	spanBuild.SetAttr("max_degree", float64(t.N.MaxDegree()))
	spanBuild.End()
	if tel.Enabled() {
		yaoEdges := float64(t.yaoEdges())
		tel.Counter("topology.builds").Inc()
		tel.Gauge("topology.edges").Set(float64(t.N.NumEdges()))
		tel.Gauge("topology.yao_edges").Set(yaoEdges)
		tel.Gauge("topology.max_degree").Set(float64(t.N.MaxDegree()))
		if tel.Tracing() {
			fields := map[string]float64{
				"n":          float64(n),
				"edges":      float64(t.N.NumEdges()),
				"yao_edges":  yaoEdges,
				"max_degree": float64(t.N.MaxDegree()),
			}
			tel.Emit(telemetry.Event{Layer: "topology", Kind: "build", Fields: fields})
		}
	}
	return t, nil
}

// fillGrid fills the sector tables from one spatial grid over the whole
// point set and stitches N, under the topology.phase1 and topology.phase2
// spans. Both phases visit the nodes in the grid's bucket order, so
// consecutive rows scan overlapping neighborhoods and stay cache-local.
// They fan out over up to workers goroutines: phase 1 gives each one
// contiguous slice of that order, phase 2 one contiguous range of target
// rows. Phase 1 reads only positions and phase 2 only the finished phase-1
// table, and no two goroutines write the same row, so the result is
// identical for every worker count.
func (t *Topology) fillGrid(ctx context.Context, workers int, ar *BuildArena) error {
	n := len(t.Pts)
	tel := t.Cfg.Telemetry
	if workers > n {
		workers = n
	}

	// Phase 1: every node selects, in each of its sectors, the nearest
	// node within transmission range. This is purely local given the
	// positions of in-range nodes (round 1 of the distributed protocol).
	stopPhase1 := tel.StartPhase("topology.phase1")
	_, spanP1 := telemetry.StartChild(ctx, "topology.phase1")
	var idx *spatial.Grid
	if ar != nil {
		ar.grid.Fill(t.Pts, t.Cfg.Range)
		idx = &ar.grid
	} else {
		idx = spatial.NewGrid(t.Pts, t.Cfg.Range)
	}
	order := idx.Order()
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			part := order[w*n/workers : (w+1)*n/workers]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := phase1Scanner{t: t}
				sc.scan(ctx, part, idx)
			}()
		}
		wg.Wait()
	} else {
		sc := phase1Scanner{t: t}
		sc.scan(ctx, order, idx)
	}
	stopPhase1()
	spanP1.End()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Phase 2: every node u admits, per sector, only the nearest node w
	// that selected u (u ∈ N(w)). In the distributed protocol this is the
	// neighborhood round (w tells u "I selected you") followed by the
	// connection round (u answers its per-sector winners).
	stopPhase2 := tel.StartPhase("topology.phase2")
	_, spanP2 := telemetry.StartChild(ctx, "topology.phase2")
	defer spanP2.End()
	defer stopPhase2()
	if workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := int32(w*n/workers), int32((w+1)*n/workers)
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.scatterAdmissions(ctx, order, lo, hi)
			}()
		}
		wg.Wait()
	} else {
		t.scatterAdmissions(ctx, order, 0, int32(n))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	t.stitchN(ar)
	return nil
}

// stitchN materializes the final topology N: an edge for every phase-2
// admission, in either direction.
func (t *Topology) stitchN(ar *BuildArena) {
	var slab *graph.Slab
	if ar != nil {
		slab = &ar.fin
	}
	t.N = closure(t.AdmitIn, t.Sectors.Count(), slab)
}

// closure returns the undirected graph with an edge {u, v} for every entry
// v ≥ 0 of row u of the n×k table tab, inserted in row-major order (which
// fixes the adjacency order every builder reproduces). A non-nil slab
// carves rows sized 2k, which N never exceeds: Lemma 2.1 bounds its degree
// by 4π/θ = 2k.
func closure(tab [][]int32, k int, slab *graph.Slab) *graph.Graph {
	n := len(tab)
	var g *graph.Graph
	if slab != nil {
		g = slab.NewIn(n, 2*k)
	} else {
		g = graph.New(n)
	}
	for u, row := range tab {
		for _, v := range row {
			if v >= 0 {
				g.AddEdge(u, int(v))
			}
		}
	}
	return g
}

// checkDistinct enforces the paper's standing assumption of distinct node
// positions (Section 2.1 assumes unique pairwise distances; our
// deterministic tie-break relaxes uniqueness, but zero-distance pairs make
// the sector geometry — and hence the θ-path recursion — ill-defined). The
// error wraps ErrCoincidentPoints and names the first coincident pair.
// The map comes from a pool, so the per-request path does not reallocate
// its buckets.
func checkDistinct(pts []geom.Point) error {
	seen := seenPool.Get().(map[geom.Point]int)
	defer func() {
		clear(seen)
		seenPool.Put(seen)
	}()
	for i, p := range pts {
		if j, dup := seen[p]; dup {
			return fmt.Errorf("%w: nodes %d and %d share position (%v, %v)", ErrCoincidentPoints, j, i, p.X, p.Y)
		}
		seen[p] = i
	}
	return nil
}

var seenPool = sync.Pool{New: func() any { return make(map[geom.Point]int) }}

// newSectorTable allocates an n×k table initialized to -1.
func newSectorTable(n, k int) [][]int32 {
	flat := make([]int32, n*k)
	for i := range flat {
		flat[i] = -1
	}
	tab := make([][]int32, n)
	for i := range tab {
		tab[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return tab
}

// SectorOf returns the index of node u's sector containing node v,
// honoring u's orientation when per-node orientations are configured.
func (t *Topology) SectorOf(u, v int) int {
	if t.Cfg.Orientations != nil {
		return t.Sectors.IndexOfOriented(t.Pts[u], t.Pts[v], t.Cfg.Orientations[u])
	}
	return t.Sectors.IndexOf(t.Pts[u], t.Pts[v])
}

// Selected reports whether v ∈ N(u), i.e. u selected v in phase 1.
func (t *Topology) Selected(u, v int) bool {
	return t.NearestOut[u][t.SectorOf(u, v)] == int32(v)
}

// DegreeBound returns the theoretical maximum degree 4π/θ of Lemma 2.1,
// evaluated for the actual sector width in use.
func (t *Topology) DegreeBound() int { return 2 * t.Sectors.Count() }

// EnergyCost returns a graph.CostFunc assigning |uv|^κ to each edge, the
// energy metric of Section 2.2.
func (t *Topology) EnergyCost(kappa float64) graph.CostFunc {
	pts := t.Pts
	return func(u, v int) float64 { return geom.EnergyCost(pts[u], pts[v], kappa) }
}

// DistanceCost returns a graph.CostFunc assigning |uv| to each edge, the
// metric of the distance-stretch analysis (Section 2.3).
func (t *Topology) DistanceCost() graph.CostFunc {
	pts := t.Pts
	return func(u, v int) float64 { return geom.Dist(pts[u], pts[v]) }
}

// YaoGraph returns the phase-1 graph N₁ (the Yao/θ-graph), the classic
// construction of Yao [44] that ΘALG prunes: (u,v) is an edge iff u ∈ N(v)
// or v ∈ N(u). It is a spanner but has worst-case degree Ω(n). It is the
// undirected closure of NearestOut, built fresh on every call; nothing on
// the build or repair path keeps it.
func (t *Topology) YaoGraph() *graph.Graph {
	return closure(t.NearestOut, t.Sectors.Count(), nil)
}

// yaoEdges counts YaoGraph's edges without building it: every phase-1
// selection is an edge, except that a mutual pair (u selected v and v
// selected u) is one edge, counted from its smaller endpoint's row only.
func (t *Topology) yaoEdges() int {
	m := 0
	for u, row := range t.NearestOut {
		for _, v := range row {
			if v >= 0 && !(int(v) < u && rowHas(t.NearestOut[v], int32(u))) {
				m++
			}
		}
	}
	return m
}

// ProtocolStats counts the traffic of the synchronous 3-round protocol of
// Section 2.1 that builds this topology.
type ProtocolStats struct {
	// PositionMsgs, NeighborhoodMsgs, ConnectionMsgs count the messages
	// sent in each round (a broadcast counts once regardless of
	// receivers).
	PositionMsgs, NeighborhoodMsgs, ConnectionMsgs int
	// Deliveries counts point-to-point deliveries (a broadcast counts
	// once per receiver).
	Deliveries int
}

// ProtocolStats returns the message counts of the 3-round protocol, read
// off the sector tables. Round 1: every node broadcasts its position once,
// heard by every other node within range D. Round 2: u unicasts N(u) to
// each member of N(u), one message per NearestOut entry. Round 3: u
// answers each per-sector winner of its admissions, one message per
// AdmitIn entry. A node lies in exactly one sector of u, so the entries
// of a row are distinct. Every unicast is one delivery.
func (t *Topology) ProtocolStats() ProtocolStats {
	st := ProtocolStats{PositionMsgs: len(t.Pts)}
	for u := range t.NearestOut {
		for s := range t.NearestOut[u] {
			if t.NearestOut[u][s] >= 0 {
				st.NeighborhoodMsgs++
			}
			if t.AdmitIn[u][s] >= 0 {
				st.ConnectionMsgs++
			}
		}
	}
	grid := spatial.NewGrid(t.Pts, t.Cfg.Range)
	for u, p := range t.Pts {
		grid.ForEachWithin(p, t.Cfg.Range, func(v int) {
			if v != u {
				st.Deliveries++
			}
		})
	}
	st.Deliveries += st.NeighborhoodMsgs + st.ConnectionMsgs
	return st
}
