package proximity

import (
	"math"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/pointset"
)

func subsetOf(t *testing.T, name string, sub, super *graph.Graph) {
	t.Helper()
	for _, e := range sub.Edges() {
		if !super.HasEdge(e.U, e.V) {
			t.Fatalf("%s: edge %v missing from supergraph", name, e)
		}
	}
}

func TestGabrielSquare(t *testing.T) {
	// Unit square: all four sides are Gabriel edges; the diagonals are
	// not (each diagonal's disk contains the other two corners).
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	g := Gabriel(pts, 0)
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 3) {
		t.Error("diagonal should be blocked")
	}
}

func TestGabrielBlockedByMidpointWitness(t *testing.T) {
	// A witness exactly between u and v blocks the Gabriel edge.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 0.1)}
	g := Gabriel(pts, 0)
	if g.HasEdge(0, 1) {
		t.Error("witness inside diameter disk should block edge")
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 1) {
		t.Error("witness edges missing")
	}
}

func TestGabrielRangeRestriction(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}
	if g := Gabriel(pts, 2); g.NumEdges() != 0 {
		t.Error("edge beyond range survived")
	}
	if g := Gabriel(pts, 3.5); g.NumEdges() != 1 {
		t.Error("edge within range missing")
	}
}

func TestGabrielPreservesMinimumEnergyPaths(t *testing.T) {
	// By definition the Gabriel graph preserves minimum-energy paths for
	// κ ≥ 2: compare against the complete graph's energy shortest paths.
	pts := pointset.Generate(pointset.KindUniform, 60, 17)
	gab := Gabriel(pts, 0)
	complete := graph.New(len(pts))
	for u := 0; u < len(pts); u++ {
		for v := u + 1; v < len(pts); v++ {
			complete.AddEdge(u, v)
		}
	}
	cost := func(u, v int) float64 { return geom.EnergyCost(pts[u], pts[v], 2) }
	for src := 0; src < 10; src++ {
		dg, _ := gab.Dijkstra(src, cost)
		dc, _ := complete.Dijkstra(src, cost)
		for v := range pts {
			if math.Abs(dg[v]-dc[v]) > 1e-9*(1+dc[v]) {
				t.Fatalf("energy path %d→%d: gabriel %v vs optimal %v", src, v, dg[v], dc[v])
			}
		}
	}
}

func TestRNGLuneWitness(t *testing.T) {
	// Equilateral-ish triangle with a point near the center of (0,1):
	// witness closer to both endpoints than they are to each other.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(1, 0.3)}
	g := RNG(pts, 0)
	if g.HasEdge(0, 1) {
		t.Error("lune witness should block RNG edge")
	}
}

func TestRNGSubsetGabriel(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pts := pointset.Generate(pointset.KindUniform, 120, seed)
		subsetOf(t, "RNG⊆Gabriel", RNG(pts, 0), Gabriel(pts, 0))
	}
}

func TestEMSTSubsetRNG(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pts := pointset.Generate(pointset.KindUniform, 120, seed)
		subsetOf(t, "EMST⊆RNG", EMST(pts), RNG(pts, 0))
	}
}

func TestGabrielSubsetDelaunay(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		pts := pointset.Generate(pointset.KindUniform, 120, seed)
		subsetOf(t, "Gabriel⊆Delaunay", Gabriel(pts, 0), Delaunay(pts))
	}
}

func TestEMSTProperties(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 80, 3)
	mst := EMST(pts)
	if !mst.Connected() {
		t.Fatal("EMST must be connected")
	}
	if mst.NumEdges() != len(pts)-1 {
		t.Fatalf("EMST edges = %d, want %d", mst.NumEdges(), len(pts)-1)
	}
	if EMST(nil).N() != 0 {
		t.Error("empty EMST")
	}
	single := EMST([]geom.Point{geom.Pt(1, 1)})
	if single.NumEdges() != 0 {
		t.Error("single-point EMST should have no edges")
	}
}

func TestDelaunaySmall(t *testing.T) {
	// Triangle: all three edges.
	tri := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, 1)}
	if g := Delaunay(tri); g.NumEdges() != 3 {
		t.Fatalf("triangle edges = %d", g.NumEdges())
	}
	// Two points: single edge.
	if g := Delaunay(tri[:2]); g.NumEdges() != 1 {
		t.Error("two-point Delaunay should be one edge")
	}
	// Degenerate sizes.
	if g := Delaunay(tri[:1]); g.NumEdges() != 0 {
		t.Error("single point")
	}
	if g := Delaunay(nil); g.N() != 0 {
		t.Error("empty")
	}
}

func TestDelaunaySquareHasOneDiagonal(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1.01), geom.Pt(0, 1)}
	g := Delaunay(pts)
	diag := 0
	if g.HasEdge(0, 2) {
		diag++
	}
	if g.HasEdge(1, 3) {
		diag++
	}
	if diag != 1 {
		t.Errorf("diagonals = %d, want exactly 1", diag)
	}
	if g.NumEdges() != 5 {
		t.Errorf("edges = %d, want 5", g.NumEdges())
	}
}

func TestDelaunayEdgeCountPlanar(t *testing.T) {
	// Planarity: |E| ≤ 3n − 6, and the triangulation is connected.
	for seed := int64(0); seed < 5; seed++ {
		pts := pointset.Generate(pointset.KindUniform, 200, seed)
		g := Delaunay(pts)
		if g.NumEdges() > 3*len(pts)-6 {
			t.Fatalf("seed %d: %d edges exceeds planar bound", seed, g.NumEdges())
		}
		if !g.Connected() {
			t.Fatalf("seed %d: Delaunay disconnected", seed)
		}
	}
}

func TestDelaunayEmptyCircumcircleProperty(t *testing.T) {
	// Spot check: for each Delaunay edge (u,v) there should exist no point
	// strictly inside the smallest circle through u,v when the edge is
	// also Gabriel; more robustly, verify the triangulation contains the
	// nearest-neighbor graph (classical containment).
	pts := pointset.Generate(pointset.KindUniform, 150, 9)
	g := Delaunay(pts)
	for u := range pts {
		best, bestD := -1, math.Inf(1)
		for v := range pts {
			if v == u {
				continue
			}
			if d := geom.Dist(pts[u], pts[v]); d < bestD {
				best, bestD = v, d
			}
		}
		if !g.HasEdge(u, best) {
			t.Fatalf("nearest-neighbor edge (%d,%d) missing from Delaunay", u, best)
		}
	}
}

func TestRestrictedDelaunay(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 100, 4)
	full := Delaunay(pts)
	rd := RestrictedDelaunay(pts, 0.2)
	subsetOf(t, "RD⊆Delaunay", rd, full)
	for _, e := range rd.Edges() {
		if geom.Dist(pts[e.U], pts[e.V]) > 0.2 {
			t.Fatalf("restricted edge %v too long", e)
		}
	}
	// Unrestricted radius keeps everything.
	rdAll := RestrictedDelaunay(pts, math.Inf(1))
	if rdAll.NumEdges() != full.NumEdges() {
		t.Error("infinite restriction should keep all edges")
	}
}

func TestGabrielDegreeCanExceedConstant(t *testing.T) {
	// A star: many points on a circle around a hub. All spokes are
	// Gabriel edges, demonstrating the Ω(n) degree the paper cites as the
	// Gabriel graph's weakness.
	pts := []geom.Point{geom.Pt(0, 0)}
	const k = 24
	for i := 0; i < k; i++ {
		a := geom.TwoPi * float64(i) / k
		pts = append(pts, geom.Pt(math.Cos(a), math.Sin(a)))
	}
	g := Gabriel(pts, 0)
	if d := g.Degree(0); d != k {
		t.Errorf("hub degree = %d, want %d", d, k)
	}
}

func TestGlobalPruneSpannerProperty(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 120, 31)
	full := graph.New(len(pts))
	// Start from the Gabriel graph (connected, moderately dense).
	gab := Gabriel(pts, 0)
	for _, e := range gab.Edges() {
		full.AddEdge(e.U, e.V)
	}
	const tFactor = 2.0
	pruned := GlobalPrune(full, pts, tFactor, nil)
	if pruned.NumEdges() > full.NumEdges() {
		t.Fatal("pruning added edges")
	}
	if !pruned.Connected() {
		t.Fatal("pruned graph disconnected")
	}
	// Spanner condition: for every ORIGINAL edge, the pruned graph keeps
	// distance within t (this implies the condition for all pairs).
	metric := func(u, v int) float64 { return geom.Dist(pts[u], pts[v]) }
	for _, e := range full.Edges() {
		dist, _ := pruned.Dijkstra(e.U, metric)
		if dist[e.V] > tFactor*metric(e.U, e.V)+1e-9 {
			t.Fatalf("edge %v stretched to %v > %v", e, dist[e.V], tFactor*metric(e.U, e.V))
		}
	}
}

func TestGlobalPruneActuallyPrunes(t *testing.T) {
	// On a dense unit-disk graph the global pruning must remove a
	// substantial fraction of edges.
	pts := pointset.Generate(pointset.KindUniform, 80, 7)
	g := graph.New(len(pts))
	for u := 0; u < len(pts); u++ {
		for v := u + 1; v < len(pts); v++ {
			if geom.Dist(pts[u], pts[v]) < 0.35 {
				g.AddEdge(u, v)
			}
		}
	}
	pruned := GlobalPrune(g, pts, 1.8, nil)
	if pruned.NumEdges() >= g.NumEdges()/2 {
		t.Errorf("pruned %d of %d edges only", g.NumEdges()-pruned.NumEdges(), g.NumEdges())
	}
}

func TestGlobalPrunePanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	GlobalPrune(graph.New(2), nil, 1.0, nil)
}

// primEMST is the dense O(n²) Prim reference for EMST.
func primEMST(pts []geom.Point) *graph.Graph {
	n := len(pts)
	g := graph.New(n)
	if n < 2 {
		return g
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int, n)
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = geom.Dist2(pts[0], pts[j])
	}
	for it := 1; it < n; it++ {
		pick, pickD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < pickD {
				pick, pickD = j, best[j]
			}
		}
		inTree[pick] = true
		g.AddEdge(pick, from[pick])
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d2 := geom.Dist2(pts[pick], pts[j]); d2 < best[j] {
					best[j], from[j] = d2, pick
				}
			}
		}
	}
	return g
}

func treeWeight(pts []geom.Point, g *graph.Graph) float64 {
	w := 0.0
	for _, e := range g.Edges() {
		w += geom.Dist(pts[e.U], pts[e.V])
	}
	return w
}

// TestEMSTMatchesPrim: EMST has the reference's edge count and total
// weight on every generator, several seeds and sizes, and on coincident
// and collinear sets.
func TestEMSTMatchesPrim(t *testing.T) {
	sizes := []int{50, 500, 2000}
	if testing.Short() {
		sizes = []int{50, 500}
	}
	check := func(name string, pts []geom.Point) {
		t.Helper()
		got, want := EMST(pts), primEMST(pts)
		if got.NumEdges() != want.NumEdges() || !got.Connected() {
			t.Fatalf("%s (n=%d): %d edges (connected %v), reference %d", name, len(pts), got.NumEdges(), got.Connected(), want.NumEdges())
		}
		gw, ww := treeWeight(pts, got), treeWeight(pts, want)
		if math.Abs(gw-ww) > 1e-9*math.Max(1, ww) {
			t.Fatalf("%s (n=%d): weight %v, reference %v", name, len(pts), gw, ww)
		}
	}
	for k := pointset.KindUniform; k <= pointset.KindBridge; k++ {
		for _, n := range sizes {
			for seed := int64(1); seed <= 3; seed++ {
				check(k.String(), pointset.Generate(k, n, seed))
			}
		}
	}
	twins := pointset.Generate(pointset.KindUniform, 300, 9)
	twins = append(twins, twins[:150]...)
	check("coincident", twins)
	line := make([]geom.Point, 300)
	for i := range line {
		line[i] = geom.Pt(float64(i%17)*0.5, 0)
	}
	check("collinear", line)
}
