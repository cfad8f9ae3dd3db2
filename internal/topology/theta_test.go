package topology

import (
	"math"
	"math/rand"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// buildOn returns a ΘALG topology over pts with a connected G*.
func buildOn(t *testing.T, pts pointset.Set, theta float64) *Topology {
	t.Helper()
	d := unitdisk.CriticalRange(pts) * 1.2
	if d == 0 {
		d = 1
	}
	return BuildTheta(pts, Config{Theta: theta, Range: d})
}

func TestBuildThetaSmoke(t *testing.T) {
	pts := pointset.Set{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)}
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 2})
	if top.N.N() != 4 {
		t.Fatalf("n = %d", top.N.N())
	}
	if !top.N.Connected() {
		t.Fatal("square should connect")
	}
	if top.Sectors.Count() != 12 {
		t.Errorf("sectors = %d", top.Sectors.Count())
	}
}

func TestDefaultTheta(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 50, 1)
	top := BuildTheta(pts, Config{Range: 1.5})
	if top.Cfg.Theta != DefaultTheta {
		t.Errorf("default theta = %v", top.Cfg.Theta)
	}
}

func TestBuildThetaPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildTheta(pointset.Set{geom.Pt(0, 0)}, Config{Theta: 0.5, Range: 0})
}

func TestDegreeBoundLemma21(t *testing.T) {
	// Lemma 2.1: degree of each node ≤ 4π/θ; our bound is 2·(#sectors).
	for _, kind := range []pointset.Kind{pointset.KindUniform, pointset.KindClustered, pointset.KindExponential, pointset.KindGrid} {
		for _, theta := range []float64{math.Pi / 3, math.Pi / 6, math.Pi / 12} {
			pts := pointset.Generate(kind, 300, 7)
			top := buildOn(t, pts, theta)
			if got, bound := top.N.MaxDegree(), top.DegreeBound(); got > bound {
				t.Errorf("%v θ=%.3f: max degree %d exceeds bound %d", kind, theta, got, bound)
			}
		}
	}
}

func TestConnectivityLemma21(t *testing.T) {
	// Lemma 2.1: N is connected whenever G* is.
	for seed := int64(0); seed < 8; seed++ {
		for _, kind := range []pointset.Kind{pointset.KindUniform, pointset.KindClustered, pointset.KindBridge, pointset.KindRing, pointset.KindExponential} {
			pts := pointset.Generate(kind, 200, seed)
			top := buildOn(t, pts, math.Pi/6)
			if !top.N.Connected() {
				t.Fatalf("%v seed %d: N disconnected", kind, seed)
			}
		}
	}
}

func TestNSubsetYaoSubsetGStar(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 250, 3)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d})
	gstar := unitdisk.Build(pts, d)
	yao := top.YaoGraph()
	for _, e := range top.N.Edges() {
		if !yao.HasEdge(e.U, e.V) {
			t.Fatalf("N edge %v missing from Yao", e)
		}
	}
	for _, e := range yao.Edges() {
		if !gstar.HasEdge(e.U, e.V) {
			t.Fatalf("Yao edge %v missing from G*", e)
		}
	}
	// The pruning must actually remove something on dense instances.
	if top.N.NumEdges() > yao.NumEdges() {
		t.Error("N larger than Yao")
	}
}

func TestYaoOutDegreeBounded(t *testing.T) {
	// Phase-1 selections: at most one per sector.
	pts := pointset.Generate(pointset.KindUniform, 300, 11)
	top := buildOn(t, pts, math.Pi/6)
	k := top.Sectors.Count()
	for u := range pts {
		cnt := 0
		for _, v := range top.NearestOut[u] {
			if v >= 0 {
				cnt++
			}
		}
		if cnt > k {
			t.Fatalf("node %d selected %d > %d", u, cnt, k)
		}
	}
}

func TestNearestOutIsNearestInSector(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 150, 5)
	d := unitdisk.CriticalRange(pts) * 1.5
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d})
	for u := range pts {
		for s := 0; s < top.Sectors.Count(); s++ {
			sel := top.NearestOut[u][s]
			// Brute-force the nearest in-range node in sector s.
			best := int32(-1)
			for v := range pts {
				if v == u || geom.Dist(pts[u], pts[v]) > d {
					continue
				}
				if top.Sectors.IndexOf(pts[u], pts[v]) != s {
					continue
				}
				if best < 0 || closer(pts, u, v, int(best)) {
					best = int32(v)
				}
			}
			if sel != best {
				t.Fatalf("node %d sector %d: selection %d, brute %d", u, s, sel, best)
			}
		}
	}
}

func TestSelected(t *testing.T) {
	pts := pointset.Set{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2.5, 0)}
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 5})
	if !top.Selected(0, 1) {
		t.Error("0 should select 1 (nearest east)")
	}
	if top.Selected(0, 2) {
		t.Error("0 should not select 2 (1 is nearer in the same sector)")
	}
}

func TestAdmitInPicksNearestSuitor(t *testing.T) {
	// Three western nodes all select the eastern hub; the hub must admit
	// only the nearest one per sector.
	pts := pointset.Set{
		geom.Pt(0, 0),    // hub
		geom.Pt(-1, 0),   // nearest suitor, sector of hub pointing west
		geom.Pt(-2, 0.1), // farther, same hub sector
		geom.Pt(-3, 0.2), // farther still
	}
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 10})
	if !top.N.HasEdge(0, 1) {
		t.Error("hub must admit nearest suitor 1")
	}
	// 2 and 3 connect through the chain, not directly to the hub.
	if top.N.HasEdge(0, 2) || top.N.HasEdge(0, 3) {
		t.Error("hub admitted a non-nearest suitor")
	}
	if !top.N.Connected() {
		t.Error("chain must remain connected")
	}
}

func TestGridTieBreaking(t *testing.T) {
	// Exact grid: duplicate pairwise distances everywhere. The build must
	// be deterministic and satisfy all structural invariants.
	pts := pointset.GridJitter(8, 8, 0, nil)
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 1.5})
	if !top.N.Connected() {
		t.Fatal("grid disconnected")
	}
	if top.N.MaxDegree() > top.DegreeBound() {
		t.Fatal("degree bound violated on grid")
	}
	top2 := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 1.5})
	a, b := top.N.Edges(), top2.N.Edges()
	if len(a) != len(b) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestEnergyAndDistanceCosts(t *testing.T) {
	pts := pointset.Set{geom.Pt(0, 0), geom.Pt(3, 4)}
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 10})
	if c := top.EnergyCost(2)(0, 1); c != 25 {
		t.Errorf("energy = %v", c)
	}
	if c := top.DistanceCost()(0, 1); c != 5 {
		t.Errorf("distance = %v", c)
	}
}

func TestBuildYao(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 100, 9)
	d := unitdisk.CriticalRange(pts) * 1.2
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d})
	yao := top.YaoGraph()
	if !yao.Connected() {
		t.Error("Yao graph should be connected")
	}
	// Every phase-1 selection is a Yao edge, and every Yao edge is one.
	for u, row := range top.NearestOut {
		for _, v := range row {
			if v >= 0 && !yao.HasEdge(u, int(v)) {
				t.Fatalf("selection %d→%d missing from Yao", u, v)
			}
		}
	}
	for _, e := range yao.Edges() {
		if !top.Selected(e.U, e.V) && !top.Selected(e.V, e.U) {
			t.Fatalf("Yao edge %v selected by neither endpoint", e)
		}
	}
}

func TestYaoIsSpanner(t *testing.T) {
	// The Yao graph with θ ≤ π/3 is a distance spanner; check the
	// measured stretch is modest on random instances.
	pts := pointset.Generate(pointset.KindUniform, 150, 13)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d})
	distCost := top.DistanceCost()
	yao := top.YaoGraph()
	worst := 1.0
	for u := 0; u < 20; u++ {
		dist, _ := yao.Dijkstra(u, distCost)
		for v := range pts {
			if v == u {
				continue
			}
			ratio := dist[v] / geom.Dist(pts[u], pts[v])
			if ratio > worst {
				worst = ratio
			}
		}
	}
	if worst > 3 {
		t.Errorf("Yao distance stretch %v implausibly large", worst)
	}
}

func TestThetaPathValidWalk(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		pts := pointset.Generate(pointset.KindUniform, 120, seed)
		d := unitdisk.CriticalRange(pts) * 1.4
		top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d})
		gstar := unitdisk.Build(pts, d)
		for _, e := range gstar.Edges() {
			nodes := top.ThetaPathNodes(e.U, e.V)
			if nodes[0] != e.U || nodes[len(nodes)-1] != e.V {
				t.Fatalf("θ-path endpoints wrong for %v: %v", e, nodes)
			}
			for i := 0; i+1 < len(nodes); i++ {
				if !top.N.HasEdge(nodes[i], nodes[i+1]) {
					t.Fatalf("θ-path uses non-N edge (%d,%d)", nodes[i], nodes[i+1])
				}
			}
		}
	}
}

func TestThetaPathOnGrid(t *testing.T) {
	// Exact grids exercise the tie-break paths of the recursion.
	pts := pointset.GridJitter(6, 6, 0, nil)
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 1.6})
	gstar := unitdisk.Build(pts, 1.6)
	for _, e := range gstar.Edges() {
		nodes := top.ThetaPathNodes(e.U, e.V)
		if nodes[0] != e.U || nodes[len(nodes)-1] != e.V {
			t.Fatalf("grid θ-path endpoints wrong for %v", e)
		}
	}
}

func TestThetaPathIdentityAndRangePanic(t *testing.T) {
	pts := pointset.Set{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 0)}
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 4.2})
	if p := top.ThetaPath(1, 1); p != nil {
		t.Errorf("self path = %v", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range pair")
		}
	}()
	top.ThetaPath(0, 2) // distance 5 > range 4.2
}

func TestThetaPathEnergyBounded(t *testing.T) {
	// Theorem 2.2's workhorse: the θ-path of a G* edge should cost only a
	// constant factor more energy than the direct edge. Use the measured
	// max over random instances as a sanity ceiling.
	pts := pointset.Generate(pointset.KindUniform, 200, 21)
	d := unitdisk.CriticalRange(pts) * 1.3
	top := BuildTheta(pts, Config{Theta: math.Pi / 12, Range: d})
	gstar := unitdisk.Build(pts, d)
	worst := 0.0
	for _, e := range gstar.Edges() {
		direct := geom.EnergyCost(pts[e.U], pts[e.V], 2)
		pathCost := 0.0
		for _, pe := range top.ThetaPath(e.U, e.V) {
			pathCost += geom.EnergyCost(pts[pe.U], pts[pe.V], 2)
		}
		if r := pathCost / direct; r > worst {
			worst = r
		}
	}
	if worst > 25 {
		t.Errorf("θ-path energy overhead %v implausibly large", worst)
	}
}

func TestThetaPathDeterministicDegenerate(t *testing.T) {
	// Collinear evenly spaced points: heavy distance ties.
	pts := pointset.Set{}
	for i := 0; i < 10; i++ {
		pts = append(pts, geom.Pt(float64(i), 0))
	}
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 3})
	nodes := top.ThetaPathNodes(0, 3)
	if nodes[0] != 0 || nodes[len(nodes)-1] != 3 {
		t.Fatalf("collinear θ-path = %v", nodes)
	}
}

func TestRandomizedStructuralQuick(t *testing.T) {
	// Randomized structural property check across many instances: N is a
	// connected, degree-bounded subgraph of G*.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(120)
		pts := pointset.Uniform(n, 1, rng)
		d := unitdisk.CriticalRange(pts) * (1 + rng.Float64())
		theta := []float64{math.Pi / 3, math.Pi / 6, math.Pi / 9}[rng.Intn(3)]
		top := BuildTheta(pts, Config{Theta: theta, Range: d})
		if !top.N.Connected() {
			t.Fatalf("trial %d: disconnected", trial)
		}
		if top.N.MaxDegree() > top.DegreeBound() {
			t.Fatalf("trial %d: degree %d > %d", trial, top.N.MaxDegree(), top.DegreeBound())
		}
		for _, e := range top.N.Edges() {
			if geom.Dist(pts[e.U], pts[e.V]) > d {
				t.Fatalf("trial %d: N edge beyond range", trial)
			}
		}
	}
}
