package topology

import (
	"context"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/telemetry"
	"toporouting/internal/unitdisk"
)

// tileGrids is the tile-grid sweep every equivalence case runs: the
// degenerate single tile, and grids fine enough that tiles shrink below
// the transmission range on the small test instances (halo wider than the
// tile — the hardest seam regime).
var tileGrids = []int{1, 2, 4, 8}

// singleGrid is the reference every equivalence test compares against: a
// sequential build forced through the single-grid fill. Comparing against
// an auto-selecting entry point would, at tiling sizes, compare the tiled
// fill with itself.
func singleGrid(pts []geom.Point, cfg Config) *Topology {
	t, _ := build(context.Background(), pts, cfg, 1, nil, 1)
	return t
}

// checkTiledEquivalence asserts that a build forced through every tile grid
// equals the single-grid reference on pts, comparing the full
// construction state: both sector tables, and the Yao and final graphs
// including adjacency-list order (reflect.DeepEqual on the graphs sees the
// unexported adjacency). k = 1 is the single-grid fill itself, run with
// workers goroutines.
func checkTiledEquivalence(t *testing.T, pts []geom.Point, cfg Config, workers int, label string) {
	t.Helper()
	want := singleGrid(append([]geom.Point(nil), pts...), cfg)
	for _, k := range tileGrids {
		got, err := build(context.Background(), pts, cfg, workers, nil, k)
		if err != nil {
			t.Fatalf("%s k=%d: %v", label, k, err)
		}
		if !reflect.DeepEqual(got.NearestOut, want.NearestOut) {
			t.Fatalf("%s k=%d: NearestOut diverged", label, k)
		}
		if !reflect.DeepEqual(got.AdmitIn, want.AdmitIn) {
			t.Fatalf("%s k=%d: AdmitIn diverged", label, k)
		}
		if !reflect.DeepEqual(got.YaoGraph(), want.YaoGraph()) {
			t.Fatalf("%s k=%d: Yao graph diverged", label, k)
		}
		if !reflect.DeepEqual(got.N, want.N) {
			t.Fatalf("%s k=%d: N graph diverged", label, k)
		}
	}
}

// boundaryHeavyPoints generates a point set engineered to stress tile
// seams: the bounding box is pinned by exact corner nodes, and half the
// nodes sit exactly on the k=8 tile boundary lines x,y ∈ {j/8} (which
// include every k ∈ {1,2,4} boundary), the rest uniform. All positions are
// distinct by construction.
func boundaryHeavyPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(1, 0)}
	seen := map[geom.Point]bool{}
	for _, p := range pts {
		seen[p] = true
	}
	for len(pts) < n {
		var p geom.Point
		switch rng.Intn(4) {
		case 0: // exactly on a vertical boundary line
			p = geom.Pt(float64(rng.Intn(9))/8, rng.Float64())
		case 1: // exactly on a horizontal boundary line
			p = geom.Pt(rng.Float64(), float64(rng.Intn(9))/8)
		case 2: // exactly on a boundary intersection (jittered off others)
			p = geom.Pt(float64(rng.Intn(9))/8, float64(rng.Intn(9))/8)
		default:
			p = geom.Pt(rng.Float64(), rng.Float64())
		}
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

// TestTiledEquivalence is the cross-sharding harness of the tiled builder:
// across ≥50 seeds per point-set family (uniform, clustered,
// boundary-heavy) and tile grids k ∈ {1,2,4,8}, the tiled construction
// must be bit-identical to the sequential one — sector tables, Yao and
// final graphs, adjacency order included. Worker counts rotate with the
// seed so every schedule shape (serial, a few workers, oversubscribed) is
// exercised.
func TestTiledEquivalence(t *testing.T) {
	const seeds = 50
	families := []struct {
		name string
		gen  func(n int, seed int64) []geom.Point
	}{
		{"uniform", func(n int, seed int64) []geom.Point { return pointset.Generate(pointset.KindUniform, n, seed) }},
		{"clustered", func(n int, seed int64) []geom.Point { return pointset.Generate(pointset.KindClustered, n, seed) }},
		{"boundary-heavy", boundaryHeavyPoints},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				n := 40 + int(seed*7)%120
				pts := fam.gen(n, seed)
				d := unitdisk.CriticalRange(pts) * 1.3
				cfg := Config{Theta: math.Pi / 6, Range: d}
				workers := int(seed%4) + 1
				checkTiledEquivalence(t, pts, cfg, workers, fam.name+"/seed"+strconv.FormatInt(seed, 10))
			}
		})
	}
}

// TestTiledDegenerate pins the degenerate tile shapes the partition can
// produce: all nodes in one tile with the rest empty (tight cluster plus
// one far outlier), single-node tiles, the two-node minimum, exact-grid
// point sets whose nodes sit on every tile boundary (and tie on exact
// distances), and collinear sets that collapse one tiling axis to zero
// width.
func TestTiledDegenerate(t *testing.T) {
	cases := []struct {
		name string
		pts  []geom.Point
	}{
		{"outlier-corner", func() []geom.Point {
			rng := rand.New(rand.NewSource(5))
			pts := []geom.Point{geom.Pt(1, 1)} // lone far outlier: 62 empty tiles at k=8
			for i := 0; i < 50; i++ {
				pts = append(pts, geom.Pt(rng.Float64()*0.05, rng.Float64()*0.05))
			}
			return pts
		}()},
		{"two-nodes", []geom.Point{geom.Pt(0.2, 0.3), geom.Pt(0.7, 0.8)}},
		{"three-singleton-tiles", []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0.5), geom.Pt(1, 1)}},
		{"exact-grid", pointset.Generate(pointset.KindGrid, 81, 1)},
		{"collinear-horizontal", func() []geom.Point {
			var pts []geom.Point
			for i := 0; i < 33; i++ {
				pts = append(pts, geom.Pt(float64(i)/32, 0.25))
			}
			return pts
		}()},
		{"collinear-vertical", func() []geom.Point {
			var pts []geom.Point
			for i := 0; i < 17; i++ {
				pts = append(pts, geom.Pt(-3, float64(i)/16))
			}
			return pts
		}()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d := unitdisk.CriticalRange(tc.pts) * 1.3
			cfg := Config{Theta: math.Pi / 6, Range: d}
			for workers := 1; workers <= 3; workers++ {
				checkTiledEquivalence(t, tc.pts, cfg, workers, tc.name)
			}
		})
	}
}

// TestTiledHeuristicAndWorkerInvariance checks the tile heuristic path and
// that every worker count (including oversubscription far beyond the tile
// count) produces the identical topology.
func TestTiledHeuristicAndWorkerInvariance(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 400, 9)
	d := unitdisk.CriticalRange(pts) * 1.3
	cfg := Config{Theta: math.Pi / 6, Range: d}
	want := singleGrid(append([]geom.Point(nil), pts...), cfg)
	for _, tc := range []struct{ Tiles, Workers int }{
		{Tiles: 0, Workers: 0},  // heuristic tiles, sequential
		{Tiles: 3, Workers: 1},  // serial over a non-power-of-two grid
		{Tiles: 5, Workers: 64}, // workers ≫ tiles
	} {
		got, err := build(context.Background(), pts, cfg, tc.Workers, nil, tc.Tiles)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		if !reflect.DeepEqual(got.N, want.N) || !reflect.DeepEqual(got.AdmitIn, want.AdmitIn) {
			t.Fatalf("%+v: diverged from sequential build", tc)
		}
	}
}

// TestTiledOrientations checks per-node sector orientations thread through
// the tile workers (orientations are indexed by global id, which local
// index remapping must preserve).
func TestTiledOrientations(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 150, 4)
	rng := rand.New(rand.NewSource(4))
	orient := make([]float64, len(pts))
	for i := range orient {
		orient[i] = rng.Float64() * 2 * math.Pi
	}
	d := unitdisk.CriticalRange(pts) * 1.3
	cfg := Config{Theta: math.Pi / 6, Range: d, Orientations: orient}
	checkTiledEquivalence(t, pts, cfg, 2, "oriented")
}

// TestTiledCancellation checks a cancelled context aborts the tile pool
// promptly with ctx.Err() and no topology.
func TestTiledCancellation(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 500, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	top, err := build(ctx, pts, Config{Theta: math.Pi / 6, Range: 0.1}, 2, nil, 4)
	if top != nil || err != context.Canceled {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", top, err)
	}
}

// TestDynamicAfterTiled drives churn repair on a tiled-built topology
// (wrapped via NewDynamicFrom) and on a sequential-built one through
// identical event sequences: every repair must leave both in the same
// state, proving a tiled build is a valid starting point for incremental
// maintenance.
func TestDynamicAfterTiled(t *testing.T) {
	const events = 30
	for seed := int64(0); seed < 12; seed++ {
		pts := pointset.Generate(pointset.KindUniform, 80+int(seed)*10, seed)
		d := unitdisk.CriticalRange(pts) * 1.3
		cfg := Config{Theta: math.Pi / 6, Range: d}
		tiled, err := build(context.Background(), append([]geom.Point(nil), pts...), cfg, 2, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		dTiled := NewDynamicFrom(tiled)
		dSeq := NewDynamic(pts, cfg)
		rng := rand.New(rand.NewSource(seed * 31))
		for e := 0; e < events; e++ {
			ev := randomEvent(rng, dSeq)
			dSeq.Apply(ev)
			dTiled.Apply(ev)
			if !reflect.DeepEqual(dTiled.Topology().N.Edges(), dSeq.Topology().N.Edges()) {
				t.Fatalf("seed %d event %d (%v): N edges diverged", seed, e, ev)
			}
		}
		if !reflect.DeepEqual(dTiled.Topology().NearestOut, dSeq.Topology().NearestOut) ||
			!reflect.DeepEqual(dTiled.Topology().AdmitIn, dSeq.Topology().AdmitIn) {
			t.Fatalf("seed %d: sector tables diverged after %d events", seed, events)
		}
	}
}

// TestTiledLargeSmoke is the scale certificate CI runs under -race: a
// large uniform instance built by BuildThetaContext with 4 workers — tiled,
// because the builder tiles at this size — must match the single-grid
// build edge-for-edge and satisfy the Lemma 2.1 degree bound. The default
// size is the smallest the builder tiles; CI raises it via TILED_SMOKE_N
// (the serve workflow uses 100000).
func TestTiledLargeSmoke(t *testing.T) {
	n := 40000
	if s := os.Getenv("TILED_SMOKE_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("TILED_SMOKE_N=%q: %v", s, err)
		}
		n = v
	}
	if testing.Short() {
		n = 5000
	}
	pts := pointset.Generate(pointset.KindUniform, n, 1)
	// The standard connectivity radius Θ(√(log n / n)) with headroom; a
	// fixed formula avoids the global CriticalRange computation at scale.
	d := 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	cfg := Config{Theta: math.Pi / 6, Range: d}
	tiled, err := BuildThetaContext(context.Background(), pts, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := singleGrid(append([]geom.Point(nil), pts...), cfg)
	if !reflect.DeepEqual(tiled.N, want.N) {
		t.Fatalf("n=%d: tiled N diverged from sequential", n)
	}
	if !reflect.DeepEqual(tiled.NearestOut, want.NearestOut) || !reflect.DeepEqual(tiled.AdmitIn, want.AdmitIn) {
		t.Fatalf("n=%d: tiled sector tables diverged from sequential", n)
	}
	if deg, bound := tiled.N.MaxDegree(), tiled.DegreeBound(); deg > bound {
		t.Fatalf("n=%d: max degree %d exceeds the 4π/θ bound %d", n, deg, bound)
	}
}

// buildSpans builds pts under a fresh tracer and returns the build's span
// tree as sorted child names per parent name, plus the topology.
func buildSpans(t *testing.T, pts []geom.Point, cfg Config, workers int) (map[string][]string, *Topology) {
	t.Helper()
	tracer := telemetry.NewTracer(nil, telemetry.NewTraceRing(1, 1))
	ctx, root := tracer.Start(context.Background(), "test")
	top, err := BuildThetaContext(ctx, pts, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := tracer.Ring().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	names := map[uint64]string{}
	for _, s := range traces[0].Spans {
		names[s.Span] = s.Name
	}
	tree := map[string][]string{}
	for _, s := range traces[0].Spans {
		if s.Parent != 0 {
			tree[names[s.Parent]] = append(tree[names[s.Parent]], s.Name)
		}
	}
	for _, kids := range tree {
		sort.Strings(kids)
	}
	return tree, top
}

// TestBuildStrategySelection pins which fill the builder picks from the
// input, by the spans it emits. At n = 2000 (every stateless request and
// session the daemon serves at benchmark sizes) it is the single grid:
// topology.build › topology.phase1, topology.phase2 — the names the
// benchmark's per-layer metrics read. At n = 40000 uniform points it is
// the tiling: topology.build › topology.tiles, one topology.tile per tile
// and topology.stitch, and the tables equal a build forced through
// the single-grid fill.
func TestBuildStrategySelection(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 2000, 3)
	cfg := Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3}
	tree, _ := buildSpans(t, pts, cfg, 1)
	if got, want := tree["test"], []string{"topology.build"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("n=2000: root children %v, want %v", got, want)
	}
	if got, want := tree["topology.build"], []string{"topology.phase1", "topology.phase2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("n=2000: build children %v, want %v", got, want)
	}

	if testing.Short() {
		t.Skip("n=40000 tiled build skipped in -short mode")
	}
	const n = 40000
	pts = pointset.Generate(pointset.KindUniform, n, 3)
	cfg = Config{Theta: math.Pi / 6, Range: 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n))}
	k := tilesFor(pts, cfg.Range)
	if k < 2 {
		t.Fatalf("n=%d: tilesFor picked k=%d, want a tiling", n, k)
	}
	tree, got := buildSpans(t, pts, cfg, 2)
	wantKids := []string{"topology.stitch"}
	for i := 0; i < k*k; i++ {
		wantKids = append(wantKids, "topology.tile")
	}
	wantKids = append(wantKids, "topology.tiles")
	if got := tree["topology.build"]; !reflect.DeepEqual(got, wantKids) {
		t.Fatalf("n=%d: build children %v, want %v", n, got, wantKids)
	}
	want := singleGrid(pts, cfg)
	if !reflect.DeepEqual(got.NearestOut, want.NearestOut) || !reflect.DeepEqual(got.AdmitIn, want.AdmitIn) {
		t.Fatalf("n=%d: tiled tables diverged from the single-grid build", n)
	}
	if !reflect.DeepEqual(got.N, want.N) || !reflect.DeepEqual(got.YaoGraph(), want.YaoGraph()) {
		t.Fatalf("n=%d: tiled graphs diverged from the single-grid build", n)
	}
}
