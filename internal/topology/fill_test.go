package topology

import (
	"context"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/pointset"
	"toporouting/internal/telemetry"
	"toporouting/internal/unitdisk"
)

// singleGrid is a sequential build: the fill on one goroutine.
func singleGrid(pts []geom.Point, cfg Config) *Topology {
	t, err := build(context.Background(), pts, cfg, 1, nil)
	if err != nil {
		panic(err)
	}
	return t
}

// reference is ΘALG read straight off Section 2.1 in O(n²), with no spatial
// index and no scatter: per sector, u selects the nearest node within range
// (phase 1), then admits the nearest node that selected it (phase 2), and N
// holds an edge for every admission, inserted in row-major order. Ties on
// exact distance go to the smaller id, as in closer.
type reference struct {
	nearest, admit [][]int32
	n              *graph.Graph
}

func referenceTheta(pts []geom.Point, cfg Config) reference {
	cfg = cfg.withDefaults()
	sec := geom.NewSectors(cfg.Theta)
	k := sec.Count()
	n := len(pts)
	sectorOf := func(u, v int) int {
		if cfg.Orientations != nil {
			return sec.IndexOfOriented(pts[u], pts[v], cfg.Orientations[u])
		}
		return sec.IndexOf(pts[u], pts[v])
	}
	prefer := func(u, a, b int) bool {
		da, db := geom.Dist2(pts[u], pts[a]), geom.Dist2(pts[u], pts[b])
		return da < db || (da == db && a < b)
	}
	inRange := func(u, v int) bool {
		return u != v && geom.Dist2(pts[u], pts[v]) <= cfg.Range*cfg.Range
	}
	table := func() [][]int32 {
		tab := make([][]int32, n)
		for u := range tab {
			tab[u] = make([]int32, k)
			for s := range tab[u] {
				tab[u][s] = -1
			}
		}
		return tab
	}
	ref := reference{nearest: table(), admit: table(), n: graph.New(n)}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if !inRange(u, v) {
				continue
			}
			s := sectorOf(u, v)
			if cur := ref.nearest[u][s]; cur < 0 || prefer(u, v, int(cur)) {
				ref.nearest[u][s] = int32(v)
			}
		}
	}
	for u := 0; u < n; u++ {
		for w := 0; w < n; w++ {
			if !inRange(u, w) || ref.nearest[w][sectorOf(w, u)] != int32(u) {
				continue
			}
			s := sectorOf(u, w)
			if cur := ref.admit[u][s]; cur < 0 || prefer(u, w, int(cur)) {
				ref.admit[u][s] = int32(w)
			}
		}
	}
	for u, row := range ref.admit {
		for _, v := range row {
			if v >= 0 {
				ref.n.AddEdge(u, int(v))
			}
		}
	}
	return ref
}

// checkReference asserts that the fill at 1–4 workers equals the reference
// on pts: both sector tables, and N including adjacency-list order
// (reflect.DeepEqual on the graphs sees the unexported adjacency).
func checkReference(t *testing.T, pts []geom.Point, cfg Config, label string) {
	t.Helper()
	want := referenceTheta(pts, cfg)
	for workers := 1; workers <= 4; workers++ {
		got, err := BuildThetaContext(context.Background(), pts, cfg, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if !reflect.DeepEqual(got.NearestOut, want.nearest) {
			t.Fatalf("%s workers=%d: NearestOut diverged from the reference", label, workers)
		}
		if !reflect.DeepEqual(got.AdmitIn, want.admit) {
			t.Fatalf("%s workers=%d: AdmitIn diverged from the reference", label, workers)
		}
		if !reflect.DeepEqual(got.N, want.n) {
			t.Fatalf("%s workers=%d: N diverged from the reference", label, workers)
		}
	}
}

// boundaryHeavyPoints generates a point set with many exact coordinate
// ties: the bounding box is pinned by exact corner nodes, and half the
// nodes sit exactly on the lines x,y ∈ {j/8}, the rest uniform. Nodes on
// shared lines tie on exact distances and sit on grid-cell boundaries.
// All positions are distinct by construction.
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
		case 0: // exactly on a vertical line
			p = geom.Pt(float64(rng.Intn(9))/8, rng.Float64())
		case 1: // exactly on a horizontal line
			p = geom.Pt(rng.Float64(), float64(rng.Intn(9))/8)
		case 2: // exactly on an intersection
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

// TestTiledEquivalence runs the input families that certified the former
// tiled fill against the reference: 50 seeds each of uniform, clustered
// and boundary-heavy point sets, every one built at 1–4 workers.
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
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				n := 40 + int(seed*7)%120
				pts := fam.gen(n, seed)
				d := unitdisk.CriticalRange(pts) * 1.3
				cfg := Config{Theta: math.Pi / 6, Range: d}
				checkReference(t, pts, cfg, fam.name+"/seed"+strconv.FormatInt(seed, 10))
			}
		})
	}
}

// TestTiledDegenerate pins degenerate shapes against the reference: a tight
// cluster plus one far outlier (almost every grid cell empty), the
// two-node minimum, three nodes far apart, an exact grid, two nodes tied
// on exact distance in one sector, and collinear sets whose bounding box
// has zero width on one axis.
func TestTiledDegenerate(t *testing.T) {
	cases := []struct {
		name string
		pts  []geom.Point
	}{
		{"outlier-corner", func() []geom.Point {
			rng := rand.New(rand.NewSource(5))
			pts := []geom.Point{geom.Pt(1, 1)}
			for i := 0; i < 50; i++ {
				pts = append(pts, geom.Pt(rng.Float64()*0.05, rng.Float64()*0.05))
			}
			return pts
		}()},
		{"two-nodes", []geom.Point{geom.Pt(0.2, 0.3), geom.Pt(0.7, 0.8)}},
		{"three-singleton-tiles", []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0.5), geom.Pt(1, 1)}},
		{"exact-grid", pointset.Generate(pointset.KindGrid, 81, 1)},
		// (3,4) and (4,3) lie at distance exactly 5 from the origin, both
		// in its sector [π/6, π/3): only the id tie-break picks one.
		{"equidistant-in-sector", []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(4, 3), geom.Pt(8, 6), geom.Pt(6, 8)}},
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
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			d := unitdisk.CriticalRange(tc.pts) * 1.3
			checkReference(t, tc.pts, Config{Theta: math.Pi / 6, Range: d}, tc.name)
		})
	}
}

// TestTiledOrientations checks per-node sector orientations against the
// reference: each row's sectors are anchored at its own node's azimuth,
// whichever worker fills it.
func TestTiledOrientations(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 150, 4)
	rng := rand.New(rand.NewSource(4))
	orient := make([]float64, len(pts))
	for i := range orient {
		orient[i] = rng.Float64() * 2 * math.Pi
	}
	d := unitdisk.CriticalRange(pts) * 1.3
	checkReference(t, pts, Config{Theta: math.Pi / 6, Range: d, Orientations: orient}, "oriented")
}

// phase2Context is a context that reports cancellation from the start of
// phase 2 on. The build looks up the tracing span in its context once per
// span it opens — topology.build, topology.phase1, topology.phase2 — so
// the third lookup marks phase 2's start.
type phase2Context struct {
	context.Context
	lookups  atomic.Int32
	canceled atomic.Bool
	seen     atomic.Bool // Err reported the cancellation at least once
}

func (c *phase2Context) Value(key any) any {
	if c.lookups.Add(1) == 3 {
		c.canceled.Store(true)
	}
	return c.Context.Value(key)
}

func (c *phase2Context) Err() error {
	if c.canceled.Load() {
		c.seen.Store(true)
		return context.Canceled
	}
	return nil
}

// TestBuildCancelInPhase2 cancels a two-worker build once phase 1 has
// finished: the phase-2 workers must notice, and the build must return
// (nil, context.Canceled) instead of a topology stitched from partial
// admissions.
func TestBuildCancelInPhase2(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 2000, 2)
	ctx := &phase2Context{Context: context.Background()}
	tel := telemetry.New(nil)
	top, err := BuildThetaContext(ctx, pts, Config{Theta: math.Pi / 6, Range: 0.05, Telemetry: tel}, 2)
	if top != nil || err != context.Canceled {
		t.Fatalf("got (%v, %v), want (nil, context.Canceled)", top, err)
	}
	if !ctx.seen.Load() {
		t.Fatal("the cancellation was never observed")
	}
	if got := tel.Histogram("phase.topology.phase2.ms").Snapshot().Count; got != 1 {
		t.Fatalf("phase 2 ran %d times, want 1: the build stopped before phase 2", got)
	}

	// Cancelled before it starts, the build stops in phase 1.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if top, err := BuildThetaContext(pre, pts, Config{Theta: math.Pi / 6, Range: 0.05}, 2); top != nil || err != context.Canceled {
		t.Fatalf("pre-cancelled: got (%v, %v), want (nil, context.Canceled)", top, err)
	}
}

// TestLargeBuildSmoke is the scale certificate CI runs under -race: a
// large uniform instance built with 4 workers must match the sequential
// build table-for-table and edge-for-edge, and satisfy the Lemma 2.1
// degree bound. CI raises the size via BUILD_SMOKE_N (to 100000).
func TestLargeBuildSmoke(t *testing.T) {
	n := 40000
	if s := os.Getenv("BUILD_SMOKE_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("BUILD_SMOKE_N=%q: %v", s, err)
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
	got, err := BuildThetaContext(context.Background(), pts, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := singleGrid(pts, cfg)
	if !reflect.DeepEqual(got.NearestOut, want.NearestOut) || !reflect.DeepEqual(got.AdmitIn, want.AdmitIn) {
		t.Fatalf("n=%d: 4-worker sector tables diverged from sequential", n)
	}
	if !reflect.DeepEqual(got.N, want.N) {
		t.Fatalf("n=%d: 4-worker N diverged from sequential", n)
	}
	if deg, bound := got.N.MaxDegree(), got.DegreeBound(); deg > bound {
		t.Fatalf("n=%d: max degree %d exceeds the 4π/θ bound %d", n, deg, bound)
	}
}

// buildSpans builds pts under a fresh tracer and returns the build's span
// tree as sorted child names per parent name.
func buildSpans(t *testing.T, pts []geom.Point, cfg Config, workers int) map[string][]string {
	t.Helper()
	tracer := telemetry.NewTracer(nil, telemetry.NewTraceRing(1, 1))
	ctx, root := tracer.Start(context.Background(), "test")
	if _, err := BuildThetaContext(ctx, pts, cfg, workers); err != nil {
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
	return tree
}

// TestBuildStrategySelection pins the one build shape by the spans it
// emits: topology.build › topology.phase1, topology.phase2 — the names the
// benchmark's per-layer metrics read — both at n = 2000 (every stateless
// request and session the daemon serves at benchmark sizes) and at
// n = 40000, whatever the worker count.
func TestBuildStrategySelection(t *testing.T) {
	sizes := []int{2000, 40000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for i, n := range sizes {
		pts := pointset.Generate(pointset.KindUniform, n, 3)
		cfg := Config{Theta: math.Pi / 6, Range: 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))}
		tree := buildSpans(t, pts, cfg, 1+i)
		if got, want := tree["test"], []string{"topology.build"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: root children %v, want %v", n, got, want)
		}
		if got, want := tree["topology.build"], []string{"topology.phase1", "topology.phase2"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: build children %v, want %v", n, got, want)
		}
		if len(tree) != 2 {
			t.Fatalf("n=%d: span tree %v, want only test › build › phase1, phase2", n, tree)
		}
	}
}
