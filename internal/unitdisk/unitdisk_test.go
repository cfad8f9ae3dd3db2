package unitdisk

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
)

func TestBuildMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := pointset.Uniform(150, 1, rng)
	const d = 0.15
	g := Build(pts, d)
	for u := 0; u < len(pts); u++ {
		for v := u + 1; v < len(pts); v++ {
			want := geom.Dist(pts[u], pts[v]) <= d
			if g.HasEdge(u, v) != want {
				t.Fatalf("edge (%d,%d): got %v, want %v", u, v, g.HasEdge(u, v), want)
			}
		}
	}
}

func TestBuildDegenerate(t *testing.T) {
	if g := Build(nil, 1); g.N() != 0 {
		t.Error("empty points")
	}
	if g := Build([]geom.Point{geom.Pt(0, 0)}, 1); g.N() != 1 || g.NumEdges() != 0 {
		t.Error("single point")
	}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if g := Build(pts, 0); g.NumEdges() != 0 {
		t.Error("zero range should have no edges")
	}
	if g := Build(pts, -1); g.NumEdges() != 0 {
		t.Error("negative range should have no edges")
	}
	if g := Build(pts, 1); g.NumEdges() != 1 {
		t.Error("exact-range edge should be included (closed ball)")
	}
}

func TestCriticalRangeLine(t *testing.T) {
	// Points at 0, 1, 3: the MST's longest edge is 2.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(3, 0)}
	if d := CriticalRange(pts); math.Abs(d-2) > 1e-12 {
		t.Errorf("CriticalRange = %v, want 2", d)
	}
	if CriticalRange(pts[:1]) != 0 || CriticalRange(nil) != 0 {
		t.Error("degenerate critical range should be 0")
	}
}

func TestCriticalRangeConnectsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		pts := pointset.Uniform(80, 1, rng)
		d := CriticalRange(pts)
		if !Build(pts, d).Connected() {
			t.Fatal("graph at critical range must be connected")
		}
		if Build(pts, d*(1-1e-9)-1e-12).Connected() {
			t.Fatal("graph just below critical range must be disconnected")
		}
	}
}

func TestConnectedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := pointset.Uniform(120, 1, rng)
	g, d := ConnectedBuild(pts, 1.2)
	if !g.Connected() {
		t.Fatal("ConnectedBuild must produce a connected graph")
	}
	if d < CriticalRange(pts) {
		t.Error("range below critical")
	}
	// Slack below 1 is coerced.
	g2, _ := ConnectedBuild(pts, 0.5)
	if !g2.Connected() {
		t.Error("coerced slack must still connect")
	}
}

func TestConnectedBuildSinglePoint(t *testing.T) {
	g, d := ConnectedBuild([]geom.Point{geom.Pt(0, 0)}, 1.5)
	if !g.Connected() || d <= 0 {
		t.Error("single point should be trivially connected with positive range")
	}
}

func TestExponentialChainConnectivity(t *testing.T) {
	// The chain's critical range is its largest gap.
	pts := pointset.ExponentialChain(10, 1, 2, nil)
	d := CriticalRange(pts)
	wantMax := math.Pow(2, 8) // last gap
	if math.Abs(d-wantMax) > 1e-6 {
		t.Errorf("critical range %v, want %v", d, wantMax)
	}
	if !Build(pts, d).Connected() {
		t.Error("chain should connect at critical range")
	}
}

// primLongest2 is the dense O(n²) Prim reference for SpanningTree: the
// squared length of the longest edge of a minimum spanning tree.
func primLongest2(pts []geom.Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	inTree := make([]bool, n)
	best := make([]float64, n) // squared distance to the tree
	inTree[0] = true
	for j := 1; j < n; j++ {
		best[j] = geom.Dist2(pts[0], pts[j])
	}
	longest2 := 0.0
	for it := 1; it < n; it++ {
		pick, pickD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if !inTree[j] && best[j] < pickD {
				pick, pickD = j, best[j]
			}
		}
		inTree[pick] = true
		longest2 = math.Max(longest2, pickD)
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d2 := geom.Dist2(pts[pick], pts[j]); d2 < best[j] {
					best[j] = d2
				}
			}
		}
	}
	return longest2
}

// primCriticalRange is CriticalRange computed from the dense Prim.
func primCriticalRange(pts []geom.Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	d := math.Sqrt(primLongest2(pts))
	for i := 0; i < 4; i++ {
		d = math.Nextafter(d, math.Inf(1))
	}
	return d
}

// checkSpanningTree asserts that SpanningTree's longest edge, and so
// CriticalRange, is bit-identical to the dense Prim's, and that its edges
// form a spanning tree reported in ascending order with exact squared
// lengths.
func checkSpanningTree(t *testing.T, name string, pts []geom.Point) {
	t.Helper()
	n := len(pts)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	edges, last := 0, 0.0
	got := SpanningTree(pts, func(u, v int, d2 float64) {
		if u >= v || d2 != geom.Dist2(pts[u], pts[v]) || d2 < last {
			t.Fatalf("%s: bad edge (%d,%d) d²=%v after %v", name, u, v, d2, last)
		}
		ru, rv := find(u), find(v)
		if ru == rv {
			t.Fatalf("%s: edge (%d,%d) closes a cycle", name, u, v)
		}
		parent[ru] = rv
		edges++
		last = d2
	})
	if want := primLongest2(pts); got != want {
		t.Fatalf("%s (n=%d): longest² %v, dense Prim %v", name, n, got, want)
	}
	if got, want := CriticalRange(pts), primCriticalRange(pts); got != want {
		t.Fatalf("%s (n=%d): CriticalRange %v, dense Prim %v", name, n, got, want)
	}
	if n >= 2 && edges != n-1 {
		t.Fatalf("%s: %d tree edges, want %d", name, edges, n-1)
	}
}

func TestSpanningTreeMatchesPrim(t *testing.T) {
	sizes := []int{50, 500, 2000}
	seeds := 3
	if testing.Short() {
		sizes, seeds = []int{50, 500}, 2
	}
	for k := pointset.KindUniform; k <= pointset.KindBridge; k++ {
		for _, n := range sizes {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				checkSpanningTree(t, k.String(), pointset.Generate(k, n, seed))
			}
		}
	}
}

func TestSpanningTreeDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	same := make([]geom.Point, 300)
	for i := range same {
		same[i] = geom.Pt(2, -3)
	}
	twins := pointset.Uniform(200, 1, rng)
	twins = append(twins, twins...)
	line := make([]geom.Point, 400)
	for i := range line {
		line[i] = geom.Pt(rng.Float64()*1e6, 0)
	}
	lattice := pointset.GridJitter(20, 20, 0, nil)
	cluster := pointset.Uniform(300, 1, rng)
	cluster = append(cluster, geom.Pt(1e9, -1e9))
	sets := map[string][]geom.Point{
		"identical":     same,
		"twins":         twins,
		"collinear":     line,
		"lattice":       lattice,
		"outlier":       cluster,
		"two":           {geom.Pt(0, 0), geom.Pt(3, 4)},
		"pair-coincide": {geom.Pt(1, 1), geom.Pt(1, 1)},
		"subnormal":     {geom.Pt(0, 0), geom.Pt(1e-170, 0), geom.Pt(2e-170, 0), geom.Pt(1, 0)},
		"far-apart":     {geom.Pt(0, 0), geom.Pt(3000, 0), geom.Pt(0, 3000)},
		"extent-1e12":   {geom.Pt(-1e12, 0), geom.Pt(0, 1), geom.Pt(1e12, 2), geom.Pt(1e12, 2.5)},
	}
	for name, pts := range sets {
		checkSpanningTree(t, name, pts)
	}
	if got := CriticalRange(same); got <= 0 || got > 1e-300 {
		t.Errorf("identical points: CriticalRange = %v, want a few ulps above 0", got)
	}
}

// TestSpanningTreeOverflow: squared lengths past float64 range read as
// +Inf; the tree still completes and reports +Inf.
func TestSpanningTreeOverflow(t *testing.T) {
	pts := []geom.Point{geom.Pt(-1e300, 0), geom.Pt(-1e300, 1), geom.Pt(1e300, 0), geom.Pt(1e300, 1)}
	edges := 0
	got := SpanningTree(pts, func(int, int, float64) { edges++ })
	if !math.IsInf(got, 1) || edges != 3 {
		t.Fatalf("overflowing set: longest² %v over %d edges, want +Inf over 3", got, edges)
	}
	if d := CriticalRange(pts); !math.IsInf(d, 1) {
		t.Fatalf("CriticalRange = %v, want +Inf", d)
	}
}

func TestDefaultRange(t *testing.T) {
	pts := pointset.Uniform(100, 1, rand.New(rand.NewSource(5)))
	if got, want := DefaultRange(pts), CriticalRange(pts)*1.3; got != want {
		t.Fatalf("DefaultRange = %v, want %v", got, want)
	}
}

// TestDefaultRangeDistinct: the variants report coincident points, and
// otherwise return DefaultRange and CriticalRange bit for bit — also when two distinct
// points are so close that their squared distance underflows to 0, which
// looks like coincidence to the nearest-neighbour pass.
func TestDefaultRangeDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	same := make([]geom.Point, 50000)
	for i := range same {
		same[i] = geom.Pt(0.5, 0.5)
	}
	late := pointset.Uniform(2000, 1, rng)
	late[1999] = late[0]
	sets := map[string][]geom.Point{
		"identical":     same,
		"late repeat":   late,
		"signed zeros":  {geom.Pt(0, 0), geom.Pt(math.Copysign(0, -1), 0), geom.Pt(1, 1)},
		"underflow":     {geom.Pt(0, 0), geom.Pt(1e-200, 0), geom.Pt(1, 0)},
		"subnormal":     {geom.Pt(0, 0), geom.Pt(1e-170, 0), geom.Pt(2e-170, 0), geom.Pt(1, 0)},
		"one":           {geom.Pt(1, 1)},
		"pair-coincide": {geom.Pt(1, 1), geom.Pt(1, 1)},
	}
	for k := pointset.KindUniform; k <= pointset.KindBridge; k++ {
		sets[k.String()] = pointset.Generate(k, 500, 1)
	}
	for name, pts := range sets {
		seen := map[geom.Point]bool{}
		wantDistinct := true
		for _, p := range pts {
			wantDistinct = wantDistinct && !seen[p]
			seen[p] = true
		}
		d, distinct := DefaultRangeDistinct(pts)
		c, cDistinct := CriticalRangeDistinct(pts)
		if distinct != wantDistinct || cDistinct != wantDistinct {
			t.Fatalf("%s: distinct = %v (critical %v), want %v", name, distinct, cDistinct, wantDistinct)
		}
		if !distinct {
			continue
		}
		if want := DefaultRange(pts); d != want {
			t.Fatalf("%s: DefaultRangeDistinct = %v, DefaultRange %v", name, d, want)
		}
		if want := CriticalRange(pts); c != want {
			t.Fatalf("%s: CriticalRangeDistinct = %v, CriticalRange %v", name, c, want)
		}
	}
}

// TestDefaultRangeContextCancel: at n = 50 000, where the whole range
// takes ≈ 0.1–0.25 s, a context cancelled mid-tree (at the first tree
// edge, inside the first band's joins) stops the spanning tree within
// 50 ms (a bound the race detector's slowdown voids) with
// context.Canceled, and DefaultRangeContext reports a cancellation as
// ctx.Err(). Uncancelled, it matches DefaultRangeDistinct.
func TestDefaultRangeContextCancel(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 50000, 1)
	t0 := time.Now()
	want, _ := DefaultRangeDistinct(pts)
	full := time.Since(t0)
	if d, distinct, err := DefaultRangeContext(context.Background(), pts); d != want || !distinct || err != nil {
		t.Fatalf("DefaultRangeContext = (%v, %v, %v), want (%v, true, nil)", d, distinct, err, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	_, _, err := spanningTree(ctx, pts, func(int, int, float64) {
		if cancelled.IsZero() {
			cancelled = time.Now()
			cancel()
		}
	}, true)
	stop := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("spanning tree cancelled at its first edge: err = %v, want context.Canceled", err)
	}
	if stop > 50*time.Millisecond && !raceEnabled {
		t.Fatalf("spanning tree ran %v past its cancellation, want < 50ms (whole range %v)", stop, full)
	}
	t.Logf("stopped %v after cancellation; the whole range takes %v", stop, full)

	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if d, _, err := DefaultRangeContext(ctx, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled DefaultRangeContext = (%v, %v), want context.Canceled", d, err)
	}
}

// FuzzCriticalRange checks CriticalRange against the dense Prim on fuzzed
// sets. The bytes pick coordinates on a coarse lattice, so coincident
// points are common; an x byte with low bits 00 puts the point on the
// x-axis, so collinear runs are common; a y byte with low bits 111
// throws the point 10¹² times farther out. The whole set is scaled by a
// fuzzed extent between 1e-150 and 1e130, which keeps squared distances
// finite.
func FuzzCriticalRange(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, uint8(40))
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 250}, uint8(200))
	f.Add([]byte{255, 0, 0, 255, 128, 128, 1, 1}, uint8(255))
	f.Add([]byte{1, 7, 2, 1, 3, 2, 5, 15, 9, 9}, uint8(128))
	f.Fuzz(func(t *testing.T, data []byte, scale uint8) {
		if len(data) > 512 {
			data = data[:512]
		}
		extent := math.Pow(10, float64(scale)*280/255-150)
		pts := make([]geom.Point, len(data)/2)
		for i := range pts {
			bx, by := data[2*i], data[2*i+1]
			x, y := float64(bx), float64(by)
			if bx&3 == 0 {
				y = 0
			}
			p := geom.Pt(x*extent, y*extent)
			if by&7 == 7 {
				p = p.Scale(1e12)
			}
			pts[i] = p
		}
		if got, want := CriticalRange(pts), primCriticalRange(pts); got != want {
			t.Fatalf("CriticalRange = %v, dense Prim %v (n=%d, extent %g)", got, want, len(pts), extent)
		}
	})
}

// TestSpanningTreeConcurrent: concurrent runs share the scratch pool but
// no state; each matches its sequential result.
func TestSpanningTreeConcurrent(t *testing.T) {
	sets := make([][]geom.Point, 8)
	want := make([]float64, len(sets))
	for i := range sets {
		sets[i] = pointset.Generate(pointset.Kind(i%7), 300+50*i, int64(i))
		want[i] = SpanningTree(sets[i], nil)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				for i, pts := range sets {
					if got := SpanningTree(pts, nil); got != want[i] {
						t.Errorf("set %d: concurrent longest² %v, sequential %v", i, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}
