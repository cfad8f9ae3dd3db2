package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"toporouting/internal/geom"
)

func randomPoints(n int, side float64, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	return pts
}

// bruteWithin is the O(n) reference for Within.
func bruteWithin(pts []geom.Point, p geom.Point, r float64) []int {
	var out []int
	for j, q := range pts {
		if geom.Dist(p, q) <= r {
			out = append(out, j)
		}
	}
	return out
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestWithinMatchesBrute(t *testing.T) {
	pts := randomPoints(400, 10, 1)
	g := NewGrid(pts, 0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		p := geom.Pt(rng.Float64()*12-1, rng.Float64()*12-1)
		r := rng.Float64() * 3
		got := g.Within(p, r)
		want := bruteWithin(pts, p, r)
		if !sameSet(got, want) {
			t.Fatalf("Within(%v, %v): got %d points, want %d", p, r, len(got), len(want))
		}
	}
}

func TestWithinCustomCellSize(t *testing.T) {
	pts := randomPoints(200, 5, 3)
	for _, cs := range []float64{0.1, 0.5, 2, 50} {
		g := NewGrid(pts, cs)
		got := g.Within(geom.Pt(2.5, 2.5), 1.3)
		want := bruteWithin(pts, geom.Pt(2.5, 2.5), 1.3)
		if !sameSet(got, want) {
			t.Fatalf("cell %v: got %d, want %d", cs, len(got), len(want))
		}
	}
}

func TestNeighborsOfExcludesSelf(t *testing.T) {
	pts := randomPoints(100, 3, 4)
	g := NewGrid(pts, 0)
	for i := range pts {
		for _, j := range g.NeighborsOf(i, 1) {
			if j == i {
				t.Fatalf("NeighborsOf(%d) contains self", i)
			}
		}
	}
}

func TestNearest(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 5)}
	g := NewGrid(pts, 0)
	j, d := g.Nearest(geom.Pt(0.9, 0), nil)
	if j != 1 || math.Abs(d-0.1) > 1e-9 {
		t.Errorf("Nearest = %d, %v", j, d)
	}
	// Skip index 1: next nearest is 0.
	j, d = g.Nearest(geom.Pt(0.9, 0), func(k int) bool { return k == 1 })
	if j != 0 || math.Abs(d-0.9) > 1e-9 {
		t.Errorf("Nearest with skip = %d, %v", j, d)
	}
	// Skip everything.
	j, d = g.Nearest(geom.Pt(0, 0), func(int) bool { return true })
	if j != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest all-skipped = %d, %v", j, d)
	}
}

// TestNearestFarOutside is the regression test for the far-query bug: a
// query point far outside the index's bounding box used to return
// (-1, +Inf) because the ring radii never reached the box and the one-sided
// cell-range clamp in ForEachWithin produced empty scans. The nearest point
// must be found no matter how far away the query is.
func TestNearestFarOutside(t *testing.T) {
	pts := randomPoints(200, 1, 11)
	g := NewGrid(pts, 0)
	queries := []geom.Point{
		geom.Pt(100, 100),
		geom.Pt(-50, 0.5),
		geom.Pt(0.5, 1e6),
		geom.Pt(-3, -4),
	}
	for _, p := range queries {
		gotJ, gotD := g.Nearest(p, nil)
		wantJ, wantD := -1, math.Inf(1)
		for j, q := range pts {
			if d := geom.Dist(p, q); d < wantD {
				wantJ, wantD = j, d
			}
		}
		if gotJ != wantJ || math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("Nearest(%v): got (%d,%v), want (%d,%v)", p, gotJ, gotD, wantJ, wantD)
		}
		// The far query must also honor skip: excluding the true nearest
		// yields the runner-up, not -1.
		gotJ2, _ := g.Nearest(p, func(k int) bool { return k == wantJ })
		if gotJ2 < 0 || gotJ2 == wantJ {
			t.Fatalf("Nearest(%v, skip %d) = %d", p, wantJ, gotJ2)
		}
	}
}

// TestWithinFarOutside pins the clamped ForEachWithin scan: a disc that
// reaches into the box from far outside must report exactly the brute-force
// point set.
func TestWithinFarOutside(t *testing.T) {
	pts := randomPoints(150, 2, 12)
	g := NewGrid(pts, 0)
	for _, tc := range []struct {
		p geom.Point
		r float64
	}{
		{geom.Pt(10, 1), 9.5},   // reaches the right edge
		{geom.Pt(-8, -8), 13},   // reaches the corner
		{geom.Pt(50, 50), 10},   // misses entirely: empty
		{geom.Pt(1, -20), 20.7}, // reaches the bottom edge
	} {
		got := g.Within(tc.p, tc.r)
		want := bruteWithin(pts, tc.p, tc.r)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("Within(%v, %v): %d points, want %d", tc.p, tc.r, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Within(%v, %v): got %v, want %v", tc.p, tc.r, got, want)
			}
		}
	}
}

func TestNearestMatchesBrute(t *testing.T) {
	pts := randomPoints(300, 8, 5)
	g := NewGrid(pts, 0)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		p := geom.Pt(rng.Float64()*8, rng.Float64()*8)
		gotJ, gotD := g.Nearest(p, nil)
		wantJ, wantD := -1, math.Inf(1)
		for j, q := range pts {
			if d := geom.Dist(p, q); d < wantD {
				wantJ, wantD = j, d
			}
		}
		if gotJ != wantJ || math.Abs(gotD-wantD) > 1e-9 {
			t.Fatalf("Nearest(%v): got (%d,%v), want (%d,%v)", p, gotJ, gotD, wantJ, wantD)
		}
	}
}

func TestEmptyGrid(t *testing.T) {
	g := NewGrid(nil, 0)
	if g.Len() != 0 {
		t.Error("Len != 0")
	}
	if got := g.Within(geom.Pt(0, 0), 10); got != nil {
		t.Errorf("Within on empty = %v", got)
	}
	if j, d := g.Nearest(geom.Pt(0, 0), nil); j != -1 || !math.IsInf(d, 1) {
		t.Errorf("Nearest on empty = %d, %v", j, d)
	}
}

func TestSinglePointAndCollinear(t *testing.T) {
	g := NewGrid([]geom.Point{geom.Pt(2, 3)}, 0)
	if got := g.Within(geom.Pt(2, 3), 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("single point Within = %v", got)
	}
	// Degenerate bounding box (all points on a vertical line).
	pts := []geom.Point{geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(1, 2)}
	g2 := NewGrid(pts, 0)
	if got := g2.Within(geom.Pt(1, 1), 1.5); len(got) != 3 {
		t.Errorf("collinear Within = %v", got)
	}
}

func TestNegativeRadius(t *testing.T) {
	g := NewGrid(randomPoints(10, 1, 7), 0)
	if got := g.Within(geom.Pt(0.5, 0.5), -1); got != nil {
		t.Errorf("negative radius = %v", got)
	}
}

func TestPointAccessors(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)}
	g := NewGrid(pts, 0.5)
	if g.Point(1) != geom.Pt(3, 4) {
		t.Error("Point accessor")
	}
	if g.CellSize() != 0.5 {
		t.Error("CellSize accessor")
	}
}

func TestDeterministicVisitOrder(t *testing.T) {
	pts := randomPoints(200, 4, 8)
	g := NewGrid(pts, 0)
	a := g.Within(geom.Pt(2, 2), 1.5)
	b := g.Within(geom.Pt(2, 2), 1.5)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("visit order not deterministic")
		}
	}
}

// checkFill fills g with pts and checks every query against the
// exact-distance scan in the visit order the builders rely on
// (bucket-major, ascending index within a bucket). With oneBucket every
// point shares a bucket, so visits must come in plain ascending order.
func checkFill(t *testing.T, g *Grid, name string, pts []geom.Point, cell float64, query []geom.Point, r float64, oneBucket bool) {
	t.Helper()
	g.Fill(pts, cell)
	if g.Len() != len(pts) {
		t.Fatalf("%s: Len %d, want %d", name, g.Len(), len(pts))
	}
	for _, q := range query {
		var want []int
		for j, p := range pts {
			if geom.Dist2(q, p) <= r*r {
				want = append(want, j)
			}
		}
		var got []int
		g.ForEachWithin(q, r, func(j int) { got = append(got, j) })
		if oneBucket {
			if !slices.Equal(got, want) {
				t.Fatalf("%s query %v: got %v, want %v in ascending order", name, q, got, want)
			}
		} else if !sameSet(got, want) {
			t.Fatalf("%s query %v: got %v, want %v", name, q, got, want)
		}
		g.ForEachWithin(q, -1, func(int) { t.Fatalf("%s: negative radius visited a point", name) })
	}
}

func coincidentPoints(n int, p geom.Point) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = p
	}
	return pts
}

// The tests below cover the compact (CSR) layout and its Fill reuse: the
// degenerate inputs a reused index meets, and refills that must not see an
// earlier fill's stale indices.

// TestCompactGridMatchesGrid refills one Grid across sets of varying size,
// larger and smaller in turn, and checks that it answers range queries
// exactly as a freshly built Grid over the same points — same indices, same
// deterministic visit order.
func TestCompactGridMatchesGrid(t *testing.T) {
	var g Grid // refilled every seed: exercises reuse
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(1+rng.Intn(300), 10, seed)
		ref := NewGrid(pts, 0)
		g.Fill(pts, 0)
		for q := 0; q < 50; q++ {
			p := geom.Pt(rng.Float64()*12-1, rng.Float64()*12-1)
			r := rng.Float64() * 3
			var want, got []int
			ref.ForEachWithin(p, r, func(j int) { want = append(want, j) })
			g.ForEachWithin(p, r, func(j int) { got = append(got, j) })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d query %d: refilled %v, fresh %v", seed, q, got, want)
			}
		}
	}
	checkFill(t, &g, "large", randomPoints(300, 10, 4), 0, []geom.Point{geom.Pt(5, 5), geom.Pt(0, 10), geom.Pt(12, -1)}, 2.5, false)
	checkFill(t, &g, "smaller-refill", randomPoints(7, 10, 5), 0, []geom.Point{geom.Pt(5, 5), geom.Pt(1, 1)}, 6, false)
}

func TestCompactGridEmpty(t *testing.T) {
	var g Grid
	checkFill(t, &g, "empty", nil, 0, []geom.Point{geom.Pt(0, 0)}, 5, false)
	var zero Grid
	zero.ForEachWithin(geom.Pt(0, 0), 1, func(int) { t.Fatal("zero Grid visited a point") })
	if j, _ := zero.Nearest(geom.Pt(0, 0), nil); j != -1 {
		t.Fatalf("zero Grid Nearest = %d, want -1", j)
	}
}

// TestCompactGridCoincident pins the zero-area-bounding-box path: all
// points coincident collapse to a single cell, radius-0 queries at the
// point see every index in ascending order, and queries elsewhere see none.
func TestCompactGridCoincident(t *testing.T) {
	var g Grid
	checkFill(t, &g, "coincident", coincidentPoints(25, geom.Pt(-2.5, 8)), 0,
		[]geom.Point{geom.Pt(-2.5, 8), geom.Pt(0, 0)}, 0, true)
}

// TestCompactGridOneCell forces every point into a single cell with an
// oversized cellSize and checks queries still filter by exact distance.
func TestCompactGridOneCell(t *testing.T) {
	var g Grid
	checkFill(t, &g, "one-cell", randomPoints(100, 1, 3), 100,
		[]geom.Point{geom.Pt(0.5, 0.5), geom.Pt(-0.2, 1.1), geom.Pt(0.9, 0.1)}, 0.4, true)
}

// TestSoAGridEdgeCases refills one Grid through the degenerate fills in
// turn: an empty set, all points coincident in one cell, and a single
// point.
func TestSoAGridEdgeCases(t *testing.T) {
	var g Grid
	checkFill(t, &g, "empty", nil, 0, []geom.Point{geom.Pt(0, 0)}, 5, false)
	checkFill(t, &g, "coincident", coincidentPoints(20, geom.Pt(3, 4)), 0,
		[]geom.Point{geom.Pt(3, 4), geom.Pt(100, 100)}, 0, true)
	checkFill(t, &g, "single", []geom.Point{geom.Pt(-7, 2)}, 0,
		[]geom.Point{geom.Pt(-7, 2.5), geom.Pt(100, 100)}, 1, true)
}
