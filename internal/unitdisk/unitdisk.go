// Package unitdisk builds the transmission graph G* of Section 2 of the
// paper: nodes can communicate directly iff their Euclidean distance is at
// most the maximum transmission range D. It also computes the critical
// range (the smallest D for which G* is connected, the longest edge of the
// Euclidean minimum spanning tree), which topology.Resolve and the
// experiments use to pick a D that satisfies the paper's standing
// assumption that G* is connected. The spanning tree is a Kruskal over 2-d
// tree candidate pairs (SpanningTree): about 3 ms at n=2000 and 0.25 s at
// n=10⁵ on a 2-vCPU host, cheap enough for the per-request path.
package unitdisk

import (
	"context"
	"math"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
)

// Build returns the transmission graph over pts with maximum range d: an
// undirected graph with an edge (u, v) iff |uv| ≤ d. It runs in
// O(n · avg-neighbourhood) time using a spatial grid.
func Build(pts []geom.Point, d float64) *graph.Graph {
	g := graph.New(len(pts))
	if d <= 0 || len(pts) < 2 {
		return g
	}
	idx := spatial.NewGrid(pts, d)
	for u := range pts {
		idx.ForEachWithin(pts[u], d, func(v int) {
			if v > u {
				g.AddEdge(u, v)
			}
		})
	}
	return g
}

// CriticalRange returns the smallest maximum transmission range D for which
// the transmission graph over pts is connected. This equals the longest edge
// of the Euclidean minimum spanning tree (SpanningTree), and costs what that
// does. It returns 0 for fewer than two points, and +Inf when the tree
// needs an edge whose squared length overflows.
func CriticalRange(pts []geom.Point) float64 {
	if len(pts) < 2 {
		return 0
	}
	return criticalFromLongest2(SpanningTree(pts, nil))
}

// criticalFromLongest2 turns the squared longest spanning-tree edge into
// the critical range, nudged up by a few ulps so that
// Build(pts, CriticalRange(pts)) always includes the critical tree edge
// despite sqrt/square rounding.
func criticalFromLongest2(longest2 float64) float64 {
	d := math.Sqrt(longest2)
	for i := 0; i < 4; i++ {
		d = math.Nextafter(d, math.Inf(1))
	}
	return d
}

// DefaultSlack is the factor by which DefaultRange exceeds the critical
// range, so that G* has some headroom above a bare spanning tree.
const DefaultSlack = 1.3

// DefaultRange returns the range D used when a caller gives none:
// DefaultSlack × CriticalRange(pts), which satisfies the paper's standing
// assumption that G* is connected.
func DefaultRange(pts []geom.Point) float64 {
	return CriticalRange(pts) * DefaultSlack
}

// CriticalRangeDistinct is CriticalRange for a caller that requires
// distinct positions, as ΘALG does. When two points share a position it
// returns distinct = false as soon as the spanning tree's nearest-neighbour
// pass shows it, without joining the zero-length pairs: 50 000 copies of
// one point cost ≈ 10 ms here against ≈ 0.5 s in CriticalRange on a 2-vCPU
// host. For distinct points it returns CriticalRange(pts) and true, at the
// same cost.
func CriticalRangeDistinct(pts []geom.Point) (d float64, distinct bool) {
	d, distinct, _ = criticalRangeDistinct(context.Background(), pts)
	return d, distinct
}

// DefaultRangeDistinct is DefaultRange on top of CriticalRangeDistinct:
// DefaultRange(pts) and true for distinct points, and distinct = false,
// found early, when two points share a position.
func DefaultRangeDistinct(pts []geom.Point) (d float64, distinct bool) {
	d, distinct = CriticalRangeDistinct(pts)
	return d * DefaultSlack, distinct
}

// DefaultRangeContext is DefaultRangeDistinct under ctx: the spanning tree
// checks ctx before each band and each join budget, so a caller that gives
// up stops paying for the range (≈ 0.1–0.25 s of CPU at 50 000 points) and
// gets ctx.Err().
func DefaultRangeContext(ctx context.Context, pts []geom.Point) (d float64, distinct bool, err error) {
	d, distinct, err = criticalRangeDistinct(ctx, pts)
	return d * DefaultSlack, distinct, err
}

func criticalRangeDistinct(ctx context.Context, pts []geom.Point) (d float64, distinct bool, err error) {
	if len(pts) < 2 {
		return 0, true, nil
	}
	longest2, coincident, err := spanningTree(ctx, pts, nil, true)
	if err != nil || coincident {
		return 0, false, err
	}
	return criticalFromLongest2(longest2), true, nil
}

// ConnectedBuild builds a connected transmission graph by using
// slack × CriticalRange(pts) as the maximum range (slack ≥ 1; values
// slightly above 1 leave headroom so the graph is not a bare tree). It
// returns the graph and the range used.
func ConnectedBuild(pts []geom.Point, slack float64) (*graph.Graph, float64) {
	if slack < 1 {
		slack = 1
	}
	d := CriticalRange(pts) * slack
	if d == 0 {
		d = 1
	}
	return Build(pts, d), d
}
