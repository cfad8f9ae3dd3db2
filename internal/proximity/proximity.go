// Package proximity implements the classical proximity-graph baselines the
// paper compares ΘALG against in Section 1.2: the Gabriel graph (optimal
// energy paths, Ω(n) degree), the relative neighborhood graph (polynomial
// energy-stretch), and the Delaunay triangulation with its
// transmission-range restriction (a spanner, Ω(n) degree). Experiment E12
// measures all of them side by side with ΘALG's topology N.
package proximity

import (
	"math"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
	"toporouting/internal/unitdisk"
)

// Gabriel builds the Gabriel graph on pts, restricted to edges of length at
// most maxRange (pass +Inf or a non-positive value for the unrestricted
// graph). Edge (u,v) is present iff the open disk with diameter (u,v)
// contains no other point. By definition the Gabriel graph preserves all
// minimum-energy (|uv|^κ, κ ≥ 2) paths.
func Gabriel(pts []geom.Point, maxRange float64) *graph.Graph {
	if maxRange <= 0 {
		maxRange = math.Inf(1)
	}
	g := graph.New(len(pts))
	idx := spatial.NewGrid(pts, 0)
	for u := range pts {
		forCandidates(idx, pts, u, maxRange, func(v int) {
			if v <= u {
				return
			}
			mid := geom.Midpoint(pts[u], pts[v])
			r := geom.Dist(pts[u], pts[v]) / 2
			if !anyPointInDisk(idx, pts, mid, r, u, v) {
				g.AddEdge(u, v)
			}
		})
	}
	return g
}

// RNG builds the relative neighborhood graph on pts, restricted to edges of
// length at most maxRange (non-positive = unrestricted). Edge (u,v) is
// present iff there is no witness w with max(|uw|, |vw|) < |uv| (the "lune"
// is empty).
func RNG(pts []geom.Point, maxRange float64) *graph.Graph {
	if maxRange <= 0 {
		maxRange = math.Inf(1)
	}
	g := graph.New(len(pts))
	idx := spatial.NewGrid(pts, 0)
	for u := range pts {
		forCandidates(idx, pts, u, maxRange, func(v int) {
			if v <= u {
				return
			}
			d := geom.Dist(pts[u], pts[v])
			if !anyPointInLune(idx, pts, u, v, d) {
				g.AddEdge(u, v)
			}
		})
	}
	return g
}

// forCandidates visits every node within maxRange of u (all nodes when
// maxRange is +Inf).
func forCandidates(idx *spatial.Grid, pts []geom.Point, u int, maxRange float64, fn func(v int)) {
	if math.IsInf(maxRange, 1) {
		for v := range pts {
			if v != u {
				fn(v)
			}
		}
		return
	}
	idx.ForEachWithin(pts[u], maxRange, func(v int) {
		if v != u {
			fn(v)
		}
	})
}

// anyPointInDisk reports whether any point other than skip1/skip2 lies
// strictly inside the open disk C(mid, r).
func anyPointInDisk(idx *spatial.Grid, pts []geom.Point, mid geom.Point, r float64, skip1, skip2 int) bool {
	found := false
	idx.ForEachWithin(mid, r, func(w int) {
		if found || w == skip1 || w == skip2 {
			return
		}
		if geom.Dist2(mid, pts[w]) < r*r {
			found = true
		}
	})
	return found
}

// anyPointInLune reports whether any w satisfies max(|uw|,|vw|) < d.
func anyPointInLune(idx *spatial.Grid, pts []geom.Point, u, v int, d float64) bool {
	found := false
	idx.ForEachWithin(pts[u], d, func(w int) {
		if found || w == u || w == v {
			return
		}
		if geom.Dist(pts[u], pts[w]) < d && geom.Dist(pts[v], pts[w]) < d {
			found = true
		}
	})
	return found
}

// EMST builds the Euclidean minimum spanning tree on pts with
// unitdisk.SpanningTree (Kruskal over 2-d tree candidate pairs, about
// O(n log n) on spread-out sets). The well-known hierarchy
// EMST ⊆ RNG ⊆ Gabriel ⊆ Delaunay is asserted by this package's tests.
func EMST(pts []geom.Point) *graph.Graph {
	g := graph.New(len(pts))
	unitdisk.SpanningTree(pts, func(u, v int, _ float64) { g.AddEdge(u, v) })
	return g
}
