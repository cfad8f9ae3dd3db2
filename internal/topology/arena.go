package topology

import (
	"context"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
)

// BuildArena is reusable backing storage for ΘALG builds: the spatial index,
// both n×k sector tables and the adjacency slab of the final topology N. A
// serving layer that builds one topology per request recycles arenas
// through a pool, turning the ~1500 per-build allocations of the naive
// path into a handful.
//
// A Topology built into an arena aliases the arena's memory: it is valid
// only until the next build with the same arena, and must not be retained
// (or handed to retaining code) past that point. The zero value is ready to
// use. An arena is not safe for concurrent builds.
type BuildArena struct {
	grid    spatial.Grid
	tabFlat []int32
	tabRows [][]int32
	fin     graph.Slab
}

// sectorTables carves the NearestOut and AdmitIn tables (n rows of k each,
// filled with -1) from the arena's flat backing.
func (a *BuildArena) sectorTables(n, k int) (nearest, admit [][]int32) {
	need := 2 * n * k
	if cap(a.tabFlat) < need {
		a.tabFlat = make([]int32, need)
	}
	flat := a.tabFlat[:need]
	for i := range flat {
		flat[i] = -1
	}
	if cap(a.tabRows) < 2*n {
		a.tabRows = make([][]int32, 2*n)
	}
	rows := a.tabRows[:2*n]
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows[:n], rows[n:]
}

// Footprint approximates the arena's retained backing size in bytes, so
// pools can drop arenas that grew serving an outsized request instead of
// retaining them forever.
func (a *BuildArena) Footprint() int {
	return 4*cap(a.tabFlat) + 24*cap(a.tabRows) +
		a.fin.Footprint() + a.grid.Footprint()
}

// BuildThetaArena is BuildThetaContext building into ar's reusable storage
// (nil builds fresh, exactly as BuildThetaContext). Results are
// bit-identical to BuildTheta for every arena state and worker count; only
// allocation behavior differs. The returned Topology aliases the arena (see
// BuildArena) — callers own the release ordering: encode or copy out
// everything needed before reusing ar.
func BuildThetaArena(ctx context.Context, pts []geom.Point, cfg Config, workers int, ar *BuildArena) (*Topology, error) {
	return build(ctx, pts, cfg, workers, ar)
}
