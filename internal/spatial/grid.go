// Package spatial provides a uniform-grid spatial index over a fixed set of
// 2-D points. It turns the O(n²) neighbourhood scans of the transmission
// graph builder, the proximity-graph baselines and the interference-set
// computation into O(n · avg-bucket) scans, which is what makes the large-n
// experiment sweeps feasible.
package spatial

import (
	"math"

	"toporouting/internal/geom"
)

// Grid is a uniform-grid index over a point set, stored in flat CSR
// arrays: bucket offsets plus one contiguous index slice, filled by a
// counting sort. Fill reuses those arrays, so a caller that rebuilds an
// index per call (a pooled build arena, the interference-set computation)
// allocates nothing once grown. The zero Grid is empty; index points with
// NewGrid or Fill.
//
// Visit order is deterministic: bucket-major, ascending point index within
// each bucket.
type Grid struct {
	pts   []geom.Point
	cell  float64
	min   geom.Point
	cols  int
	rows  int
	start []int32 // bucket b occupies idx[start[b]:start[b+1]]
	idx   []int32
	cur   []int32 // fill cursors, retained as scratch
}

// NewGrid indexes pts with the given cell size (see Fill).
func NewGrid(pts []geom.Point, cellSize float64) *Grid {
	g := new(Grid)
	g.Fill(pts, cellSize)
	return g
}

// Fill (re)indexes pts with the given cell size, reusing the grid's
// backing arrays. A non-positive cellSize is replaced by a heuristic: the
// side of a square holding one point on average (bounding-box area / n),
// or extent / n for collinear points. Either way the cell is then grown,
// if needed, until the grid has at most maxCellsPerPoint·n + minCells
// cells, so memory follows n rather than the points' extent; queries
// filter by exact distance, so a larger cell never changes their answers.
// The grid keeps a reference to pts; callers must not mutate the slice
// while the grid is in use.
func (g *Grid) Fill(pts []geom.Point, cellSize float64) {
	g.pts = pts
	if len(pts) == 0 {
		g.cell = 1
		g.cols, g.rows = 0, 0
		return
	}
	min, max := pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	g.min = min
	g.cell, g.cols, g.rows = cellsFor(max.X-min.X, max.Y-min.Y, len(pts), cellSize)

	cells := g.cols * g.rows
	g.start = growInt32(g.start, cells+1)
	g.cur = growInt32(g.cur, cells)
	g.idx = growInt32(g.idx, len(pts))
	counts := g.cur
	clear(counts)
	for _, p := range pts {
		counts[g.cellIndex(p)]++
	}
	g.start[0] = 0
	for c := 0; c < cells; c++ {
		g.start[c+1] = g.start[c] + counts[c]
		counts[c] = g.start[c] // reuse as fill cursor
	}
	for i, p := range pts {
		c := g.cellIndex(p)
		g.idx[counts[c]] = int32(i)
		counts[c]++
	}
}

// Cell-count bound of Fill: a grid over n points has at most
// maxCellsPerPoint·n + minCells cells.
const (
	maxCellsPerPoint = 4
	minCells         = 64
)

// cellsFor returns the cell size and the column and row counts of a grid
// over a w × h bounding box holding n points, starting from the requested
// cell size (heuristic when non-positive) and doubling it until the cell
// count fits the bound. A box whose extent overflows float64 gets one
// infinite cell.
func cellsFor(w, h float64, n int, cell float64) (float64, int, int) {
	if math.IsInf(w, 0) || math.IsInf(h, 0) {
		return math.Inf(1), 1, 1
	}
	if !(cell > 0) {
		cell = math.Sqrt(w * h / float64(n))
		if !(cell > 0) { // collinear, or the area underflows
			cell = math.Max(w, h) / float64(n)
		}
		if !(cell > 0) { // coincident
			cell = 1
		}
	}
	limit := float64(maxCellsPerPoint*n + minCells)
	for (math.Floor(w/cell)+1)*(math.Floor(h/cell)+1) > limit {
		cell *= 2
	}
	return cell, int(w/cell) + 1, int(h/cell) + 1
}

// growInt32 returns a slice of exactly length n, reusing s's backing array
// when it is large enough.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return len(g.pts) }

// Point returns the i-th indexed point.
func (g *Grid) Point(i int) geom.Point { return g.pts[i] }

// Order returns every indexed point once, in the grid's visit order:
// bucket-major (row-major over cells), ascending index within a bucket.
// Consecutive entries are spatially close, so a loop over the points in
// this order keeps neighborhood scans cache-local. The slice aliases the
// grid's storage and is valid until the next Fill.
func (g *Grid) Order() []int32 { return g.idx[:len(g.pts)] }

// CellSize returns the side length of the grid cells.
func (g *Grid) CellSize() float64 { return g.cell }

// Footprint returns the grid's retained backing size in bytes (excluding
// the caller-owned point slice), for pool retention caps.
func (g *Grid) Footprint() int {
	return 4 * (cap(g.start) + cap(g.idx) + cap(g.cur))
}

func (g *Grid) cellIndex(p geom.Point) int {
	col := int((p.X - g.min.X) / g.cell)
	row := int((p.Y - g.min.Y) / g.cell)
	if col < 0 {
		col = 0
	} else if col >= g.cols {
		col = g.cols - 1
	}
	if row < 0 {
		row = 0
	} else if row >= g.rows {
		row = g.rows - 1
	}
	return row*g.cols + col
}

// ForEachWithin calls fn(j) for every indexed point j with |p, pts[j]| ≤ r.
// The order of visits is deterministic (bucket-major, ascending index). It
// is safe for concurrent use by multiple goroutines once filled.
func (g *Grid) ForEachWithin(p geom.Point, r float64, fn func(j int)) {
	if g.cols == 0 || r < 0 {
		return
	}
	r2 := r * r
	// Clamp both ends of the cell range into [0, cols)×[0, rows). Clamping
	// only one side leaves c0 > c1 (or r0 > r1) for query discs lying fully
	// outside the index's bounding box, which silently skips the boundary
	// cells a clamped scan would (correctly, thanks to the distance filter)
	// visit — the bug that made Nearest return (-1, +Inf) for far queries.
	c0 := clampCell(int(math.Floor((p.X-r-g.min.X)/g.cell)), g.cols)
	c1 := clampCell(int(math.Floor((p.X+r-g.min.X)/g.cell)), g.cols)
	r0 := clampCell(int(math.Floor((p.Y-r-g.min.Y)/g.cell)), g.rows)
	r1 := clampCell(int(math.Floor((p.Y+r-g.min.Y)/g.cell)), g.rows)
	for row := r0; row <= r1; row++ {
		base := row * g.cols
		for col := c0; col <= c1; col++ {
			b := base + col
			for _, j := range g.idx[g.start[b]:g.start[b+1]] {
				if geom.Dist2(p, g.pts[j]) <= r2 {
					fn(int(j))
				}
			}
		}
	}
}

// Within returns the indices of all points within distance r of p, in
// deterministic order.
func (g *Grid) Within(p geom.Point, r float64) []int {
	var out []int
	g.ForEachWithin(p, r, func(j int) { out = append(out, j) })
	return out
}

// NeighborsOf returns the indices of all points within distance r of point i,
// excluding i itself.
func (g *Grid) NeighborsOf(i int, r float64) []int {
	var out []int
	p := g.pts[i]
	g.ForEachWithin(p, r, func(j int) {
		if j != i {
			out = append(out, j)
		}
	})
	return out
}

// Nearest returns the index of the point nearest to p and its distance,
// excluding indices for which skip(j) is true (skip may be nil). It returns
// (-1, +Inf) only when every point is skipped. The search expands ring by
// ring, so it is efficient when a near point exists; for query points
// outside the indexed bounding box the rings start at the box boundary, so
// arbitrarily far queries still find the true nearest point.
func (g *Grid) Nearest(p geom.Point, skip func(j int) bool) (int, float64) {
	best, bestD := -1, math.Inf(1)
	if g.cols == 0 {
		return best, bestD
	}
	// d0 is the distance from p to the grid's cell coverage; offsetting the
	// ring radii by it routes far-outside queries straight to the nearest
	// boundary cells instead of searching empty space around p.
	d0 := g.boxDist(p)
	// cols+rows cells of radius always cover the coverage diagonal from the
	// box point nearest to p, so the last ring sees every indexed point.
	maxRing := g.cols + g.rows
	for ring := 0; ring <= maxRing; ring++ {
		r := d0 + float64(ring+1)*g.cell
		g.ForEachWithin(p, r, func(j int) {
			if skip != nil && skip(j) {
				return
			}
			if d := geom.Dist(p, g.pts[j]); d < bestD {
				best, bestD = j, d
			}
		})
		if best >= 0 && bestD <= d0+float64(ring)*g.cell {
			break
		}
	}
	return best, bestD
}

// boxDist returns the distance from p to the rectangle of cells the grid
// covers (zero for points inside it).
func (g *Grid) boxDist(p geom.Point) float64 {
	dx := math.Max(0, math.Max(g.min.X-p.X, p.X-(g.min.X+float64(g.cols)*g.cell)))
	dy := math.Max(0, math.Max(g.min.Y-p.Y, p.Y-(g.min.Y+float64(g.rows)*g.cell)))
	return math.Hypot(dx, dy)
}

// clampCell clamps a cell coordinate into [0, n).
func clampCell(c, n int) int {
	if c < 0 {
		return 0
	}
	if c >= n {
		return n - 1
	}
	return c
}
