package topology

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"toporouting/internal/geom"
	"toporouting/internal/spatial"
	"toporouting/internal/telemetry"
)

// This file implements the tile-sharded ΘALG construction. Section 2 of
// the paper makes the algorithm local: a node's phase-1 selection depends
// only on positions within the transmission range D (its D-ball), and its
// phase-2 admission on phase-1 selections of nodes within D — i.e. on
// positions within 2D. The construction therefore composes tile-wise
// (cf. the local approximation schemes of arXiv 0803.2174): partition the
// plane into k×k tiles, hand each tile its owned nodes plus a halo of
// boundary nodes within 2D of the tile rectangle, and every owned node's
// sector tables can be computed entirely inside the tile's working set.
// Stitching is then trivial — per-node tables are position-determined, so
// tiles write disjoint rows of the global tables and the final edge
// materialization is the same stitch the single-grid fill runs, making the
// output bit-identical (adjacency order included) for every tile grid and
// worker count.

// tileNodes is the owned-node target per tile: a tile's working set
// (owned nodes, halo, local grid and tables) then stays cache-sized.
const tileNodes = 32768

// tilesFor picks the tile grid dimension k for a build: ~tileNodes owned
// nodes per tile, clamped so a tile is never narrower than 2D on its
// shorter axis, where halo would dominate owned work. Every n ≤ tileNodes
// gets k = 1 without looking at the positions.
func tilesFor(pts []geom.Point, d float64) int {
	k := int(math.Ceil(math.Sqrt(float64(len(pts)) / tileNodes)))
	if k <= 1 {
		return 1
	}
	tl := newTiling(pts, 1)
	if d > 0 {
		if m := int(math.Min(tl.tw, tl.th) / (2 * d)); m < k {
			k = m
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// tiling is a k×k partition of the point set's bounding box. Ownership is
// by floor division of the coordinates, clamped into the grid, so a node
// exactly on an interior tile boundary belongs to the higher tile and every
// node has exactly one owner.
type tiling struct {
	k          int
	minX, minY float64
	tw, th     float64 // tile side lengths (0 for a degenerate axis)
	// eps is the halo-rectangle slack: band membership is decided by
	// rectangle tests on rounded float64 coordinates, so the rectangles are
	// inflated by a relative epsilon to keep the gathered set a superset of
	// the exact 2D-ball band even at ulp-level rounding of Dist2.
	eps float64
}

// newTiling measures the bounding box of pts and cuts it into k×k tiles.
func newTiling(pts []geom.Point, k int) tiling {
	tl := tiling{k: k}
	if len(pts) == 0 {
		return tl
	}
	min, max := pts[0], pts[0]
	for _, p := range pts[1:] {
		if p.X < min.X {
			min.X = p.X
		} else if p.X > max.X {
			max.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		} else if p.Y > max.Y {
			max.Y = p.Y
		}
	}
	tl.minX, tl.minY = min.X, min.Y
	tl.tw = (max.X - min.X) / float64(k)
	tl.th = (max.Y - min.Y) / float64(k)
	scale := math.Max(math.Max(math.Abs(min.X), math.Abs(max.X)),
		math.Max(math.Abs(min.Y), math.Abs(max.Y)))
	tl.eps = 1e-9 * (scale + 1)
	return tl
}

// ownerOf returns the owner tile index (row-major) of p.
func (tl tiling) ownerOf(p geom.Point) int {
	col, row := 0, 0
	if tl.tw > 0 {
		col = clampTile(int((p.X-tl.minX)/tl.tw), tl.k)
	}
	if tl.th > 0 {
		row = clampTile(int((p.Y-tl.minY)/tl.th), tl.k)
	}
	return row*tl.k + col
}

func clampTile(c, k int) int {
	if c < 0 {
		return 0
	}
	if c >= k {
		return k - 1
	}
	return c
}

// rect returns tile t's rectangle [x0,x1]×[y0,y1].
func (tl tiling) rect(t int) (x0, y0, x1, y1 float64) {
	col, row := t%tl.k, t/tl.k
	x0 = tl.minX + float64(col)*tl.tw
	y0 = tl.minY + float64(row)*tl.th
	return x0, y0, x0 + tl.tw, y0 + tl.th
}

// tileAssign partitions node ids by owner tile with a counting sort,
// returning CSR offsets: tile t owns ids[start[t]:start[t+1]], ascending.
func tileAssign(pts []geom.Point, tl tiling) (start, ids []int32) {
	cells := tl.k * tl.k
	start = make([]int32, cells+1)
	ids = make([]int32, len(pts))
	counts := make([]int32, cells)
	for _, p := range pts {
		counts[tl.ownerOf(p)]++
	}
	for c := 0; c < cells; c++ {
		start[c+1] = start[c] + counts[c]
		counts[c] = start[c] // reuse as fill cursor
	}
	for i, p := range pts {
		c := tl.ownerOf(p)
		ids[counts[c]] = int32(i)
		counts[c]++
	}
	return start, ids
}

// forEachTileNode calls fn(id, owned) for tile t's working set: first the
// owned nodes (ascending id), then every other node within haloR of the
// tile rectangle. Membership uses the rectangle expanded by haloR (plus the
// tiling's epsilon slack), a cheap axis-aligned superset of the exact
// distance-to-rectangle ball — extra gathered nodes are harmless because
// all neighborhood scans re-filter by exact distance.
func forEachTileNode(tl tiling, start, ids []int32, pts []geom.Point, t int, haloR float64, fn func(id int32, owned bool)) {
	for _, id := range ids[start[t]:start[t+1]] {
		fn(id, true)
	}
	x0, y0, x1, y1 := tl.rect(t)
	r := haloR + tl.eps
	lox, hix := x0-r, x1+r
	loy, hiy := y0-r, y1+r
	// Candidate tiles: every tile whose rectangle intersects the expanded
	// rectangle. On a degenerate axis (tw or th = 0) all tiles share the
	// coordinate, so scan the whole axis.
	c0, c1 := 0, tl.k-1
	if tl.tw > 0 {
		c0 = clampTile(int(math.Floor((lox-tl.minX)/tl.tw)), tl.k)
		c1 = clampTile(int(math.Floor((hix-tl.minX)/tl.tw)), tl.k)
	}
	r0, r1 := 0, tl.k-1
	if tl.th > 0 {
		r0 = clampTile(int(math.Floor((loy-tl.minY)/tl.th)), tl.k)
		r1 = clampTile(int(math.Floor((hiy-tl.minY)/tl.th)), tl.k)
	}
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			ct := row*tl.k + col
			if ct == t {
				continue
			}
			for _, id := range ids[start[ct]:start[ct+1]] {
				p := pts[id]
				if p.X >= lox && p.X <= hix && p.Y >= loy && p.Y <= hiy {
					fn(id, false)
				}
			}
		}
	}
}

// tileScratch is one worker's reusable per-tile state: a copy of the
// tile's working set, the grid over it, and the local sector tables.
// Reuse across tiles keeps steady-state tile processing allocation-free.
type tileScratch struct {
	pts   []geom.Point
	grid  spatial.Grid
	gids  []int32 // local index -> global id
	p1ok  []bool  // local phase-1 row computed (node within D of the tile)
	near  []int32 // nLocal × k local phase-1 table (local indices)
	admit []int32 // k-sector phase-2 scratch row
}

// buildTile computes the sector tables of every node tile t owns and
// writes them into the global tables. All reads stay inside the tile's
// owned+halo working set; writes touch only rows of owned nodes, so tiles
// race on nothing.
func (sc *tileScratch) buildTile(ctx context.Context, t *Topology, tl tiling, start, ids []int32, tile int) (owned, halo int, err error) {
	d := t.Cfg.Range
	k := t.Sectors.Count()
	sc.pts = sc.pts[:0]
	sc.gids = sc.gids[:0]

	// Gather owned nodes, then the ≤2D halo band. A phase-1 row is needed
	// (and valid) only for nodes within D of the tile: their D-balls stay
	// inside the gathered 2D band. The halo gather carries one extra
	// epsilon of slack beyond the phase-1 band so that a node sitting at
	// the band's inflated edge still finds its whole D-ball gathered.
	x0, y0, x1, y1 := tl.rect(tile)
	bandR := d + tl.eps
	sc.p1ok = sc.p1ok[:0]
	forEachTileNode(tl, start, ids, t.Pts, tile, 2*d+tl.eps, func(id int32, own bool) {
		p := t.Pts[id]
		sc.pts = append(sc.pts, p)
		sc.gids = append(sc.gids, id)
		sc.p1ok = append(sc.p1ok, own ||
			(p.X >= x0-bandR && p.X <= x1+bandR && p.Y >= y0-bandR && p.Y <= y1+bandR))
	})
	nLocal := len(sc.pts)
	nOwned := int(start[tile+1] - start[tile])
	sc.grid.Fill(sc.pts, d)
	sc.near = growTable(sc.near, nLocal*k)
	sc.admit = growTable(sc.admit, k)

	// Local phase 1: per sector, the nearest in-range node. Identical to
	// phase1Row modulo the local index space — the candidate set is the
	// full D-ball (gathered by construction) and closerLocal is the same
	// strict total order, so the winners match BuildTheta's exactly.
	for i := 0; i < nLocal; i++ {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		if !sc.p1ok[i] {
			continue
		}
		row := sc.near[i*k : i*k+k]
		for s := range row {
			row[s] = -1
		}
		pi := sc.pts[i]
		sc.grid.ForEachWithin(pi, d, func(j int) {
			if j == i {
				return
			}
			s := sc.sectorOf(t, i, j)
			if cur := row[s]; cur < 0 || sc.closerLocal(pi, j, int(cur)) {
				row[s] = int32(j)
			}
		})
	}

	// Local phase 2 for owned nodes, in admitRow's gather formulation:
	// u admits, per sector, the nearest in-range w that selected u. Every
	// such w lies within D of u, hence within D of the tile, hence has a
	// valid local phase-1 row. Then publish both rows globally.
	for i := 0; i < nOwned; i++ {
		if i%cancelStride == 0 && ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		row := sc.admit[:k]
		for s := range row {
			row[s] = -1
		}
		pi := sc.pts[i]
		sc.grid.ForEachWithin(pi, d, func(j int) {
			if j == i {
				return
			}
			if sc.near[j*k+sc.sectorOf(t, j, i)] != int32(i) {
				return
			}
			s := sc.sectorOf(t, i, j)
			if cur := row[s]; cur < 0 || sc.closerLocal(pi, j, int(cur)) {
				row[s] = int32(j)
			}
		})
		gu := sc.gids[i]
		gNear, gAdmit := t.NearestOut[gu], t.AdmitIn[gu]
		for s := 0; s < k; s++ {
			gNear[s] = sc.globalID(sc.near[i*k+s])
			gAdmit[s] = sc.globalID(row[s])
		}
	}
	return nOwned, nLocal - nOwned, nil
}

// sectorOf returns the sector of local node v relative to local node u,
// honoring u's per-node orientation when configured (orientations are
// indexed by global id).
func (sc *tileScratch) sectorOf(t *Topology, u, v int) int {
	pu, pv := sc.pts[u], sc.pts[v]
	if t.Cfg.Orientations != nil {
		return t.Sectors.IndexOfOriented(pu, pv, t.Cfg.Orientations[sc.gids[u]])
	}
	return t.Sectors.IndexOf(pu, pv)
}

// closerLocal reports whether local node a is strictly preferred to local
// node b as a neighbor of the node at pu — the same (distance, global id)
// strict total order as closer, evaluated on the local copies.
func (sc *tileScratch) closerLocal(pu geom.Point, a, b int) bool {
	da, db := geom.Dist2(pu, sc.pts[a]), geom.Dist2(pu, sc.pts[b])
	if da != db {
		return da < db
	}
	return sc.gids[a] < sc.gids[b]
}

// globalID maps a local table entry to its global id (-1 stays -1).
func (sc *tileScratch) globalID(v int32) int32 {
	if v < 0 {
		return -1
	}
	return sc.gids[v]
}

func growTable(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// fillTiles fills the sector tables tile-sharded and stitches both graphs:
// the bounding box is cut into tiles×tiles tiles, a pool of up to workers
// goroutines computes each tile's rows over its owned nodes plus a 2D halo
// (the locality radius of Section 2) under topology.tiles, and the graphs
// are stitched from the global tables under topology.stitch. Peak memory
// is the global tables plus one cache-sized working set per worker, which
// is what admits n = 10⁶ builds.
func (t *Topology) fillTiles(ctx context.Context, tiles, workers int, ar *BuildArena) error {
	tel := t.Cfg.Telemetry
	tl := newTiling(t.Pts, tiles)
	nTiles := tl.k * tl.k
	if workers > nTiles {
		workers = nTiles
	}

	stopTiles := tel.StartPhase("topology.tiles")
	_, spanTiles := telemetry.StartChild(ctx, "topology.tiles")
	start, ids := tileAssign(t.Pts, tl)

	// Tile pool: workers pull tile indices from a shared counter. Tiles
	// write disjoint global rows, so scheduling order cannot affect the
	// result; the first cancellation wins and the rest drain.
	var (
		next     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := new(tileScratch)
			for {
				tile := int(next.Add(1)) - 1
				if tile >= nTiles || ctx.Err() != nil {
					return
				}
				_, spanTile := telemetry.StartChild(ctx, "topology.tile")
				owned, halo, err := sc.buildTile(ctx, t, tl, start, ids, tile)
				spanTile.SetAttr("tile", float64(tile))
				spanTile.SetAttr("owned", float64(owned))
				spanTile.SetAttr("halo", float64(halo))
				spanTile.End()
				if err != nil {
					firstErr.Store(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	stopTiles()
	spanTiles.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return err
	}

	stopStitch := tel.StartPhase("topology.stitch")
	_, spanStitch := telemetry.StartChild(ctx, "topology.stitch")
	t.stitchYao(ar)
	t.stitchN(ar)
	stopStitch()
	spanStitch.SetAttr("edges", float64(t.N.NumEdges()))
	spanStitch.End()
	if tel.Enabled() {
		tel.Gauge("topology.tiles").Set(float64(tl.k))
		tel.Gauge("topology.build_workers").Set(float64(workers))
	}
	return nil
}
