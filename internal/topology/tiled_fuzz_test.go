package topology

import (
	"context"
	"math"
	"reflect"
	"testing"

	"toporouting/internal/geom"
)

// fuzzPoints decodes the fuzzer's byte stream into points on a 1/32 grid
// spanning [-4, 4): coarse enough that coordinates frequently land exactly
// on tile boundaries (the partition's hardest inputs), fine enough to
// exercise every ownership and halo shape.
func fuzzPoints(data []byte) []geom.Point {
	var pts []geom.Point
	for i := 0; i+1 < len(data); i += 2 {
		pts = append(pts, geom.Pt(float64(data[i])/32-4, float64(data[i+1])/32-4))
	}
	return pts
}

// distToRect is the exact Euclidean distance from p to the rectangle
// [x0,x1]×[y0,y1] (0 inside).
func distToRect(p geom.Point, x0, y0, x1, y1 float64) float64 {
	dx := math.Max(0, math.Max(x0-p.X, p.X-x1))
	dy := math.Max(0, math.Max(y0-p.Y, p.Y-y1))
	return math.Hypot(dx, dy)
}

// FuzzTileAssign fuzzes the tile partition and halo gather against their
// three contracts: every node is owned by exactly one tile (the CSR is a
// permutation and matches ownerOf), each tile's working set has no
// duplicates and lists owned nodes first, and the gathered halo is a
// superset of the exact 2D boundary band {p : dist(p, tile) ≤ 2D} — the
// locality radius the construction's correctness rests on. When the
// decoded points are distinct it additionally cross-checks the full tiled
// build against BuildTheta.
func FuzzTileAssign(f *testing.F) {
	// Boundary-exact corpus: nodes exactly on k=2 and k=4 tile boundaries
	// of the [0,1]² box (bytes 128 = 0.0, 136 = 0.25, 144 = 0.5, 160 = 1.0
	// on the 1/32 grid), plus corners and a coincident pair.
	f.Add([]byte{128, 128, 160, 160, 144, 144, 136, 152, 144, 128, 128, 144}, uint8(2), uint8(40))
	f.Add([]byte{128, 128, 160, 160, 144, 144, 144, 160, 160, 144}, uint8(4), uint8(200))
	f.Add([]byte{128, 128, 128, 128, 160, 160}, uint8(3), uint8(10)) // coincident pair
	f.Add([]byte{0, 0, 255, 255}, uint8(8), uint8(255))              // two far corners
	f.Add([]byte{100, 100}, uint8(5), uint8(1))                      // single node
	f.Add([]byte{}, uint8(1), uint8(1))                              // empty
	f.Fuzz(func(t *testing.T, data []byte, kRaw, dRaw uint8) {
		pts := fuzzPoints(data)
		k := 1 + int(kRaw)%8
		d := 0.05 + float64(dRaw)/64
		tl := newTiling(pts, k)
		start, ids := tileAssign(pts, tl)

		// CSR shape: offsets cover exactly the node set.
		if len(start) != k*k+1 || start[0] != 0 || int(start[k*k]) != len(pts) {
			t.Fatalf("CSR offsets malformed: len %d, first %d, last %d for %d nodes",
				len(start), start[0], start[k*k], len(pts))
		}
		owner := make([]int, len(pts))
		seen := make([]bool, len(pts))
		for tile := 0; tile < k*k; tile++ {
			if start[tile] > start[tile+1] {
				t.Fatalf("tile %d: offsets decrease (%d > %d)", tile, start[tile], start[tile+1])
			}
			prev := int32(-1)
			for _, id := range ids[start[tile]:start[tile+1]] {
				if id <= prev {
					t.Fatalf("tile %d: ids not strictly ascending at %d", tile, id)
				}
				prev = id
				if seen[id] {
					t.Fatalf("node %d owned by two tiles", id)
				}
				seen[id] = true
				owner[id] = tile
				if got := tl.ownerOf(pts[id]); got != tile {
					t.Fatalf("node %d in tile %d's CSR but ownerOf says %d", id, tile, got)
				}
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("node %d lost: owned by no tile", i)
			}
		}

		// Halo gather: no duplicates, owned-first, and ⊇ the exact 2D band.
		haloR := 2*d + tl.eps
		for tile := 0; tile < k*k; tile++ {
			visited := make(map[int32]bool, len(pts))
			nOwned := 0
			inHalo := false
			forEachTileNode(tl, start, ids, pts, tile, haloR, func(id int32, own bool) {
				if visited[id] {
					t.Fatalf("tile %d: node %d visited twice", tile, id)
				}
				visited[id] = true
				if own {
					if inHalo {
						t.Fatalf("tile %d: owned node %d after halo nodes", tile, id)
					}
					if owner[id] != tile {
						t.Fatalf("tile %d: visited %d as owned, owner is %d", tile, id, owner[id])
					}
					nOwned++
				} else {
					inHalo = true
				}
			})
			if nOwned != int(start[tile+1]-start[tile]) {
				t.Fatalf("tile %d: visited %d owned nodes, CSR has %d", tile, nOwned, start[tile+1]-start[tile])
			}
			x0, y0, x1, y1 := tl.rect(tile)
			for i, p := range pts {
				if distToRect(p, x0, y0, x1, y1) <= 2*d && !visited[int32(i)] {
					t.Fatalf("tile %d: node %d at distance %g ≤ 2D=%g not gathered",
						tile, i, distToRect(p, x0, y0, x1, y1), 2*d)
				}
			}
		}

		// With distinct points the whole construction must match the
		// single-grid build.
		distinct := map[geom.Point]bool{}
		for _, p := range pts {
			distinct[p] = true
		}
		if len(distinct) != len(pts) || len(pts) < 2 {
			return
		}
		cfg := Config{Theta: math.Pi / 6, Range: d}
		got, err := build(context.Background(), pts, cfg, 2, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		want := singleGrid(append([]geom.Point(nil), pts...), cfg)
		if !reflect.DeepEqual(got.NearestOut, want.NearestOut) ||
			!reflect.DeepEqual(got.AdmitIn, want.AdmitIn) ||
			!reflect.DeepEqual(got.N, want.N) {
			t.Fatalf("tiled build diverged from sequential (n=%d k=%d d=%g)", len(pts), k, d)
		}
	})
}
