package topology

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"toporouting/internal/geom"
)

// fuzzPoints decodes the fuzzer's byte stream into points on a 1/32 grid
// spanning [-4, 4): coarse enough that coordinates often tie exactly (equal
// distances, nodes on grid-cell boundaries, coincident pairs), fine enough
// to reach every neighborhood shape.
func fuzzPoints(data []byte) []geom.Point {
	var pts []geom.Point
	for i := 0; i+1 < len(data); i += 2 {
		pts = append(pts, geom.Pt(float64(data[i])/32-4, float64(data[i+1])/32-4))
	}
	return pts
}

// FuzzTileAssign checks fuzzed point sets against the O(n²) reference: the
// fill at 1–3 workers must reproduce both sector tables and N, adjacency
// order included. Coincident points must be rejected with
// ErrCoincidentPoints at every worker count. (The name is kept from the
// tile-partition fuzzer this target replaced, so the committed CI step
// still runs it.)
func FuzzTileAssign(f *testing.F) {
	// Points on the 1/32 grid: bytes 128 = 0.0, 136 = 0.25, 144 = 0.5,
	// 160 = 1.0. Exact ties, a coincident pair, far corners, a single node,
	// the empty set and an in-sector distance tie.
	f.Add([]byte{128, 128, 160, 160, 144, 144, 136, 152, 144, 128, 128, 144}, uint8(2), uint8(40))
	f.Add([]byte{128, 128, 160, 160, 144, 144, 144, 160, 160, 144}, uint8(4), uint8(200))
	f.Add([]byte{128, 128, 128, 128, 160, 160}, uint8(3), uint8(10)) // coincident pair
	f.Add([]byte{0, 0, 255, 255}, uint8(8), uint8(255))              // two far corners
	f.Add([]byte{100, 100}, uint8(5), uint8(1))                      // single node
	f.Add([]byte{}, uint8(1), uint8(1))                              // empty
	// (3/32, 4/32) and (4/32, 3/32) tie on distance from the origin in
	// one π/6 sector.
	f.Add([]byte{128, 128, 131, 132, 132, 131}, uint8(3), uint8(20))
	f.Fuzz(func(t *testing.T, data []byte, thetaRaw, dRaw uint8) {
		// At most 200 points: the reference is quadratic, and with a range
		// spanning the whole box so is every build.
		pts := fuzzPoints(data[:min(len(data), 400)])
		theta := math.Pi / float64(3+int(thetaRaw)%10) // π/3 … π/12
		cfg := Config{Theta: theta, Range: 0.05 + float64(dRaw)/64}
		distinct := make(map[geom.Point]bool, len(pts))
		for _, p := range pts {
			distinct[p] = true
		}
		if len(distinct) != len(pts) {
			for workers := 1; workers <= 3; workers++ {
				if _, err := BuildThetaContext(context.Background(), pts, cfg, workers); !errors.Is(err, ErrCoincidentPoints) {
					t.Fatalf("workers=%d: coincident points gave %v, want ErrCoincidentPoints", workers, err)
				}
			}
			return
		}
		want := referenceTheta(pts, cfg)
		for workers := 1; workers <= 3; workers++ {
			got, err := BuildThetaContext(context.Background(), pts, cfg, workers)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(got.NearestOut, want.nearest) ||
				!reflect.DeepEqual(got.AdmitIn, want.admit) ||
				!reflect.DeepEqual(got.N, want.n) {
				t.Fatalf("workers=%d: build diverged from the reference (n=%d θ=%g D=%g)", workers, len(pts), theta, cfg.Range)
			}
		}
	})
}
