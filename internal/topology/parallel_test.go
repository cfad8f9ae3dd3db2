package topology

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// TestBuildThetaParallelDeterminism pins the deterministic-merge contract:
// BuildThetaContext produces identical tables and adjacency for worker
// counts 1, 2, and NumCPU, and identical to the sequential single-grid
// build. The CI race job runs this test under -race, so it also guards the
// phase-1 fan-out against data races.
func TestBuildThetaParallelDeterminism(t *testing.T) {
	for _, kind := range []pointset.Kind{pointset.KindUniform, pointset.KindClustered, pointset.KindGrid} {
		pts := pointset.Generate(kind, 400, 9)
		dRange := unitdisk.CriticalRange(pts) * 1.3
		cfg := Config{Theta: math.Pi / 6, Range: dRange}
		ref := singleGrid(pts, cfg)
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			got, err := BuildThetaContext(context.Background(), pts, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.NearestOut, ref.NearestOut) {
				t.Fatalf("%v workers=%d: NearestOut differs from sequential", kind, workers)
			}
			if !reflect.DeepEqual(got.AdmitIn, ref.AdmitIn) {
				t.Fatalf("%v workers=%d: AdmitIn differs from sequential", kind, workers)
			}
			if !reflect.DeepEqual(got.N.Edges(), ref.N.Edges()) {
				t.Fatalf("%v workers=%d: adjacency differs from sequential", kind, workers)
			}
			if !reflect.DeepEqual(got.Yao.Edges(), ref.Yao.Edges()) {
				t.Fatalf("%v workers=%d: Yao adjacency differs from sequential", kind, workers)
			}
		}
	}
}

func TestBuildThetaParallelDefaults(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 100, 2)
	cfg := Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3}
	// workers ≤ 0 stays sequential; more workers than nodes is clamped.
	a, err := BuildThetaContext(context.Background(), pts, cfg, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildThetaContext(context.Background(), pts, cfg, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ref := singleGrid(pts, cfg)
	if !reflect.DeepEqual(a.N.Edges(), ref.N.Edges()) || !reflect.DeepEqual(b.N.Edges(), ref.N.Edges()) {
		t.Fatal("default/clamped worker counts changed the topology")
	}
}
