package topology

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// Regression: clustered point sets used to clamp Gaussian samples onto the
// square boundary, producing coincident nodes whose degenerate sector
// geometry made the θ-path recursion cycle (observed at n=1600, seed=0,
// G* edge (145,553)). The generator now resamples; this test pins both the
// generator fix and the clean-panic precondition.
func TestThetaPathClusteredLargeRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	pts := pointset.Generate(pointset.KindClustered, 1600, 0)
	if pts.HasDuplicatePoints() {
		t.Fatal("clustered generator still produces duplicates")
	}
	d := unitdisk.CriticalRange(pts) * 1.4
	top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d})
	gstar := unitdisk.Build(pts, d)
	edges := gstar.Edges()
	// Every 7th edge keeps the runtime modest while covering the clusters.
	for i := 0; i < len(edges); i += 7 {
		e := edges[i]
		nodes := top.ThetaPathNodes(e.U, e.V)
		if nodes[0] != e.U || nodes[len(nodes)-1] != e.V {
			t.Fatalf("θ-path endpoints wrong for %v", e)
		}
	}
}

func TestBuildThetaRejectsCoincidentPoints(t *testing.T) {
	pts := pointset.Set{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(1, 1)}
	if top, err := BuildThetaContext(context.Background(), pts, Config{Theta: math.Pi / 6, Range: 3}, 2); top != nil || !errors.Is(err, ErrCoincidentPoints) {
		t.Fatalf("BuildThetaContext: got (%v, %v), want ErrCoincidentPoints", top, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for coincident points")
		}
	}()
	BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 3})
}

// Per-node orientations: the paper makes no shared-frame assumption, so all
// structural guarantees must hold for arbitrary per-node sector anchors.
func TestOrientedTopologyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		pts := pointset.Generate(pointset.KindUniform, 150, int64(trial))
		d := unitdisk.CriticalRange(pts) * 1.3
		orient := make([]float64, len(pts))
		for i := range orient {
			orient[i] = rng.Float64() * 2 * math.Pi
		}
		cfg := Config{Theta: math.Pi / 6, Range: d, Orientations: orient}
		top := BuildTheta(pts, cfg)
		if !top.N.Connected() {
			t.Fatalf("trial %d: oriented topology disconnected", trial)
		}
		if top.N.MaxDegree() > top.DegreeBound() {
			t.Fatalf("trial %d: degree bound violated", trial)
		}
		// θ-paths remain valid.
		gstar := unitdisk.Build(pts, d)
		for i, e := range gstar.Edges() {
			if i%5 != 0 {
				continue
			}
			nodes := top.ThetaPathNodes(e.U, e.V)
			if nodes[0] != e.U || nodes[len(nodes)-1] != e.V {
				t.Fatalf("trial %d: oriented θ-path endpoints wrong", trial)
			}
		}
	}
}

func TestOrientedRotationInvariance(t *testing.T) {
	// Rotating ALL anchors by the same angle must behave like a global
	// frame rotation: the topology stays connected and degree-bounded
	// (the edge set may differ — sector boundaries shift — but the
	// guarantees cannot).
	pts := pointset.Generate(pointset.KindUniform, 120, 3)
	d := unitdisk.CriticalRange(pts) * 1.3
	for _, phi := range []float64{0.1, 0.7, 2.9} {
		orient := make([]float64, len(pts))
		for i := range orient {
			orient[i] = phi
		}
		top := BuildTheta(pts, Config{Theta: math.Pi / 6, Range: d, Orientations: orient})
		if !top.N.Connected() || top.N.MaxDegree() > top.DegreeBound() {
			t.Fatalf("phi=%v: invariants violated", phi)
		}
	}
}

func TestOrientationLengthMismatchPanics(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 10, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	BuildTheta(pts, Config{Theta: math.Pi / 6, Range: 1, Orientations: []float64{0.5}})
}
