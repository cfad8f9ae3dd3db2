package topology

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"toporouting/internal/geom"
)

func randPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	return pts
}

// TestBuildThetaArenaEquivalence reuses one arena across many builds of
// varying size and configuration and requires every output — both graphs
// and both sector tables — to match the allocating builder exactly. Reuse
// across shrinking/growing n is the regime where stale arena state would
// leak between builds.
func TestBuildThetaArenaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var ar BuildArena
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(120)
		pts := randPoints(rng, n)
		cfg := Config{Range: 1.5 + rng.Float64()}
		if trial%3 == 0 {
			cfg.Theta = DefaultTheta / 2 // vary k so table carves change shape
		}
		workers := 1 + trial%4
		ref := singleGrid(pts, cfg)
		got, err := BuildThetaArena(context.Background(), pts, cfg, workers, &ar)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(ref.N.Edges(), got.N.Edges()) {
			t.Fatalf("trial %d (n=%d): final graph diverges", trial, n)
		}
		if !reflect.DeepEqual(ref.Yao.Edges(), got.Yao.Edges()) {
			t.Fatalf("trial %d (n=%d): Yao graph diverges", trial, n)
		}
		if !reflect.DeepEqual(ref.NearestOut, got.NearestOut) {
			t.Fatalf("trial %d (n=%d): NearestOut diverges", trial, n)
		}
		if !reflect.DeepEqual(ref.AdmitIn, got.AdmitIn) {
			t.Fatalf("trial %d (n=%d): AdmitIn diverges", trial, n)
		}
		if ref.N.MaxDegree() > ref.DegreeBound() || got.N.MaxDegree() > got.DegreeBound() {
			t.Fatalf("trial %d: degree bound violated", trial)
		}
	}
	if ar.Footprint() == 0 {
		t.Fatal("arena retains no backing after builds")
	}
}

// TestBuildThetaArenaDistinctPanic pins that the recycled distinctness map
// still catches duplicate positions after prior successful builds.
func TestBuildThetaArenaDistinctPanic(t *testing.T) {
	var ar BuildArena
	good := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)}
	if _, err := BuildThetaArena(context.Background(), good, Config{Range: 2}, 1, &ar); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate positions did not panic on arena reuse")
		}
	}()
	dup := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 0)}
	_, _ = BuildThetaArena(context.Background(), dup, Config{Range: 2}, 1, &ar)
}

// BenchmarkBuildThetaArena measures the steady-state allocation win of the
// arena path against the allocating builder at n=200.
func BenchmarkBuildThetaArena(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randPoints(rng, 200)
	cfg := Config{Range: 1.5}
	var ar BuildArena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildThetaArena(context.Background(), pts, cfg, 1, &ar); err != nil {
			b.Fatal(err)
		}
	}
}
