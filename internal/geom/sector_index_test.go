package geom

import (
	"math"
	"math/rand"
	"testing"
)

// boundaryDirections returns directions that sit on each of s's boundary
// rays and one ulp off them in every component, plus the four axes and
// their 1-ulp neighbours: the inputs where IndexOf's fast path must hand
// over to atan2.
func boundaryDirections(s Sectors) []Point {
	var ds []Point
	add := func(x, y float64) {
		for _, dx := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
			for _, dy := range []float64{y, math.Nextafter(y, math.Inf(-1)), math.Nextafter(y, math.Inf(1))} {
				ds = append(ds, Pt(dx, dy))
			}
		}
	}
	for i := range s.Count() {
		sin, cos := math.Sincos(s.Lo(i))
		add(cos, sin)
		add(3*cos, 3*sin)
	}
	for _, a := range []Point{Pt(1, 0), Pt(0, 1), Pt(-1, 0), Pt(0, -1)} {
		add(a.X, a.Y)
		add(a.X+1e-17, a.Y+1e-17)
	}
	return ds
}

// TestSectorIndexMatchesAtan2 holds IndexOf to its atan2 definition for
// every θ on random pairs, on every boundary ray and 1 ulp off it, and on
// the same inputs scaled by 10^±300 (subnormal and huge differences). It
// also checks that the fast path does the work: almost every random pair
// must take it, or the comparison above would test atan2 against itself.
func TestSectorIndexMatchesAtan2(t *testing.T) {
	pairs := 1_000_000
	if testing.Short() {
		pairs = 50_000
	}
	for _, theta := range []float64{math.Pi / 3, math.Pi / 4, math.Pi / 6, 0.1, 1e-3} {
		s := NewSectors(theta)
		k := s.Count()
		check := func(u, v Point) {
			got, want := s.IndexOf(u, v), s.indexAtan2(u, v)
			if got != want {
				t.Fatalf("θ=%v: IndexOf(%v, %v) = %d, atan2 index %d", theta, u, v, got, want)
			}
			if k%2 != 0 {
				return
			}
			_, fwd := s.rays.index(v.X-u.X, v.Y-u.Y)
			_, rev := s.rays.index(u.X-v.X, u.Y-v.Y)
			if fwd != rev {
				t.Fatalf("θ=%v: fast path taken one way only for %v → %v", theta, u, v)
			}
			if back := s.IndexOf(v, u); fwd && back != (got+k/2)%k {
				t.Fatalf("θ=%v: IndexOf(v, u) = %d, want (%d + k/2) mod %d", theta, back, got, k)
			}
		}

		rng := rand.New(rand.NewSource(int64(k)))
		fast := 0
		for range pairs {
			u := Pt(rng.Float64()*2-1, rng.Float64()*2-1)
			v := Pt(rng.Float64()*2-1, rng.Float64()*2-1)
			if _, ok := s.rays.index(v.X-u.X, v.Y-u.Y); ok {
				fast++
			}
			check(u, v)
		}
		if fast < pairs*99/100 {
			t.Fatalf("θ=%v: fast path took %d of %d random pairs", theta, fast, pairs)
		}

		u := Pt(0.3, -0.7)
		for _, d := range boundaryDirections(s) {
			check(Pt(0, 0), d)
			check(u, u.Add(d))
			for _, scale := range []float64{1e300, 1e-300} {
				check(u.Scale(scale), u.Add(d).Scale(scale))
				check(Pt(0, 0), d.Scale(scale))
			}
		}
		check(u, u)
	}
}

// BenchmarkSectorIndex prices one IndexOf call at the default θ = π/6 on
// random directions (the fast path) and on directions at or 1 ulp off a
// boundary ray (mostly the atan2 fallback), next to indexAtan2 on the
// same random directions.
func BenchmarkSectorIndex(b *testing.B) {
	s := NewSectors(math.Pi / 6)
	rng := rand.New(rand.NewSource(1))
	random := make([]Point, 1024)
	for i := range random {
		random[i] = Pt(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	near := boundaryDirections(s)
	u := Pt(0, 0)
	for _, c := range []struct {
		name string
		dirs []Point
		f    func(u, v Point) int
	}{
		{"random", random, s.IndexOf},
		{"near-boundary", near, s.IndexOf},
		{"atan2-random", random, s.indexAtan2},
	} {
		b.Run(c.name, func(b *testing.B) {
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += c.f(u, c.dirs[i%len(c.dirs)])
			}
			sinkIndex = sum
		})
	}
}

var sinkIndex int
