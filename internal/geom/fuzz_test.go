package geom

import (
	"math"
	"testing"
)

// FuzzNormalizeAngle pins the wraparound contract: for every finite input,
// the result lies in the half-open interval [0, 2π) — never exactly 2π,
// which is the rounding hazard the function's defensive clamp exists for
// (math.Mod of values just below a multiple of 2π, plus the negative-
// branch addition, can land exactly on 2π).
func FuzzNormalizeAngle(f *testing.F) {
	for _, seed := range []float64{
		0, 1, -1, math.Pi, -math.Pi, TwoPi, -TwoPi, 7 * math.Pi,
		math.Nextafter(TwoPi, 0), math.Nextafter(TwoPi, 4), -math.Nextafter(0, -1),
		-1e-300, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64, 5e-324,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, a float64) {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			t.Skip()
		}
		got := NormalizeAngle(a)
		if !(got >= 0 && got < TwoPi) {
			t.Fatalf("NormalizeAngle(%v) = %v outside [0, 2π)", a, got)
		}
		// Idempotence: an already-normalized angle is a fixed point.
		if again := NormalizeAngle(got); again != got {
			t.Fatalf("NormalizeAngle not idempotent: %v → %v → %v", a, got, again)
		}
	})
}

// FuzzAzimuth pins Azimuth's range contract and its agreement with the
// sector machinery's half-open indexing.
func FuzzAzimuth(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0)
	f.Add(0.0, 0.0, -1.0, -1e-18) // just below the 2π wraparound
	f.Add(0.5, 0.5, 0.5, 0.5)     // u == v convention
	f.Add(1e308, 1e308, -1e308, -1e308)
	f.Fuzz(func(t *testing.T, ux, uy, vx, vy float64) {
		u, v := Pt(ux, uy), Pt(vx, vy)
		if anyNonFinite(ux, uy, vx, vy) {
			t.Skip()
		}
		az := Azimuth(u, v)
		if !(az >= 0 && az < TwoPi) {
			t.Fatalf("Azimuth(%v, %v) = %v outside [0, 2π)", u, v, az)
		}
		if u == v && az != 0 {
			t.Fatalf("Azimuth(p, p) = %v, want 0", az)
		}
		if d := AngularDiff(az, az); d != 0 {
			t.Fatalf("AngularDiff(a, a) = %v", d)
		}
	})
}

// FuzzSectorIndex pins the ΘALG cone partition. IndexOf must equal its
// atan2 definition (indexAtan2) on every input, so the cross-product fast
// path may never disagree with it, near a boundary ray or anywhere else.
// When both directions of a pair take the fast path and k is even, the
// reverse direction lies exactly k/2 sectors on. The index stays in
// [0, k) at the 2π wraparound, the half-open boundary [i·w, (i+1)·w) holds
// modulo one float of rounding, and the oriented variant with offset 0
// agrees exactly with the unoriented one (BuildTheta switches between the
// two based on Config.Orientations).
func FuzzSectorIndex(f *testing.F) {
	f.Add(math.Pi/6, 0.0, 0.0, 1.0, 0.0, 0.0)
	f.Add(math.Pi/6, 0.0, 0.0, 1.0, -1e-18, 1.0) // direction just below 2π
	f.Add(math.Pi/3, 0.5, 0.5, 0.5, 1.5, -math.Pi)
	f.Add(0.1, -3.0, 4.0, 12.0, -7.0, 100.0)
	f.Add(1e-3, 0.0, 0.0, -1.0, 0.0, 0.0)                    // many sectors, angle π
	f.Add(math.Pi/6, 0.0, 0.0, 5e-324, 5e-324, 0.0)          // subnormal difference
	f.Add(math.Pi/6, 0.0, 0.0, 1e-310, 3e-310, 0.0)          // subnormal difference
	f.Add(math.Pi/6, -1e308, -1e308, 1e308, 0.5e308, 0.0)    // overflowing difference
	f.Add(math.Pi/4, 1e308, 1e308, -0.5e308, -0.25e308, 0.0) // large, finite
	for _, theta := range []float64{math.Pi / 3, math.Pi / 4, math.Pi / 6, 0.1, 0.9} {
		for _, d := range boundaryDirections(NewSectors(theta)) {
			f.Add(theta, 0.25, -0.5, 0.25+d.X, -0.5+d.Y, 0.0)
		}
	}
	f.Fuzz(func(t *testing.T, theta, ux, uy, vx, vy, offset float64) {
		if !(theta > 1e-6 && theta <= math.Pi/3) || anyNonFinite(ux, uy, vx, vy, offset) {
			t.Skip()
		}
		u, v := Pt(ux, uy), Pt(vx, vy)
		s := NewSectors(theta)
		k := s.Count()
		i := s.IndexOf(u, v)
		if want := s.indexAtan2(u, v); i != want {
			t.Fatalf("IndexOf(%v, %v) = %d, atan2 index %d (θ=%v)", u, v, i, want, theta)
		}
		if back := s.IndexOf(v, u); back != s.indexAtan2(v, u) {
			t.Fatalf("IndexOf(%v, %v) = %d, atan2 index %d (θ=%v)", v, u, back, s.indexAtan2(v, u), theta)
		}
		_, fwd := s.rays.index(v.X-u.X, v.Y-u.Y)
		_, rev := s.rays.index(u.X-v.X, u.Y-v.Y)
		if k%2 == 0 && fwd != rev {
			t.Fatalf("fast path taken one way only for %v → %v (θ=%v)", u, v, theta)
		}
		if fwd && rev && k%2 == 0 {
			if back := s.IndexOf(v, u); back != (i+k/2)%k {
				t.Fatalf("IndexOf(v, u) = %d, want (%d + k/2) mod %d", back, i, k)
			}
		}
		if u == v {
			if i != 0 {
				t.Fatalf("IndexOf(p, p) = %d, want 0", i)
			}
			return
		}
		if w := s.Width(); w > theta+1e-12 {
			t.Fatalf("sector width %v exceeds θ=%v", w, theta)
		}
		if i < 0 || i >= k {
			t.Fatalf("IndexOf = %d outside [0, %d)", i, k)
		}
		if oi := s.IndexOfOriented(u, v, 0); oi != i {
			t.Fatalf("IndexOfOriented(offset=0) = %d, IndexOf = %d", oi, i)
		}
		// Half-open boundaries, modulo one float of division rounding:
		// the azimuth must not be more than one ulp-scaled step outside
		// [Lo(i), Hi(i)).
		az := Azimuth(u, v)
		const slack = 1e-9
		if az < s.Lo(i)-slack*s.Width() || az >= s.Hi(i)+slack*s.Width() {
			t.Fatalf("azimuth %v outside sector %d = [%v, %v)", az, i, s.Lo(i), s.Hi(i))
		}
		if oi := s.IndexOfOriented(u, v, offset); oi < 0 || oi >= k {
			t.Fatalf("IndexOfOriented(offset=%v) = %d outside [0, %d)", offset, oi, k)
		}
	})
}

func anyNonFinite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}
