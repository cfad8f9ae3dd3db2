package geom

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Sectors partitions the full angle around every node into k = ⌈2π/θ⌉ equal
// cones, as done by the ΘALG topology-control algorithm (Section 2.1 of the
// paper). Sector i of a node u is the half-open cone of directions
// [i·w, (i+1)·w) where w = 2π/k, anchored at azimuth 0 in a shared global
// frame. The paper requires θ ≤ π/3; NewSectors enforces this.
type Sectors struct {
	k     int       // number of sectors
	width float64   // angular width of each sector: 2π/k ≤ θ
	rays  *rayTable // boundary rays for IndexOf's fast path; nil for huge k
}

// NewSectors returns a sector partition with cone angle at most theta.
// It panics if theta is not in (0, π/3], matching the precondition of the
// ΘALG analysis.
func NewSectors(theta float64) Sectors {
	if !(theta > 0 && theta <= math.Pi/3+1e-12) {
		panic(fmt.Sprintf("geom: sector angle θ=%v outside (0, π/3]", theta))
	}
	k := int(math.Ceil(TwoPi/theta - 1e-9))
	width := TwoPi / float64(k)
	return Sectors{k: k, width: width, rays: raysFor(k, width)}
}

// Count returns the number of sectors k.
func (s Sectors) Count() int { return s.k }

// Width returns the angular width 2π/k of each sector.
func (s Sectors) Width() float64 { return s.width }

// IndexOf returns the index of the sector S(u, v) of node u that contains
// node v, i.e. the sector containing the direction from u to v. The result is
// in [0, Count()). If u == v, the sector index is 0 by convention; callers
// never ask for the sector of a node relative to itself in the algorithms.
//
// The result is bit-identical to indexAtan2. Most directions are placed by
// cross products against the boundary rays (rayTable.index); only a
// direction within rounding distance of a ray pays for the atan2.
func (s Sectors) IndexOf(u, v Point) int {
	if i, ok := s.rays.index(v.X-u.X, v.Y-u.Y); ok {
		return i
	}
	return s.indexAtan2(u, v)
}

// indexAtan2 is IndexOf computed from the azimuth: atan2, normalized to
// [0, 2π), divided by the sector width. It is the definition IndexOf's
// fast path reproduces, and its fallback.
func (s Sectors) indexAtan2(u, v Point) int {
	i := int(Azimuth(u, v) / s.width)
	if i >= s.k { // guard against rounding at exactly 2π
		i = s.k - 1
	}
	return i
}

// IndexOfOriented is IndexOf with a per-node frame rotation: the sector
// partition of u is anchored at azimuth offset instead of 0. The paper's
// nodes each divide "the 360° space" around themselves, so no shared frame
// is required; orientations let every node use its own.
func (s Sectors) IndexOfOriented(u, v Point, offset float64) int {
	i := int(NormalizeAngle(Azimuth(u, v)-offset) / s.width)
	if i >= s.k {
		i = s.k - 1
	}
	return i
}

// Lo returns the starting azimuth of sector i.
func (s Sectors) Lo(i int) float64 { return float64(i) * s.width }

// Hi returns the (exclusive) ending azimuth of sector i.
func (s Sectors) Hi(i int) float64 { return float64(i+1) * s.width }

// Contains reports whether the direction from u to v falls in sector i of u.
func (s Sectors) Contains(i int, u, v Point) bool { return s.IndexOf(u, v) == i }

// sectorMargin is the fast path's relative margin: a cross product (or a
// component of the direction) within sectorMargin·(|dx|+|dy|) of zero sends
// the direction to indexAtan2. The fast path's own rounding, and the
// rounding that separates indexAtan2 from the exact sector, are both a few
// times 1e-16 relative, far inside the margin.
const sectorMargin = 1e-12

// minNormal is the smallest positive normal float64. Below it, products
// lose relative precision, so the margin no longer bounds their error.
const minNormal = 0x1p-1022

// maxRays caps the sector count that gets a ray table (θ ≳ 3.8e-4); larger
// counts use indexAtan2 alone. memoRays caps the rays rayTables retains:
// past it, a table is built per NewSectors call and dies with its Sectors.
const (
	maxRays  = 1 << 14
	memoRays = 1 << 16
)

var (
	rayTables sync.Map // int (sector count) → *rayTable
	memoed    atomic.Int64
)

// rayTable holds the k boundary rays (cos i·w, sin i·w) and, per quadrant
// q, the sector lo[q] that holds the directions just past the axis at
// q·90° and the last sector hi[q] that starts strictly inside the quadrant.
type rayTable struct {
	rays   []ray
	lo, hi [4]int
}

type ray struct{ x, y float64 }

// raysFor returns the ray table for k sectors of width w, memoized per k so
// that the per-build NewSectors calls pay nothing after the first.
func raysFor(k int, w float64) *rayTable {
	if k > maxRays {
		return nil
	}
	if t, ok := rayTables.Load(k); ok {
		return t.(*rayTable)
	}
	t := &rayTable{rays: make([]ray, k)}
	for i := range t.rays {
		if k%2 == 0 && i >= k/2 {
			// Ray i is the exact negation of ray i - k/2, so for even k
			// the fast path treats d and -d alike.
			r := t.rays[i-k/2]
			t.rays[i] = ray{-r.x, -r.y}
			continue
		}
		sin, cos := math.Sincos(float64(i) * w)
		t.rays[i] = ray{cos, sin}
	}
	for q := range 4 {
		t.lo[q] = q * k / 4         // ⌊q·k/4⌋
		t.hi[q] = ((q+1)*k+3)/4 - 1 // ⌈(q+1)·k/4⌉ - 1
	}
	if memoed.Add(int64(k)) <= memoRays {
		got, _ := rayTables.LoadOrStore(k, t)
		return got.(*rayTable)
	}
	return t
}

// index places the direction (dx, dy) in its sector without atan2. The
// sign bits of dx and dy give the quadrant, and a binary search over the
// rays that start strictly inside it gives the sector: the direction lies
// past ray i iff ray × d > 0, since both lie in one quadrant. Every
// comparison that decides the result is one of these signs, or a sign of
// dx or dy. Each is taken only when it clears the margin, where its
// rounding cannot flip it, so the result is the exact sector. indexAtan2
// also returns the exact sector unless the direction lies within a few
// ulps of a ray, and such a direction fails the margin on that ray: both
// rays that bound the result are among those the search compares, and
// the quadrant's axes are the dx and dy checks. ok is false, and the
// caller must fall back, when a check fails the margin or the margin is
// not a positive normal number (u == v, a subnormal or overflowing
// difference, NaN).
func (t *rayTable) index(dx, dy float64) (i int, ok bool) {
	if t == nil {
		return 0, false
	}
	ax, ay := math.Abs(dx), math.Abs(dy)
	bound := sectorMargin * (ax + ay)
	// An infinite bound fails the component checks, a NaN one the first.
	if !(bound >= minNormal) || ax <= bound || ay <= bound {
		return 0, false
	}
	sx := int(math.Float64bits(dx) >> 63)
	sy := int(math.Float64bits(dy) >> 63)
	q := 2*sy + (sx ^ sy) // 0: +x+y, 1: -x+y, 2: -x-y, 3: +x-y
	lo, hi := t.lo[q], t.hi[q]
	for lo < hi {
		m := (lo + hi + 1) >> 1
		r := t.rays[m]
		c := r.x*dy - r.y*dx
		if math.Abs(c) <= bound {
			return 0, false
		}
		if c > 0 {
			lo = m
		} else {
			hi = m - 1
		}
	}
	return lo, true
}
