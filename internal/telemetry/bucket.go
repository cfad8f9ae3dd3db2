package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// BucketHistogram is a fixed-bucket counting histogram — the Prometheus
// histogram type and the package's only histogram kind. Buckets are fixed
// at creation, observations are a few atomic adds, and snapshots produce
// cumulative counts, so memory never grows, an observation never waits on
// a scrape, and the instrument stays true for the life of the process.
type BucketHistogram struct {
	bounds  []float64 // ascending upper bounds; an implicit +Inf follows
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefLatencyBuckets is the default latency bucket layout in milliseconds:
// sub-millisecond to 10 s in roughly 1-2.5-5 decades, matching the spread
// between a cached topology build and a Monte-Carlo simulate request.
var DefLatencyBuckets = []float64{0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// DefCountBuckets is a bucket layout for small-integer size distributions —
// nodes touched by a repair, delta records per response — spanning the
// single-node fix to a whole large instance in 1-2.5-5 decades.
var DefCountBuckets = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

func newBucketHistogram(bounds []float64) *BucketHistogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &BucketHistogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one sample (no-op on a nil histogram).
func (h *BucketHistogram) Observe(x float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= x; the last slot is +Inf.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if x <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// BucketSnapshot is a point-in-time view of a BucketHistogram with
// Prometheus semantics: Cumulative[i] counts observations ≤ Bounds[i], and
// the final entry (upper bound +Inf) equals Count.
type BucketSnapshot struct {
	Bounds     []float64 `json:"bounds"`
	Cumulative []uint64  `json:"cumulative"`
	Count      uint64    `json:"count"`
	Sum        float64   `json:"sum"`
}

// Snapshot captures cumulative bucket counts. Under concurrent Observe
// the snapshot is not a single atomic cut, but every count it reports was
// true at some point and Count ≥ each cumulative entry once observers
// quiesce.
func (h *BucketHistogram) Snapshot() BucketSnapshot {
	if h == nil {
		return BucketSnapshot{}
	}
	s := BucketSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]uint64, len(h.counts)),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		s.Cumulative[i] = cum
	}
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) the way Prometheus's
// histogram_quantile does: find the first non-empty bucket whose
// cumulative count reaches rank q·count and interpolate linearly inside it,
// taking 0 as the lower edge of the first bucket. A rank in the +Inf bucket reports the highest finite bound. An
// empty snapshot, or one with no finite bound, yields NaN.
func (s BucketSnapshot) Quantile(q float64) float64 {
	n := len(s.Cumulative)
	if n < 2 || s.Cumulative[n-1] == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Cumulative[n-1])
	b := sort.Search(n, func(i int) bool { return s.Cumulative[i] > 0 && float64(s.Cumulative[i]) >= rank })
	if b >= n-1 {
		return s.Bounds[n-2]
	}
	lo, below := 0.0, uint64(0)
	if b > 0 {
		lo, below = s.Bounds[b-1], s.Cumulative[b-1]
	}
	return lo + (s.Bounds[b]-lo)*(rank-float64(below))/float64(s.Cumulative[b]-below)
}

// BucketHistogram returns the named fixed-bucket histogram, creating it
// with bounds on first use (later callers get the existing instrument and
// their bounds are ignored). The result is nil — and safely inert — when
// t is nil.
func (t *Telemetry) BucketHistogram(name string, bounds []float64) *BucketHistogram {
	if t == nil {
		return nil
	}
	return instrument(t.reg, t.reg.histograms, name, func() *BucketHistogram { return newBucketHistogram(bounds) })
}
