package unitdisk

import (
	"context"
	"math"
	"slices"
	"sync"

	"toporouting/internal/geom"
)

// SpanningTree computes a Euclidean minimum spanning tree of pts by
// Kruskal's algorithm and returns the squared length of its longest edge
// (0 for fewer than two points). A non-nil edge is called once per tree
// edge (u < v), in ascending order of squared length.
//
// Kruskal takes the candidate pairs band by band: the pairs with d² in
// (lo², hi²] whose endpoints are not yet connected are gathered, ordered by
// (d², u, v) and joined in that order; then the band moves up by 1.25× in
// radius, faster while bands stay sparse. The first band ends at the
// largest nearest-neighbour distance, below which no tree edge can be the
// longest, so on uniform sets one or two bands finish the tree. Pairs come
// from a dual walk of a 2-d tree that skips node pairs farther apart than
// the band and node pairs whose points already share one component;
// against a node whose points share one component a point gathers only its
// nearest member, since every other pair would join the same two
// components. A band costs about its own candidates, however wide a range
// of scales the points span. A band that gathers more than a budget of
// O(n) pairs is narrowed and retried; one that holds a single squared
// length cannot be narrowed, so it is joined a budget at a time. Memory
// stays O(n) even for coincident or equidistant points.
//
// Distances are the exact geom.Dist2 values and every pruning bound is
// rounded conservatively, so the longest edge is bit-identical to that of
// any other exact MST algorithm. Squared lengths that overflow are +Inf;
// if the tree needs one, the result is +Inf.
func SpanningTree(pts []geom.Point, edge func(u, v int, d2 float64)) float64 {
	longest2, _, _ := spanningTree(context.Background(), pts, edge, false)
	return longest2
}

// spanningTree is SpanningTree under ctx: it checks ctx before each band,
// and before each budget of joins where a band is joined a budget at a
// time, and returns ctx.Err() once it is cancelled. With distinct set it stops as soon as
// the nearest-neighbour pass shows two points sharing a position, and
// reports that instead of joining the zero-length pairs.
func spanningTree(ctx context.Context, pts []geom.Point, edge func(u, v int, d2 float64), distinct bool) (longest2 float64, coincident bool, err error) {
	n := len(pts)
	if n < 2 {
		return 0, false, nil
	}
	k := kruskalPool.Get().(*kruskal)
	defer k.release()
	k.edge, k.comps, k.longest, k.budget = edge, n, 0, 8*n+1024
	k.parent, k.comp = resize(k.parent, n), resize(k.comp, n)
	for i := range k.parent {
		k.parent[i] = int32(i)
	}
	k.build(pts)
	hi2, min2 := k.nearestBound(distinct)
	if distinct && min2 == 0 {
		// The pass stopped at a zero nearest-neighbour distance: two
		// points at one position, or two distinct points so close that
		// their d² underflows.
		if hasCoincident(pts) {
			return 0, true, nil
		}
		hi2, min2 = k.nearestBound(false)
	}
	// No pair is closer than the smallest nearest-neighbour distance, so
	// the first band may start just below it; zero-length pairs are
	// joined first.
	lo2, grow := 0.0, bandGrowth
	if min2 > 0 {
		lo2 = math.Nextafter(min2, 0)
	} else {
		for k.comps > 1 {
			if err := ctx.Err(); err != nil {
				return 0, false, err
			}
			if _, ok := k.scan(-1, 0); ok {
				break
			}
		}
	}
	for k.comps > 1 {
		if err := ctx.Err(); err != nil {
			return 0, false, err
		}
		if lo2 == math.MaxFloat64 {
			// Every finite pair is in; the rest overflow to +Inf.
			hi2 = math.Inf(1)
		} else {
			hi2 = math.Min(hi2, math.MaxFloat64)
		}
		if !(hi2 > lo2) {
			hi2 = math.Nextafter(lo2, math.Inf(1))
		}
		found, ok := k.scan(lo2, hi2)
		if !ok {
			if !singleValued(lo2, hi2) {
				hi2 = k.narrow(hi2)
			}
			continue
		}
		if math.IsInf(hi2, 1) {
			break // every pair is in
		}
		// Sparse bands grow ever faster, so a wide gap between groups or
		// a chain of geometrically growing gaps costs few bands; an
		// overshoot is narrowed back.
		if found < k.budget/64 {
			grow = math.Min(grow*grow, 0x1p64)
		} else {
			grow = bandGrowth
		}
		lo2, hi2 = hi2, hi2*grow
	}
	return k.longest, false, nil
}

// hasCoincident reports whether two points share a position. It stops at
// the first repeat, so a set of many copies of one point costs almost
// nothing.
func hasCoincident(pts []geom.Point) bool {
	seen := make(map[geom.Point]struct{}, min(len(pts), 1024))
	for _, p := range pts {
		if _, dup := seen[p]; dup {
			return true
		}
		seen[p] = struct{}{}
	}
	return false
}

// bandGrowth is the ratio of consecutive bands' squared radii (1.25²).
const bandGrowth = 1.5625

// singleValued reports whether the band (lo2, hi2] holds one squared
// length only, so it cannot be narrowed.
func singleValued(lo2, hi2 float64) bool {
	return hi2 == 0 || math.Nextafter(lo2, math.Inf(1)) >= hi2
}

// narrow returns a smaller upper bound for the band (lo2, hi2], which held
// more pairs than the budget: the median squared length of the pairs it
// gathered, or the float below hi2 if half of them lie at hi2. The band
// holds at least two floats, so the result lies in (lo2, hi2). The median
// comes from a quickselect: sorting the gathered pairs doubles the cost of
// a clustered set, whose first band overflows.
func (k *kruskal) narrow(hi2 float64) float64 {
	c, nth := k.cand, len(k.cand)/2
	quickselect(len(c), nth, func(i int) float64 { return c[i].d2 }, func(i, j int) { c[i], c[j] = c[j], c[i] })
	if c[nth].d2 < hi2 {
		return c[nth].d2
	}
	return math.Nextafter(hi2, math.Inf(-1))
}

// quickselect reorders positions [0, n) so that position nth holds the
// element it would hold were they sorted by key, with no larger key
// before it and no smaller one after it (Hoare's selection).
func quickselect(n, nth int, key func(i int) float64, swap func(i, j int)) {
	lo, hi := 0, n-1
	for lo < hi {
		pivot := key(lo + (hi-lo)/2)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				swap(i, j)
				i, j = i+1, j-1
			}
		}
		switch {
		case nth <= j:
			hi = j
		case nth >= i:
			lo = i
		default:
			return
		}
	}
}

// leafSize is the most points a 2-d tree leaf holds.
const leafSize = 8

// kdNode is a node of the 2-d tree: it covers the points idx[lo:hi] inside
// the bounding box [min, max]. Inner nodes have two children, leaves none
// (left < 0). Nodes are stored in preorder, so children follow parents.
type kdNode struct {
	min, max    geom.Point
	lo, hi      int32
	left, right int32
}

// candidate is a pair of points gathered for Kruskal.
type candidate struct {
	d2   float64
	u, v int32
}

// kruskal is the state of one SpanningTree run. Its slices are scratch,
// kept in kruskalPool between runs, so the per-request path allocates
// little once warm.
type kruskal struct {
	edge    func(u, v int, d2 float64)
	tp      []geom.Point // the points in tree order
	idx     []int32      // the index of each point in tree order
	nodes   []kdNode
	parent  []int32 // union-find forest
	comps   int
	longest float64   // d² of the last tree edge
	budget  int       // most pairs one band may gather
	nn      []float64 // per tree position: squared nearest-neighbour distance

	// Per band.
	lo2, hi2 float64
	comp     []int32 // the root of each point when the band began
	uni      []int32 // per node: the root all its points share, or -1
	cand     []candidate
	sorted   []candidate // cand in (d², u, v) order
	bucket   []int32     // counting-sort offsets
	over     bool        // cand exceeded the budget
}

func (k *kruskal) find(x int32) int32 {
	for k.parent[x] != x {
		k.parent[x] = k.parent[k.parent[x]]
		x = k.parent[x]
	}
	return x
}

// join adds the tree edge (u, v) unless u and v are already connected.
func (k *kruskal) join(u, v int32, d2 float64) {
	ru, rv := k.find(u), k.find(v)
	if ru == rv {
		return
	}
	k.parent[ru] = rv
	k.comps--
	k.longest = d2
	if k.edge != nil {
		k.edge(int(u), int(v), d2)
	}
}

var kruskalPool = sync.Pool{New: func() any { return new(kruskal) }}

// maxPooledPoints bounds the runs whose scratch (about 300 bytes a point)
// goes back to the pool, so one outsized request does not pin its memory.
const maxPooledPoints = 1 << 13

// release returns k to the pool unless its scratch is outsized.
func (k *kruskal) release() {
	k.edge = nil
	if cap(k.tp) <= maxPooledPoints {
		kruskalPool.Put(k)
	}
}

// resize returns s with length n, reusing its backing array if it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// build indexes the points in a 2-d tree, splitting each node at the
// median of its box's longer side.
func (k *kruskal) build(pts []geom.Point) {
	n := len(pts)
	k.tp = append(k.tp[:0], pts...)
	k.idx = resize(k.idx, n)
	for i := range k.idx {
		k.idx[i] = int32(i)
	}
	k.nodes = k.nodes[:0]
	min, max := bounds(k.tp)
	k.split(0, int32(n), min, max)
	k.uni = resize(k.uni, len(k.nodes))
}

// bounds returns the corners of the bounding box of pts.
func bounds(pts []geom.Point) (min, max geom.Point) {
	min, max = pts[0], pts[0]
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
	return min, max
}

// split adds the node over tree positions [lo, hi), whose points lie in
// the box [min, max], and returns its id. Leaves get their exact bounding
// box, inner nodes the union of their children's.
func (k *kruskal) split(lo, hi int32, min, max geom.Point) int32 {
	id := int32(len(k.nodes))
	k.nodes = append(k.nodes, kdNode{lo: lo, hi: hi, left: -1, right: -1})
	if hi-lo <= leafSize {
		k.nodes[id].min, k.nodes[id].max = bounds(k.tp[lo:hi])
		return id
	}
	mid := lo + (hi-lo)/2
	byX := max.X-min.X >= max.Y-min.Y
	tp, idx := k.tp[lo:hi], k.idx[lo:hi]
	key := func(i int) float64 { return tp[i].Y }
	if byX {
		key = func(i int) float64 { return tp[i].X }
	}
	quickselect(len(tp), int(mid-lo), key, func(i, j int) {
		tp[i], tp[j] = tp[j], tp[i]
		idx[i], idx[j] = idx[j], idx[i]
	})
	lmax, rmin := max, min
	if byX {
		lmax.X, rmin.X = k.tp[mid].X, k.tp[mid].X
	} else {
		lmax.Y, rmin.Y = k.tp[mid].Y, k.tp[mid].Y
	}
	l := k.split(lo, mid, min, lmax)
	r := k.split(mid, hi, rmin, max)
	nl, nr := &k.nodes[l], &k.nodes[r]
	k.nodes[id] = kdNode{
		min:  geom.Pt(math.Min(nl.min.X, nr.min.X), math.Min(nl.min.Y, nr.min.Y)),
		max:  geom.Pt(math.Max(nl.max.X, nr.max.X), math.Max(nl.max.Y, nr.max.Y)),
		lo:   lo,
		hi:   hi,
		left: l, right: r,
	}
	return id
}

// gap2 returns a lower bound on the squared distance between any point in
// box a and any point in box b. Rounding is monotone, so the bound never
// exceeds the geom.Dist2 of such a pair.
func gap2(amin, amax, bmin, bmax geom.Point) float64 {
	return sq(gap(amin.X, amax.X, bmin.X, bmax.X)) + sq(gap(amin.Y, amax.Y, bmin.Y, bmax.Y))
}

// gap returns the distance between the intervals [alo, ahi] and [blo, bhi].
func gap(alo, ahi, blo, bhi float64) float64 {
	switch {
	case alo > bhi:
		return alo - bhi
	case blo > ahi:
		return blo - ahi
	}
	return 0
}

func sq(x float64) float64 { return x * x }

// nearestBound returns the largest squared nearest-neighbour distance, a
// lower bound on the squared longest tree edge, and the smallest one. With
// stopAtZero set it returns as soon as the smallest reads 0.
func (k *kruskal) nearestBound(stopAtZero bool) (max2, min2 float64) {
	k.nn = resize(k.nn, len(k.tp))
	for i := range k.nn {
		k.nn[i] = math.Inf(1)
	}
	min2 = math.Inf(1)
	for id := range k.nodes {
		leaf := &k.nodes[id]
		if leaf.left >= 0 {
			continue
		}
		nn := k.nn[leaf.lo:leaf.hi]
		k.nearest(leaf, 0, nn, math.Inf(1))
		for _, d2 := range nn {
			max2, min2 = math.Max(max2, d2), math.Min(min2, d2)
		}
		if stopAtZero && min2 == 0 {
			break
		}
	}
	return max2, min2
}

// nearest lowers nn[j], for every point j of leaf, to the squared distance
// to the nearest other point under node, and returns the largest nn entry.
// Nodes no closer than bound, the largest entry so far, are skipped.
func (k *kruskal) nearest(leaf *kdNode, node int32, nn []float64, bound float64) float64 {
	nd := &k.nodes[node]
	if gap2(leaf.min, leaf.max, nd.min, nd.max) >= bound {
		return bound
	}
	if nd.left >= 0 {
		l, r := nd.left, nd.right
		if gap2(leaf.min, leaf.max, k.nodes[r].min, k.nodes[r].max) < gap2(leaf.min, leaf.max, k.nodes[l].min, k.nodes[l].max) {
			l, r = r, l
		}
		return k.nearest(leaf, r, nn, k.nearest(leaf, l, nn, bound))
	}
	bound = 0
	for x := range nn {
		j := leaf.lo + int32(x)
		p, d := k.tp[j], nn[x]
		if gap2(p, p, nd.min, nd.max) >= d {
			bound = math.Max(bound, d)
			continue
		}
		for m := nd.lo; m < nd.hi; m++ {
			if d2 := geom.Dist2(p, k.tp[m]); d2 < d && m != j {
				d = d2
			}
		}
		nn[x] = d
		bound = math.Max(bound, d)
	}
	return bound
}

// scan feeds Kruskal the pairs with d² in (lo2, hi2] whose endpoints were
// not connected when the scan began, and returns how many it gathered.
// When they exceed the budget it returns false, having joined nothing; a
// band holding one squared length cannot be narrowed, so there it joins
// the pairs gathered so far, and the caller scans the band again.
func (k *kruskal) scan(lo2, hi2 float64) (int, bool) {
	for i := range k.comp {
		k.comp[i] = k.find(int32(i))
	}
	for id := len(k.nodes) - 1; id >= 0; id-- {
		nd := &k.nodes[id]
		if nd.left >= 0 {
			if k.uni[nd.left] == k.uni[nd.right] {
				k.uni[id] = k.uni[nd.left]
			} else {
				k.uni[id] = -1
			}
			continue
		}
		c := k.comp[k.idx[nd.lo]]
		for _, i := range k.idx[nd.lo+1 : nd.hi] {
			if k.comp[i] != c {
				c = -1
				break
			}
		}
		k.uni[id] = c
	}

	k.lo2, k.hi2 = lo2, hi2
	k.cand, k.over = k.cand[:0], false
	found := k.visit(0, 0)
	single := singleValued(lo2, hi2)
	if k.over && !single {
		return found, false
	}
	k.joinInOrder(single)
	return found, !k.over
}

// joinInOrder joins the gathered candidates in (d², u, v) order. Unless
// they share one squared length, a counting sort on d² first spreads them
// over about one bucket per two candidates (d² is near uniform within a
// band, since pair counts grow with d), and only the buckets are sorted.
func (k *kruskal) joinInOrder(single bool) {
	if single {
		sortCandidates(k.cand)
		for _, c := range k.cand {
			k.join(c.u, c.v, c.d2)
		}
		return
	}
	nb := len(k.cand)/2 + 1
	k.bucket = resize(k.bucket, nb+1)
	start := k.bucket
	clear(start)
	// Monotone in d2 and within [0, nb-1]: d2 - lo2 ≤ hi2 - lo2.
	w := k.hi2 - k.lo2
	at := func(d2 float64) int { return min(int(float64(nb)*((d2-k.lo2)/w)), nb-1) }
	for _, c := range k.cand {
		start[at(c.d2)+1]++
	}
	for b := 1; b <= nb; b++ {
		start[b] += start[b-1]
	}
	k.sorted = resize(k.sorted, len(k.cand))
	for _, c := range k.cand {
		b := at(c.d2)
		k.sorted[start[b]] = c
		start[b]++
	}
	lo := 0
	for b := 0; b < nb && k.comps > 1; b++ {
		run := k.sorted[lo:start[b]]
		lo = int(start[b])
		sortCandidates(run)
		for _, c := range run {
			k.join(c.u, c.v, c.d2)
		}
	}
}

func sortCandidates(c []candidate) {
	slices.SortFunc(c, func(a, b candidate) int {
		if before(a, b) {
			return -1
		}
		return 1
	})
}

// before orders candidates by (d², u, v), a strict total order.
func before(a, b candidate) bool {
	if a.d2 != b.d2 {
		return a.d2 < b.d2
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// visit handles the band's pairs with one point under node a and the other
// under node b (a ≤ b; a == b visits the pairs within one node), and
// returns how many candidates it gave.
func (k *kruskal) visit(a, b int32) int {
	if k.over {
		return 0
	}
	ua, ub := k.uni[a], k.uni[b]
	if ua >= 0 && ua == ub {
		return 0
	}
	na, nb := &k.nodes[a], &k.nodes[b]
	if a != b && gap2(na.min, na.max, nb.min, nb.max) > k.hi2 {
		return 0
	}
	// Against a node whose points share one component, a point needs only
	// its nearest member: every other pair joins the same two components.
	// Search the larger such node.
	if ua >= 0 && (ub < 0 || nb.hi-nb.lo < na.hi-na.lo) {
		a, b, na, nb, ub = b, a, nb, na, ua
	}
	switch {
	case a == b && na.left >= 0:
		return k.visit(na.left, na.left) + k.visit(na.left, na.right) + k.visit(na.right, na.right)
	case a != b && ub >= 0:
		if na.left >= 0 {
			return k.visit(na.left, b) + k.visit(na.right, b)
		}
		found := 0
		for j := na.lo; j < na.hi; j++ {
			if k.comp[k.idx[j]] != ub {
				best := candidate{math.Inf(1), math.MaxInt32, math.MaxInt32}
				k.closest(j, b, &best)
				found += k.emit(best)
			}
		}
		return found
	case na.left >= 0 && (nb.left < 0 || na.hi-na.lo >= nb.hi-nb.lo):
		return k.visit(na.left, b) + k.visit(na.right, b)
	case nb.left >= 0:
		return k.visit(a, nb.left) + k.visit(a, nb.right)
	}
	found := 0
	for j := na.lo; j < na.hi; j++ {
		p, m := k.tp[j], nb.lo
		if a == b {
			m = j + 1
		}
		if gap2(p, p, nb.min, nb.max) > k.hi2 {
			continue
		}
		for ; m < nb.hi; m++ {
			if d2 := geom.Dist2(p, k.tp[m]); d2 > k.lo2 && d2 <= k.hi2 && k.comp[k.idx[j]] != k.comp[k.idx[m]] {
				found += k.emit(k.candidate(j, m, d2))
			}
		}
	}
	return found
}

// candidate returns the pair at tree positions j and m as a candidate.
func (k *kruskal) candidate(j, m int32, d2 float64) candidate {
	u, v := k.idx[j], k.idx[m]
	if u > v {
		u, v = v, u
	}
	return candidate{d2, u, v}
}

// closest lowers best to the nearest of the band's pairs between tree
// position j and the points under node, all of which lie in one other
// component. Among equally near points it keeps the first it meets: they
// join the same two components at the same length.
func (k *kruskal) closest(j, node int32, best *candidate) {
	nd := &k.nodes[node]
	p := k.tp[j]
	found := best.u != math.MaxInt32
	if g := gap2(p, p, nd.min, nd.max); g > k.hi2 || found && g >= best.d2 {
		return
	}
	if nd.left < 0 {
		for m := nd.lo; m < nd.hi; m++ {
			if d2 := geom.Dist2(p, k.tp[m]); d2 <= k.hi2 && (!found || d2 < best.d2) {
				found = true
				*best = k.candidate(j, m, d2)
			}
		}
		return
	}
	l, r := nd.left, nd.right
	if gap2(p, p, k.nodes[r].min, k.nodes[r].max) < gap2(p, p, k.nodes[l].min, k.nodes[l].max) {
		l, r = r, l
	}
	k.closest(j, l, best)
	k.closest(j, r, best)
}

// emit gathers c and returns 1; a placeholder with u = MaxInt32 is no pair
// and returns 0.
func (k *kruskal) emit(c candidate) int {
	if c.u == math.MaxInt32 {
		return 0
	}
	if k.cand = append(k.cand, c); len(k.cand) > k.budget {
		k.over = true
	}
	return 1
}
