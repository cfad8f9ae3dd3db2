// Package interference implements the pairwise (protocol-model) wireless
// interference model of Section 2.4: interference regions with a guard zone
// Δ, interference sets I(e), the interference number of a topology, and the
// interference-aware schedule emulation behind Theorem 2.8.
package interference

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/spatial"
)

// Model is the pairwise interference model with guard-zone parameter Δ > 0.
// A transmission X→Y is received iff every other simultaneous sender X' (and
// receiver Y', since exchanges are bidirectional) keeps distance
// (1+Δ)|X'Y'| from both X and Y.
type Model struct {
	// Delta is the protocol guard zone Δ; must be positive.
	Delta float64
	// Workers caps the fan-out of Sets' per-edge discovery pass: values
	// > 1 split the edges across that many goroutines. The output is
	// deterministic and independent of the worker count (chunks are
	// re-joined in edge order); 0 or 1 keeps the pass sequential.
	Workers int
}

// DefaultDelta is the guard zone used by experiments unless swept.
const DefaultDelta = 0.5

// NewModel returns a Model, panicking on a non-positive Δ (the paper
// requires Δ > 0).
func NewModel(delta float64) Model {
	if delta <= 0 {
		panic(fmt.Sprintf("interference: guard zone Δ=%v must be positive", delta))
	}
	return Model{Delta: delta}
}

// Radius returns the interference-region radius (1+Δ)·|uv| of an edge with
// endpoints u and v.
func (m Model) Radius(pts []geom.Point, e graph.Edge) float64 {
	return (1 + m.Delta) * geom.Dist(pts[e.U], pts[e.V])
}

// RegionContains reports whether point p lies in the interference region
// IR(e) = C(u, (1+Δ)|uv|) ∪ C(v, (1+Δ)|uv|) of edge e (open disks).
func (m Model) RegionContains(pts []geom.Point, e graph.Edge, p geom.Point) bool {
	r := m.Radius(pts, e)
	return geom.Dist2(pts[e.U], p) < r*r || geom.Dist2(pts[e.V], p) < r*r
}

// InterferesDirected reports whether a interferes with b: IR(a) contains an
// endpoint of b.
func (m Model) InterferesDirected(pts []geom.Point, a, b graph.Edge) bool {
	return m.RegionContains(pts, a, pts[b.U]) || m.RegionContains(pts, a, pts[b.V])
}

// Interferes reports the symmetric relation of Section 2.4: a ∈ I(b) iff a
// interferes with b or b interferes with a. Identical edges trivially
// interfere.
func (m Model) Interferes(pts []geom.Point, a, b graph.Edge) bool {
	return m.InterferesDirected(pts, a, b) || m.InterferesDirected(pts, b, a)
}

// pair records a directed interference discovery: edge i reaches edge j.
type pair struct{ i, j int32 }

// setsScratch holds every reusable buffer of a Sets call. Instances cycle
// through a sync.Pool, so steady-state calls only allocate their returned
// result (one flat backing array plus the slice-of-slices header).
type setsScratch struct {
	grid     spatial.Grid
	incStart []int32 // incident-edge CSR over nodes
	incIdx   []int32
	cursors  []int32
	seen     []int32 // per-edge stamps of the sequential discovery pass
	pairs    []pair  // directed discoveries, edge-major order
	fwdStart []int32 // run boundaries of pairs per source edge
	revStart []int32 // CSR of reversed discoveries
	revIdx   []int32
	wseen    [][]int32 // per-worker stamps (parallel path)
	wpairs   [][]pair  // per-worker discovery buffers
}

var setsPool = sync.Pool{New: func() any { return new(setsScratch) }}

// scratchInt32 returns a zeroed int32 slice of length n, reusing the
// backing array when possible.
func scratchInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Sets computes the interference set I(e) of every edge: Sets(...)[i] lists
// the indices j ≠ i of edges interfering with edges[i] (symmetric relation,
// ascending order). The computation uses a spatial grid over nodes: edge a
// reaches exactly the edges incident to nodes inside IR(a), so collecting
// those per edge and symmetrizing yields I(e) in
// O(m · avg-region-population).
//
// The hot path is allocation-free in steady state: incident lists, the
// grid, discovery buffers and the symmetrization run in pooled flat CSR
// scratch (no per-edge maps or slices), and the result is carved out of a
// single backing array. With Workers > 1 the discovery pass fans out over
// contiguous edge chunks; the output is bit-identical to the sequential
// one.
func (m Model) Sets(pts []geom.Point, edges []graph.Edge) [][]int32 {
	nEdges := len(edges)
	res := make([][]int32, nEdges)
	if nEdges == 0 {
		return res
	}
	sc := setsPool.Get().(*setsScratch)
	defer setsPool.Put(sc)
	n := len(pts)

	// Incident-edge CSR over nodes.
	sc.incStart = scratchInt32(sc.incStart, n+1)
	incStart := sc.incStart
	for _, e := range edges {
		incStart[e.U+1]++
		incStart[e.V+1]++
	}
	for v := 0; v < n; v++ {
		incStart[v+1] += incStart[v]
	}
	if cap(sc.incIdx) < 2*nEdges {
		sc.incIdx = make([]int32, 2*nEdges)
	}
	incIdx := sc.incIdx[:2*nEdges]
	sc.cursors = scratchInt32(sc.cursors, n)
	cursors := sc.cursors
	copy(cursors, incStart[:n])
	for i, e := range edges {
		incIdx[cursors[e.U]] = int32(i)
		cursors[e.U]++
		incIdx[cursors[e.V]] = int32(i)
		cursors[e.V]++
	}
	sc.grid.Fill(pts, 0)

	// Directed discovery: every (i, j) with j incident to a node strictly
	// inside IR(i), in edge-major order.
	pairs := sc.pairs[:0]
	workers := m.Workers
	if workers > nEdges {
		workers = nEdges
	}
	if workers <= 1 {
		sc.seen = scratchInt32(sc.seen, nEdges)
		pairs = m.discover(pts, edges, sc, sc.seen, pairs, 0, nEdges)
	} else {
		for len(sc.wseen) < workers {
			sc.wseen = append(sc.wseen, nil)
			sc.wpairs = append(sc.wpairs, nil)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*nEdges/workers, (w+1)*nEdges/workers
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				sc.wseen[w] = scratchInt32(sc.wseen[w], nEdges)
				sc.wpairs[w] = m.discover(pts, edges, sc, sc.wseen[w], sc.wpairs[w][:0], lo, hi)
			}(w, lo, hi)
		}
		wg.Wait()
		// Re-join in chunk order: the concatenation equals the sequential
		// discovery sequence, making the output worker-count independent.
		for w := 0; w < workers; w++ {
			pairs = append(pairs, sc.wpairs[w]...)
		}
	}
	sc.pairs = pairs

	// Forward run boundaries (pairs is edge-major), with each run sorted
	// by target for the merge below.
	sc.fwdStart = scratchInt32(sc.fwdStart, nEdges+1)
	fwdStart := sc.fwdStart
	for _, p := range pairs {
		fwdStart[p.i+1]++
	}
	for i := 0; i < nEdges; i++ {
		fwdStart[i+1] += fwdStart[i]
	}
	for i := 0; i < nEdges; i++ {
		run := pairs[fwdStart[i]:fwdStart[i+1]]
		slices.SortFunc(run, func(a, b pair) int { return cmp.Compare(a.j, b.j) })
	}

	// Reverse CSR: revIdx[revStart[j]:revStart[j+1]] lists the edges that
	// discovered j. Filling in pair order keeps each list ascending.
	sc.revStart = scratchInt32(sc.revStart, nEdges+1)
	revStart := sc.revStart
	for _, p := range pairs {
		revStart[p.j+1]++
	}
	for i := 0; i < nEdges; i++ {
		revStart[i+1] += revStart[i]
	}
	if cap(sc.revIdx) < len(pairs) {
		sc.revIdx = make([]int32, len(pairs))
	}
	revIdx := sc.revIdx[:len(pairs)]
	sc.cursors = scratchInt32(sc.cursors, nEdges)
	cursors = sc.cursors
	copy(cursors, revStart[:nEdges])
	for _, p := range pairs {
		revIdx[cursors[p.j]] = p.i
		cursors[p.j]++
	}

	// Symmetrize: I(i) = sorted union of i's discoveries and the edges
	// that discovered i, deduplicated by a two-pointer merge into one flat
	// backing array. Each pair contributes at most one forward and one
	// reverse entry, so 2·len(pairs) bounds the total and the appends
	// below never reallocate (result subslices stay valid).
	flat := make([]int32, 0, 2*len(pairs))
	for i := 0; i < nEdges; i++ {
		x, xEnd := fwdStart[i], fwdStart[i+1]
		y, yEnd := revStart[i], revStart[i+1]
		base := len(flat)
		for x < xEnd || y < yEnd {
			var take int32
			switch {
			case x >= xEnd:
				take = revIdx[y]
				y++
			case y >= yEnd:
				take = pairs[x].j
				x++
			case pairs[x].j < revIdx[y]:
				take = pairs[x].j
				x++
			case pairs[x].j > revIdx[y]:
				take = revIdx[y]
				y++
			default:
				take = pairs[x].j
				x++
				y++
			}
			flat = append(flat, take)
		}
		res[i] = flat[base:len(flat):len(flat)]
	}
	return res
}

// discover appends the directed interference pairs of edges[lo:hi] to
// pairs: (i, j) for every j ≠ i incident to a node strictly inside IR(i).
// seen must be zeroed, len(edges) long, and private to the caller; the
// scratch's grid and incident CSR are shared read-only, so discover is
// safe to run concurrently over disjoint ranges.
func (m Model) discover(pts []geom.Point, edges []graph.Edge, sc *setsScratch, seen []int32, pairs []pair, lo, hi int) []pair {
	incStart, incIdx := sc.incStart, sc.incIdx
	for i := lo; i < hi; i++ {
		e := edges[i]
		r := (1 + m.Delta) * geom.Dist(pts[e.U], pts[e.V])
		r2 := r * r
		stamp := int32(i) + 1
		for _, c := range [2]geom.Point{pts[e.U], pts[e.V]} {
			sc.grid.ForEachWithin(c, r, func(v int) {
				if geom.Dist2(c, pts[v]) >= r2 {
					return // boundary: open disk
				}
				for _, j := range incIdx[incStart[v]:incStart[v+1]] {
					if int(j) == i || seen[j] == stamp {
						continue
					}
					seen[j] = stamp
					pairs = append(pairs, pair{int32(i), j})
				}
			})
		}
	}
	return pairs
}

// Number returns the interference number of the edge set: max_e |I(e)|.
// An empty edge set has interference number 0.
func (m Model) Number(pts []geom.Point, edges []graph.Edge) int {
	max := 0
	for _, s := range m.Sets(pts, edges) {
		if len(s) > max {
			max = len(s)
		}
	}
	return max
}

// NumberSampled estimates the interference number by computing |I(e)|
// exactly for an evenly spaced sample of the edges (all edges when sample
// ≤ 0 or ≥ len(edges), in which case the result equals Number). Because the
// true value is a maximum, the sampled value is a lower bound. Each sampled
// edge is checked against every edge directly, so the cost is
// O(sample · m) with no set materialization.
func (m Model) NumberSampled(pts []geom.Point, edges []graph.Edge, sample int) int {
	if len(edges) == 0 {
		return 0
	}
	if sample <= 0 || sample > len(edges) {
		sample = len(edges)
	}
	max := 0
	for k := 0; k < sample; k++ {
		i := k * len(edges) / sample
		cnt := 0
		for j := range edges {
			if j != i && m.Interferes(pts, edges[i], edges[j]) {
				cnt++
			}
		}
		if cnt > max {
			max = cnt
		}
	}
	return max
}

// CompatibleSet reports whether the given edges are pairwise
// non-interfering, i.e. they could be activated simultaneously. O(k²).
func (m Model) CompatibleSet(pts []geom.Point, active []graph.Edge) bool {
	for i := range active {
		for j := i + 1; j < len(active); j++ {
			if m.Interferes(pts, active[i], active[j]) {
				return false
			}
		}
	}
	return true
}

// GreedyIndependent selects a maximal subset of candidate edges (by index
// order) that is pairwise non-interfering. It is the elementary scheduler
// used by the Theorem 2.8 emulation and by tests constructing
// non-interfering adversary rounds.
func (m Model) GreedyIndependent(pts []geom.Point, candidates []graph.Edge) []graph.Edge {
	var chosen []graph.Edge
	for _, e := range candidates {
		ok := true
		for _, c := range chosen {
			if m.Interferes(pts, e, c) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, e)
		}
	}
	return chosen
}
