package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"toporouting/internal/broadcast"
	"toporouting/internal/graph"
	"toporouting/internal/interference"
	"toporouting/internal/pointset"
	"toporouting/internal/proximity"
	"toporouting/internal/routing"
	"toporouting/internal/stats"
	"toporouting/internal/stretch"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// E16Resilience is an ablation the paper motivates but does not evaluate:
// ad hoc networks lose nodes (battery, mobility, failure). It removes a
// random fraction of nodes and measures how often each topology's
// surviving induced subgraph stays connected (relative to the surviving
// G*, which is the best any subgraph can do). Redundancy ranking expected:
// G* ≥ N ≥ Gabriel ≥ EMST.
func E16Resilience(sc Scale) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "Node-failure resilience of topologies (ablation)",
		Claim:   "extension: surviving-subgraph connectivity under random node failures",
		Columns: []string{"topology", "fail%", "connected-frac", "vs-G*"},
	}
	n := sc.Sizes[len(sc.Sizes)-1]
	if n > 400 {
		n = 400
	}
	const trials = 30
	for _, failFrac := range []float64{0.05, 0.10, 0.20} {
		// survived[g] counts trials whose induced subgraph is connected,
		// restricted to trials where the surviving G* is connected.
		names := []string{"ThetaALG-N", "Gabriel", "EMST"}
		counts := map[string]int{}
		gstarOK := 0
		for s := 0; s < sc.Seeds; s++ {
			pts := pointset.Generate(pointset.KindUniform, n, int64(s))
			dRange := unitdisk.DefaultRange(pts)
			top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: dRange})
			gstar := unitdisk.Build(pts, dRange)
			graphs := map[string]*graph.Graph{
				"ThetaALG-N": top.N,
				"Gabriel":    proximity.Gabriel(pts, dRange),
				"EMST":       proximity.EMST(pts),
			}
			rng := rand.New(rand.NewSource(int64(s) + 777))
			for trial := 0; trial < trials; trial++ {
				alive := make([]bool, n)
				for i := range alive {
					alive[i] = true
				}
				for k := 0; k < int(failFrac*float64(n)); k++ {
					alive[rng.Intn(n)] = false
				}
				if !inducedConnected(gstar, alive) {
					continue // even G* split: no subgraph can survive
				}
				gstarOK++
				for name, g := range graphs {
					if inducedConnected(g, alive) {
						counts[name]++
					}
				}
			}
		}
		if gstarOK == 0 {
			continue
		}
		for _, name := range names {
			frac := float64(counts[name]) / float64(gstarOK)
			t.AddRow(name, fmt.Sprintf("%.0f", failFrac*100), f3(frac), f3(frac))
		}
	}
	t.Notes = append(t.Notes,
		"N retains most of G*'s failure resilience at a fraction of the edges; the MST splits almost always (every node is a cut vertex)")
	return t
}

// inducedConnected reports whether the subgraph induced by alive nodes is
// connected (trivially true with ≤ 1 alive node).
func inducedConnected(g *graph.Graph, alive []bool) bool {
	start := -1
	total := 0
	for v, a := range alive {
		if a {
			total++
			if start < 0 {
				start = v
			}
		}
	}
	if total <= 1 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int32{int32(start)}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(int(u)) {
			if alive[w] && !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == total
}

// E17ThetaSweep is the design-knob ablation: the cone angle θ trades the
// degree bound 4π/θ against stretch and interference. It sweeps θ from
// π/3 down to π/18 on a fixed instance family.
func E17ThetaSweep(sc Scale) *Table {
	t := &Table{
		ID:      "E17",
		Title:   "Ablation: the cone angle θ",
		Claim:   "design trade-off: degree bound 4π/θ vs stretch vs interference",
		Columns: []string{"theta", "sectors", "maxdeg", "bound", "edges", "energy-stretch", "dist-stretch", "I"},
	}
	n := sc.Sizes[len(sc.Sizes)-1]
	if n > 800 {
		n = 800
	}
	model := interference.NewModel(interference.DefaultDelta)
	for _, div := range []int{3, 4, 6, 9, 12, 18} {
		theta := math.Pi / float64(div)
		var maxDeg, bound, edges, iNum float64
		var es, ds []float64
		for s := 0; s < sc.Seeds; s++ {
			top, pts, dRange := buildInstance(pointset.KindUniform, n, int64(s), theta)
			gstar := unitdisk.Build(pts, dRange)
			src := sources(n)
			e := stretch.Evaluate(top.N, gstar, pts, stretch.Energy, stretch.Options{Sources: src})
			dd := stretch.Evaluate(top.N, gstar, pts, stretch.Distance, stretch.Options{Sources: src})
			es = append(es, e.Max)
			ds = append(ds, dd.Max)
			maxDeg += float64(top.N.MaxDegree())
			bound = float64(top.DegreeBound())
			edges += float64(top.N.NumEdges())
			iNum += float64(model.Number(pts, top.N.Edges()))
		}
		k := float64(sc.Seeds)
		t.AddRow(fmt.Sprintf("pi/%d", div), d(2*div), f2(maxDeg/k), d(int(bound)), f2(edges/k),
			f2(stats.Summarize(es).Max), f2(stats.Summarize(ds).Max), f2(iNum/k))
	}
	t.Notes = append(t.Notes,
		"smaller θ buys lower stretch at the price of more sectors (higher degree bound and edge count); the default π/6 sits at the knee")
	return t
}

// E18ProtocolCost measures the medium-access cost of running ΘALG itself:
// the paper notes its three rounds "may take a variable amount of time due
// to the interference and confliction". Using a density-adaptive slotted
// random-access scheme under the pairwise model, it reports the slots each
// logical round needs as n grows.
func E18ProtocolCost(sc Scale) *Table {
	t := &Table{
		ID:      "E18",
		Title:   "Contention cost of the ΘALG protocol rounds",
		Claim:   "Section 2.1: three logical rounds, each needing multiple interference-limited slots",
		Columns: []string{"n", "position slots", "neighborhood slots", "connection slots", "collisions"},
	}
	for _, n := range sc.Sizes {
		if n > 800 {
			continue // O(n²) contention precompute guard
		}
		var r1, r2, r3, coll float64
		for s := 0; s < sc.Seeds; s++ {
			top, _, _ := buildInstance(pointset.KindUniform, n, int64(s), math.Pi/6)
			rounds := broadcast.ThetaProtocolCost(top, broadcast.Config{
				Delta:    interference.DefaultDelta,
				MaxSlots: 1 << 20,
				Rng:      rand.New(rand.NewSource(int64(s) + 31)),
			})
			r1 += float64(rounds[0].Slots)
			r2 += float64(rounds[1].Slots)
			r3 += float64(rounds[2].Slots)
			coll += float64(rounds[0].Collisions + rounds[1].Collisions + rounds[2].Collisions)
		}
		k := float64(sc.Seeds)
		t.AddRow(d(n), f2(r1/k), f2(r2/k), f2(r3/k), f2(coll/k))
	}
	t.Notes = append(t.Notes,
		"the Position round (full power, every neighbor) dominates; slot counts grow with local density, matching the paper's caveat that 'rounds' are not single time steps")
	return t
}

// E19ControlTraffic quantifies the practical remark of Section 3.2: "we
// can reduce the amount of control information exchange" for buffer
// heights. Nodes re-advertise a height only after it drifts by more than
// the quantization K; decisions then use stale remote heights. The sweep
// reports control messages and delivered throughput per K on a sustained
// sink workload.
func E19ControlTraffic(sc Scale) *Table {
	t := &Table{
		ID:      "E19",
		Title:   "Control-traffic reduction via height quantization",
		Claim:   "Section 3.2 remark: fewer height exchanges at modest throughput cost",
		Columns: []string{"quantization", "control msgs", "delivered", "vs-exact"},
	}
	n := 100
	steps := sc.Steps * 4
	top, _, _ := buildInstance(pointset.KindUniform, n, 3, math.Pi/6)
	var active []routing.ActiveEdge
	for _, e := range top.N.Edges() {
		active = append(active, routing.ActiveEdge{U: e.U, V: e.V})
	}
	run := func(q int) (int64, int64) {
		b := routing.New(n, routing.Params{T: 0, Gamma: 0, BufferSize: 50, HeightQuantization: q})
		rng := rand.New(rand.NewSource(3))
		for step := 0; step < steps; step++ {
			var inj []routing.Injection
			if step < steps*3/4 {
				inj = []routing.Injection{
					{Node: rng.Intn(n), Dest: 7, Count: 1},
					{Node: rng.Intn(n), Dest: n - 5, Count: 1},
				}
			}
			b.Step(active, inj)
		}
		return b.ControlMessages(), b.Delivered()
	}
	_, exact := run(0)
	for _, q := range []int{1, 2, 4, 8, 16} {
		msgs, delivered := run(q)
		ratio := 0.0
		if exact > 0 {
			ratio = float64(delivered) / float64(exact)
		}
		t.AddRow(d(q), d(int(msgs)), d(int(delivered)), f3(ratio))
	}
	t.AddRow("exact", "-", d(int(exact)), "1.000")
	t.Notes = append(t.Notes,
		"quantization K slashes height-exchange traffic roughly ∝ 1/K while throughput degrades gracefully — the paper's practical refinement")
	return t
}
