package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"toporouting/internal/adversary"
	"toporouting/internal/pointset"
	"toporouting/internal/routing"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// E7BalancingCompetitive validates Theorem 3.1: sweeping the online buffer
// size (the theorem's ε knob — larger buffers mean smaller ε), the
// (T,γ)-balancing algorithm's delivered fraction approaches 1 while its
// average cost stays within a constant factor of the adversary's feasible
// schedule. Three adversaries: the saturated line, the moving-bottleneck
// wave, and multi-commodity traffic on a ΘALG topology.
func E7BalancingCompetitive(sc Scale) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "(T,γ)-balancing vs adversarial feasible schedules",
		Claim:   "Theorem 3.1: (1−ε, O(L̄/ε), O(1/ε))-competitive throughput/buffer/cost",
		Columns: []string{"adversary", "buffer", "throughput", "cost-ratio", "dropped", "queued"},
	}
	nodes := 8
	steps := sc.Steps
	buffers := []int{2, 5, 10, 25, 60}

	for _, buf := range buffers {
		scn := adversary.Path(adversary.PathConfig{Nodes: nodes, Steps: steps, Rate: 1, EdgeCost: 1, DrainSteps: steps / 4})
		b := routing.New(scn.NumNodes, routing.Params{T: 0, Gamma: 0, BufferSize: buf})
		rs := adversary.Play(b, scn)
		t.AddRow(scn.Name, d(buf), f3(rs.Throughput), f2(rs.CostRatio), d(int(rs.Dropped)), d(rs.Queued))
	}
	for _, buf := range buffers {
		scn := adversary.Path(adversary.PathConfig{Nodes: nodes, Steps: steps, Rate: 1, EdgeCost: 1, Wave: 3, DrainSteps: steps / 2})
		b := routing.New(scn.NumNodes, routing.Params{T: 0, Gamma: 0, BufferSize: buf})
		rs := adversary.Play(b, scn)
		t.AddRow(scn.Name, d(buf), f3(rs.Throughput), f2(rs.CostRatio), d(int(rs.Dropped)), d(rs.Queued))
	}
	// Multi-commodity on a ΘALG topology with sink-concentrated load.
	pts := pointset.Generate(pointset.KindUniform, 50, 7)
	dR := unitdisk.DefaultRange(pts)
	top := topology.BuildTheta(pts, topology.Config{Theta: math.Pi / 6, Range: dR})
	sinks := []int{3, 17, 42}
	for _, buf := range []int{10, 30, 100, 200} {
		scn := adversary.MultiCommodity(adversary.MultiCommodityConfig{
			Graph:      top.N,
			Cost:       top.EnergyCost(2),
			Packets:    steps * 5,
			Horizon:    steps / 2,
			DrainSteps: steps * 2,
			Rng:        rand.New(rand.NewSource(7)),
			Pairs:      func(r *rand.Rand) (int, int) { return r.Intn(50), sinks[r.Intn(3)] },
		})
		gamma := 0.5 * scn.Opt.AvgPathLen / scn.Opt.AvgCost
		b := routing.New(scn.NumNodes, routing.Params{T: 0, Gamma: gamma, BufferSize: buf})
		rs := adversary.Play(b, scn)
		t.AddRow(scn.Name, d(buf), f3(rs.Throughput), f2(rs.CostRatio), d(int(rs.Dropped)), d(rs.Queued))
	}
	t.Notes = append(t.Notes,
		"throughput rises toward 1 as buffers grow (ε shrinks); cost ratio stays a bounded constant — the Theorem 3.1 trade-off")
	return t
}

// E7bCostAwareness isolates the γ mechanism of Theorem 3.1 on the
// cost-varying adversary: with alternating cheap/dear steps, a γ-aware
// balancer matches the adversary's cost while a cost-blind one overpays.
func E7bCostAwareness(sc Scale) *Table {
	t := &Table{
		ID:      "E7b",
		Title:   "Cost-awareness of γ on the alternating-cost adversary",
		Claim:   "Theorem 3.1's γ term: average cost within O(1/ε) of OPT",
		Columns: []string{"gamma", "throughput", "avg-cost", "opt-cost", "cost-ratio"},
	}
	scn := adversary.CostVaryingPath(adversary.CostVaryingPathConfig{
		Nodes: 6, Steps: sc.Steps, CheapCost: 1, DearCost: 40,
	})
	for _, gamma := range []float64{0, 0.25, 0.5, 1, 2} {
		b := routing.New(scn.NumNodes, routing.Params{T: 0, Gamma: gamma, BufferSize: 30})
		rs := adversary.Play(b, scn)
		t.AddRow(fmt.Sprintf("%.2f", gamma), f3(rs.Throughput), f2(rs.AvgCost), f2(scn.Opt.AvgCost), f2(rs.CostRatio))
	}
	t.Notes = append(t.Notes, "γ > 0 steers transmissions to cheap steps; γ = 0 pays the dear steps")
	return t
}
