package experiments

import (
	"fmt"

	"toporouting/internal/dist"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// E20DistConvergence measures the asynchronous message-passing engine
// (internal/dist): rounds-to-convergence, traffic, and certificate outcomes
// as the per-link drop probability grows. The loss-free column doubles as a
// correctness check — every run must be edge-identical to the centralized
// builder — while the lossy columns show the retry/backoff reliability layer
// paying for convergence with extra rounds and messages.
func E20DistConvergence(sc Scale) *Table {
	t := &Table{
		ID:      "E20",
		Title:   "Distributed ΘALG: convergence vs message loss",
		Claim:   "extension: async protocol engine reaches the Section 2 topology under faults (edge-identical loss-free; connected, degree ≤ ⌈4π/θ⌉ lossy)",
		Columns: []string{"drop", "n", "rounds", "msgs/node", "retries/node", "identical", "connected", "deg≤bound"},
	}
	for _, p := range []float64{0, 0.1, 0.3} {
		for _, n := range sc.Sizes {
			var rounds, msgs, retries float64
			var identical, connected, bounded int
			for seed := 0; seed < sc.Seeds; seed++ {
				pts := pointset.Generate(pointset.KindUniform, n, int64(seed+1))
				out, err := dist.Build(pts, dist.Config{
					Range:     unitdisk.DefaultRange(pts),
					Seed:      int64(seed + 1),
					Faults:    dist.Faults{Drop: p},
					Telemetry: sc.Telemetry,
				})
				if err != nil {
					panic(err)
				}
				cert := out.Certify()
				rounds += float64(cert.Rounds)
				msgs += float64(out.Stats.Sent) / float64(n)
				retries += float64(out.Stats.Retries) / float64(n)
				if cert.Identical {
					identical++
				}
				if cert.Connected {
					connected++
				}
				if cert.MaxDegree <= cert.DegreeBound {
					bounded++
				}
			}
			k := float64(sc.Seeds)
			t.AddRow(
				fmt.Sprintf("%.1f", p), d(n),
				f2(rounds/k), f2(msgs/k), f2(retries/k),
				fmt.Sprintf("%d/%d", identical, sc.Seeds),
				fmt.Sprintf("%d/%d", connected, sc.Seeds),
				fmt.Sprintf("%d/%d", bounded, sc.Seeds),
			)
		}
	}
	t.Notes = append(t.Notes,
		"loss-free runs settle in O(1) rounds and match BuildTheta edge-for-edge; under drop the ack/retry layer multiplies traffic and rounds yet every certificate stays connected and degree-bounded",
	)
	return t
}
