//go:build bigbench

package toporouting

// Million-node benchmarks, behind -tags bigbench: a single iteration takes
// tens of seconds and ~1 GiB of working set, far past what the default
// bench sweep (or CI) should pay.
//
// Run:  go test -tags bigbench -bench BuildThetaTiledBig -benchtime 1x

import (
	"context"
	"math"
	"runtime"
	"testing"

	"toporouting/internal/topology"
)

// BenchmarkBuildThetaTiledBig builds the n=10⁶ topology tile-sharded and
// reports peak heap alongside the standard metrics — the scale target of
// the tiled construction (README "Scaling up" has measured numbers).
func BenchmarkBuildThetaTiledBig(b *testing.B) {
	const n = 1000000
	pts := benchPoints(n)
	d := 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	cfg := topology.Config{Theta: math.Pi / 6, Range: d}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top, err := topology.BuildThetaContext(context.Background(), pts, cfg, runtime.GOMAXPROCS(0))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heapMiB")
			b.ReportMetric(float64(top.N.NumEdges()), "edges")
		}
	}
}
