//go:build bigbench

package toporouting

// Million-node benchmarks, behind -tags bigbench: a single iteration takes
// tens of seconds and ~1 GiB of working set, far past what the default
// bench sweep (or CI) should pay.
//
// Run:  go test -tags bigbench -run '^$' -bench BuildThetaBig -benchtime 1x
//       go test -tags bigbench -run '^$' -bench BuildNetworkDefaultRangeBig -benchtime 3x

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// BenchmarkBuildThetaBig builds the n=10⁶ topology across GOMAXPROCS
// workers and reports the live heap after the first build alongside the
// standard metrics (README "Scaling up" has measured numbers).
func BenchmarkBuildThetaBig(b *testing.B) {
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

// BenchmarkBuildNetworkDefaultRangeBig times the facade build of an
// n=10⁵ network with no range given, so the default range (1.3 × the
// critical range, an EMST over the points) is part of every iteration; the
// rangeMs metric is that step alone.
func BenchmarkBuildNetworkDefaultRangeBig(b *testing.B) {
	const n = 100000
	pts := benchPoints(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildNetwork(pts, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	start := time.Now()
	unitdisk.DefaultRange(pts)
	b.ReportMetric(float64(time.Since(start))/float64(time.Millisecond), "rangeMs")
}
