package main

import (
	"math"
	"os"
	"strings"
	"testing"

	"toporouting/internal/telemetry"
)

func parseScrape(t *testing.T, text string) promScrape {
	t.Helper()
	samples, err := telemetry.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	out := promScrape{}
	for _, s := range samples {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestHistMeanDelta takes a bucket-histogram mean between two scrapes:
// only what was observed in between counts, across the matching series.
func TestHistMeanDelta(t *testing.T) {
	const before = `# TYPE toporouting_server_job_wait_ms histogram
toporouting_server_job_wait_ms_bucket{kind="topology",le="1"} 10
toporouting_server_job_wait_ms_bucket{kind="topology",le="+Inf"} 10
toporouting_server_job_wait_ms_sum{kind="topology"} 5
toporouting_server_job_wait_ms_count{kind="topology"} 10
toporouting_server_job_wait_ms_bucket{kind="session.create",le="1"} 2
toporouting_server_job_wait_ms_bucket{kind="session.create",le="+Inf"} 2
toporouting_server_job_wait_ms_sum{kind="session.create"} 1
toporouting_server_job_wait_ms_count{kind="session.create"} 2
`
	const after = `# TYPE toporouting_server_job_wait_ms histogram
toporouting_server_job_wait_ms_bucket{kind="topology",le="1"} 12
toporouting_server_job_wait_ms_bucket{kind="topology",le="+Inf"} 40
toporouting_server_job_wait_ms_sum{kind="topology"} 95
toporouting_server_job_wait_ms_count{kind="topology"} 40
toporouting_server_job_wait_ms_bucket{kind="session.create",le="1"} 2
toporouting_server_job_wait_ms_bucket{kind="session.create",le="+Inf"} 12
toporouting_server_job_wait_ms_sum{kind="session.create"} 21
toporouting_server_job_wait_ms_count{kind="session.create"} 12
`
	b, a := parseScrape(t, before), parseScrape(t, after)
	fam := "toporouting_server_job_wait_ms"
	if got := histMean(b, a, fam, map[string]string{"kind": "topology"}); got != 3 {
		t.Errorf("topology mean = %v, want (95-5)/(40-10) = 3", got)
	}
	if got := histMean(b, a, fam, nil); got != 2.75 {
		t.Errorf("all-kinds mean = %v, want (90+20)/(30+10) = 2.75", got)
	}
	if got := histMean(a, a, fam, nil); got != 0 {
		t.Errorf("mean with nothing observed = %v, want 0", got)
	}
	if got := histMean(nil, a, fam, map[string]string{"kind": "session.create"}); got != 1.75 {
		t.Errorf("lifetime mean = %v, want 21/12 = 1.75", got)
	}
}

func TestProcReaders(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	// Burn a little CPU so the tick counter has moved.
	x := 0.0
	for i := 0; i < 50_000_000; i++ {
		x += math.Sqrt(float64(i))
	}
	if x == 0 {
		t.Fatal("unreachable")
	}
	cpu, err := cpuTime(os.Getpid())
	if err != nil || cpu <= 0 {
		t.Errorf("cpuTime = %v, %v; want a positive CPU time", cpu, err)
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil || rss <= 0 {
		t.Errorf("peakRSS = %v, %v; want a positive MiB count", rss, err)
	}
}
