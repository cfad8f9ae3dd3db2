package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke builds the daemon and runs every workload end to end for
// about a second, plus one traced run, checking that each passes its
// correctness audit and yields every metric BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "toporoutingd")
	if out, err := exec.Command("go", "build", "-o", bin, "toporouting/cmd/toporoutingd").CombinedOutput(); err != nil {
		t.Fatalf("build toporoutingd: %v\n%s", err, out)
	}
	cfg := config{seed: 1, daemon: bin, logs: dir}
	check := func(t *testing.T, res runResult, metrics []SpecMetric) {
		t.Helper()
		if res.audit != nil {
			t.Fatalf("audit: %v", res.audit)
		}
		if res.attempted == 0 || res.failed != 0 {
			t.Fatalf("attempted %d, failed %d", res.attempted, res.failed)
		}
		for _, m := range metrics {
			v, ok := res.metrics[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s missing or not finite: %v", m.Name, v)
			}
		}
	}
	short := phases{warm: 200 * time.Millisecond, open: 600 * time.Millisecond, closed: 400 * time.Millisecond}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runE2E(cfg, w, 2, short)
			if err != nil {
				t.Fatal(err)
			}
			check(t, res, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if res.metrics[m.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, res.metrics[m.Name])
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		w, _ := lookupWorkload("topo_cold")
		res, err := runTraced(cfg, w, phases{warm: 200 * time.Millisecond, open: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		check(t, res, spec.PerLayer)
		if v := res.metrics["topocache.hit_ratio"]; v != 0 {
			t.Errorf("topo_cold hit ratio %v, want 0", v)
		}
	})
}
