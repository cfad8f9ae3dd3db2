package sim

import (
	"testing"

	"toporouting/internal/pointset"
	"toporouting/internal/routing"
	"toporouting/internal/telemetry"
)

func churnConfig(seed int64) Config {
	pts := pointset.Generate(pointset.KindUniform, 120, 17)
	return Config{
		Points: pts,
		Router: routing.Params{BufferSize: 40},
		Inject: SinksInjector(len(pts), []int{5, 60}, 2, 300),
		Steps:  400,
		Churn:  Churn{Every: 25, Moves: 3, StepSize: 0.02},
		Seed:   seed,
	}
}

func TestChurnRunDeterministic(t *testing.T) {
	a := Run(churnConfig(4))
	b := Run(churnConfig(4))
	if a != b {
		t.Fatalf("churn run not deterministic:\n%+v\n%+v", a, b)
	}
	// 400 steps / every 25 = 15 epochs × 3 moves, minus vanishing-
	// probability position collisions (none at this seed).
	if a.ChurnEvents != 45 {
		t.Fatalf("ChurnEvents = %d, want 45", a.ChurnEvents)
	}
	if a.TouchedNodes == 0 || a.TouchedNodes >= a.ChurnEvents*int64(len(churnConfig(4).Points)) {
		t.Fatalf("TouchedNodes = %d outside (0, events×n)", a.TouchedNodes)
	}
	if a.Delivered == 0 {
		t.Fatal("churn run delivered nothing")
	}
	if a.Rebuilds != 0 {
		t.Fatalf("churn run performed %d full rebuilds", a.Rebuilds)
	}
}

func TestChurnRepairIsLocal(t *testing.T) {
	res := Run(churnConfig(9))
	n := int64(len(churnConfig(9).Points))
	if mean := res.TouchedNodes / res.ChurnEvents; mean >= n/2 {
		t.Fatalf("mean repair touched %d of %d nodes — not local", mean, n)
	}
}

func TestChurnWithRandomMAC(t *testing.T) {
	cfg := churnConfig(6)
	cfg.MAC = MACRandom
	a := Run(cfg)
	b := Run(cfg)
	if a != b {
		t.Fatal("random-MAC churn run not deterministic")
	}
	if a.ChurnEvents == 0 || a.I == 0 {
		t.Fatalf("random-MAC churn run: events=%d I=%d", a.ChurnEvents, a.I)
	}
}

func TestChurnTelemetry(t *testing.T) {
	tel := telemetry.New(nil)
	cfg := churnConfig(3)
	cfg.Telemetry = tel
	res := Run(cfg)
	if got := tel.Counter("sim.churn_epochs").Value(); got != 15 {
		t.Fatalf("sim.churn_epochs = %d, want 15", got)
	}
	if got := tel.Counter("topology.events").Value(); got != res.ChurnEvents {
		t.Fatalf("topology.events = %d, want %d", got, res.ChurnEvents)
	}
	if tel.Histogram("topology.repair_touched").Snapshot().Count == 0 {
		t.Fatal("repair_touched histogram empty")
	}
}

func TestChurnRejectsBadConfigs(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"with mobility":  func(c *Config) { c.Mobility = Mobility{Every: 10, StepSize: 0.1} },
		"with honeycomb": func(c *Config) { c.MAC = MACHoneycomb },
	} {
		cfg := churnConfig(1)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestChurnMonteCarloDeterministic(t *testing.T) {
	cfg := churnConfig(0)
	seeds := []int64{1, 2, 3, 4}
	a := MonteCarlo(cfg, seeds, 1)
	b := MonteCarlo(cfg, seeds, 4)
	for i := range seeds {
		if a[i] != b[i] {
			t.Fatalf("seed %d: parallel schedule changed the result", seeds[i])
		}
	}
}
