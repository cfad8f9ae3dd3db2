package topology

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/telemetry"
	"toporouting/internal/unitdisk"
)

// requireEquivalent asserts that the maintained topology is exactly what a
// from-scratch BuildTheta produces on the same point set: identical
// phase-1/phase-2 tables and edge-for-edge identical Yao and N graphs.
func requireEquivalent(t *testing.T, d *Dynamic, label string) {
	t.Helper()
	fresh := BuildTheta(append([]geom.Point(nil), d.Points()...), Config{
		Theta: d.Topology().Cfg.Theta,
		Range: d.Topology().Cfg.Range,
	})
	if !reflect.DeepEqual(d.Topology().NearestOut, fresh.NearestOut) {
		t.Fatalf("%s: NearestOut diverged from rebuild", label)
	}
	if !reflect.DeepEqual(d.Topology().AdmitIn, fresh.AdmitIn) {
		t.Fatalf("%s: AdmitIn diverged from rebuild", label)
	}
	if !reflect.DeepEqual(d.Topology().Yao.Edges(), fresh.Yao.Edges()) {
		t.Fatalf("%s: Yao edges diverged from rebuild", label)
	}
	if !reflect.DeepEqual(d.Topology().N.Edges(), fresh.N.Edges()) {
		t.Fatalf("%s: N edges diverged from rebuild", label)
	}
}

func TestDynamicSingleEvents(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 150, 11)
	dRange := unitdisk.CriticalRange(pts) * 1.3
	cfg := Config{Theta: math.Pi / 6, Range: dRange}

	d := NewDynamic(pts, cfg)
	requireEquivalent(t, d, "initial")

	st := d.Apply(Event{Kind: Join, Pos: geom.Pt(0.503, 0.497)})
	if st.N != 151 || st.Touched == 0 || st.Phase1 == 0 || st.Phase1 > st.Touched {
		t.Fatalf("join stats %+v", st)
	}
	requireEquivalent(t, d, "after join")

	st = d.Apply(Event{Kind: Move, Node: 42, Pos: geom.Pt(0.211, 0.613)})
	if st.Kind != Move || st.Touched == 0 {
		t.Fatalf("move stats %+v", st)
	}
	requireEquivalent(t, d, "after move")

	st = d.Apply(Event{Kind: Leave, Node: 7})
	if st.N != 150 {
		t.Fatalf("leave stats %+v", st)
	}
	requireEquivalent(t, d, "after leave (swap renumber)")

	// Removing the last id exercises the no-swap path.
	st = d.Apply(Event{Kind: Leave, Node: d.N() - 1})
	if st.N != 149 {
		t.Fatalf("leave-last stats %+v", st)
	}
	requireEquivalent(t, d, "after leave of last id")
}

func TestDynamicDoesNotMutateInput(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 60, 3)
	orig := append(pointset.Set(nil), pts...)
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3})
	d.Apply(Event{Kind: Move, Node: 0, Pos: geom.Pt(0.5, 0.5)})
	d.Apply(Event{Kind: Leave, Node: 1})
	if !reflect.DeepEqual(orig, pts) {
		t.Fatal("Apply mutated the caller's point slice")
	}
}

func TestDynamicMoveToSamePositionIsNoop(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 50, 4)
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3})
	st := d.Apply(Event{Kind: Move, Node: 5, Pos: pts[5]})
	if st.Touched != 0 {
		t.Fatalf("no-op move touched %d nodes", st.Touched)
	}
	requireEquivalent(t, d, "after no-op move")
}

func TestDynamicRejectsInvalidEvents(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 20, 1)
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3})
	for name, ev := range map[string]Event{
		"join on occupied position": {Kind: Join, Pos: pts[3]},
		"move onto occupied":        {Kind: Move, Node: 0, Pos: pts[1]},
		"leave out of range":        {Kind: Leave, Node: 99},
		"unknown kind":              {Kind: EventKind(9)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			d.Apply(ev)
		}()
	}
}

// TestDynamicLocality pins the acceptance criterion: on a 2000-node uniform
// instance, one join or leave repairs < 5% of the nodes.
func TestDynamicLocality(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance")
	}
	pts := pointset.Generate(pointset.KindUniform, 2000, 5)
	dRange := unitdisk.CriticalRange(pts) * 1.3
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: dRange})
	limit := d.N() / 20 // 5%
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 20; i++ {
		st := d.Apply(Event{Kind: Join, Pos: geom.Pt(rng.Float64(), rng.Float64())})
		if st.Touched >= limit {
			t.Fatalf("join %d touched %d of %d nodes (≥5%%)", i, st.Touched, st.N)
		}
		st = d.Apply(Event{Kind: Leave, Node: rng.Intn(d.N())})
		if st.Touched >= limit {
			t.Fatalf("leave %d touched %d of %d nodes (≥5%%)", i, st.Touched, st.N)
		}
	}
	requireEquivalent(t, d, "after 40 events at n=2000")
}

func TestDynamicTelemetry(t *testing.T) {
	tel := telemetry.New(nil)
	pts := pointset.Generate(pointset.KindUniform, 80, 2)
	d := NewDynamic(pts, Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3, Telemetry: tel})
	d.Apply(Event{Kind: Move, Node: 3, Pos: geom.Pt(0.42, 0.42)})
	d.Apply(Event{Kind: Join, Pos: geom.Pt(0.1234, 0.8)})
	if got := tel.Counter("topology.events").Value(); got != 2 {
		t.Fatalf("topology.events = %d, want 2", got)
	}
	if tel.Counter("topology.nodes_touched").Value() == 0 {
		t.Fatal("topology.nodes_touched not recorded")
	}
	touched := tel.Snapshot().Buckets["topology.repair_touched"]
	if touched.Count != 2 {
		t.Fatal("topology.repair_touched histogram not recorded")
	}
	if !reflect.DeepEqual(touched.Bounds, telemetry.DefCountBuckets) {
		t.Fatalf("topology.repair_touched bounds = %v, want DefCountBuckets", touched.Bounds)
	}
}
