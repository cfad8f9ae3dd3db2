package toporouting

import (
	"context"
	"reflect"
	"testing"
)

func TestBuildNetworkParallelMatchesSequential(t *testing.T) {
	pts := mustPoints(t, "uniform", 300, 8)
	opts := Options{}
	seq, err := BuildNetwork(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	ar := NewBuildArena()
	for _, workers := range []int{-1, 1, 2, 7} {
		par, err := BuildNetworkContext(context.Background(), pts, opts, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Edges(), seq.Edges()) {
			t.Fatalf("workers=%d: parallel build changed the topology", workers)
		}
		par, err = BuildNetworkContext(context.Background(), pts, opts, workers, ar)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par.Edges(), seq.Edges()) {
			t.Fatalf("workers=%d: arena build changed the topology", workers)
		}
	}
}

func TestDynamicNetworkChurnMatchesRebuild(t *testing.T) {
	pts := mustPoints(t, "uniform", 200, 12)
	// Fix the range explicitly so the comparison rebuild uses the same D
	// (the default derives it from the initial critical range).
	base, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Range: base.Options().Range}
	dn, err := BuildDynamicNetwork(pts, opts)
	if err != nil {
		t.Fatal(err)
	}

	id, st, err := dn.Join(Pt(0.42, 0.58))
	if err != nil || id != 200 || st.Touched == 0 {
		t.Fatalf("Join: id=%d st=%+v err=%v", id, st, err)
	}
	if _, err := dn.MoveNode(17, Pt(0.9, 0.05)); err != nil {
		t.Fatal(err)
	}
	if _, err := dn.Leave(3); err != nil {
		t.Fatal(err)
	}

	fresh, err := BuildNetwork(dn.Points(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dn.Edges(), fresh.Edges()) {
		t.Fatal("maintained topology diverged from a from-scratch build")
	}
	if dn.NumEdges() != fresh.NumEdges() || dn.MaxDegree() != fresh.MaxDegree() {
		t.Fatal("edge count or degree diverged from a from-scratch build")
	}

	snap := dn.Snapshot()
	if !reflect.DeepEqual(snap.Edges(), fresh.Edges()) {
		t.Fatal("snapshot diverged from the maintained topology")
	}
	// Churn after the snapshot must not leak into it.
	before := snap.NumEdges()
	for i := 0; i < 5; i++ {
		if _, _, err := dn.Join(Pt(0.1+float64(i)*0.01, 0.2)); err != nil {
			t.Fatal(err)
		}
	}
	if snap.NumEdges() != before || snap.N() != fresh.N() {
		t.Fatal("later churn mutated the snapshot")
	}
	if s := snap.EnergyStretch(10); s.Max < 1 || s.Pairs == 0 {
		t.Fatalf("snapshot stretch evaluation broken: %+v", s)
	}
}

func TestDynamicNetworkErrors(t *testing.T) {
	pts := mustPoints(t, "uniform", 30, 2)
	dn, err := BuildDynamicNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dn.Join(pts[5]); err == nil {
		t.Error("Join on an occupied position must fail")
	}
	if _, err := dn.Leave(99); err == nil {
		t.Error("Leave out of range must fail")
	}
	if _, err := dn.MoveNode(-1, Pt(0.5, 0.5)); err == nil {
		t.Error("MoveNode out of range must fail")
	}
	if _, err := dn.MoveNode(0, pts[1]); err == nil {
		t.Error("MoveNode onto an occupied position must fail")
	}
	if _, err := dn.Apply(ChurnEvent{Kind: 42}); err == nil {
		t.Error("unknown event kind must fail")
	}
	if dn.N() != 30 {
		t.Fatalf("failed events mutated the network: n=%d", dn.N())
	}
}

func TestSimulateChurnOptions(t *testing.T) {
	pts := mustPoints(t, "uniform", 100, 5)
	res, err := Simulate(SimulationOptions{
		Points:     pts,
		Router:     RouterOptions{BufferSize: 40},
		Traffic:    SinksTraffic(len(pts), []int{3, 50}, 2, 150),
		Steps:      200,
		ChurnEvery: 20,
		ChurnMoves: 2,
		ChurnStep:  0.02,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChurnEvents == 0 || res.TouchedNodes == 0 {
		t.Fatalf("churn options ignored: %+v", res)
	}
	if _, err := Simulate(SimulationOptions{
		Points: pts, Router: RouterOptions{BufferSize: 10}, Steps: 10,
		ChurnEvery: 5, MobilityEvery: 5,
	}); err == nil {
		t.Error("churn+mobility must be rejected")
	}
	if _, err := Simulate(SimulationOptions{
		Points: pts, Router: RouterOptions{BufferSize: 10}, Steps: 10,
		ChurnEvery: 5, MAC: MACHoneycomb,
	}); err == nil {
		t.Error("churn+honeycomb must be rejected")
	}
}
