package toporouting

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func mustPoints(t *testing.T, kind string, n int, seed int64) []Point {
	t.Helper()
	pts, err := GeneratePoints(kind, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestGeneratePoints(t *testing.T) {
	for _, kind := range []string{"uniform", "civilized", "clustered", "grid", "expchain", "ring", "bridge"} {
		pts, err := GeneratePoints(kind, 80, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(pts) < 40 {
			t.Errorf("%s: %d points", kind, len(pts))
		}
	}
	if _, err := GeneratePoints("nope", 10, 1); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := GeneratePoints("uniform", 1, 1); err == nil {
		t.Error("n < 2 should error")
	}
}

func TestBuildNetworkBasics(t *testing.T) {
	pts := mustPoints(t, "uniform", 150, 3)
	nw, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nw.N() != 150 {
		t.Errorf("N = %d", nw.N())
	}
	if !nw.Connected() || !nw.TransmissionGraphConnected() {
		t.Error("network should be connected")
	}
	if nw.MaxDegree() > nw.DegreeBound() {
		t.Errorf("degree %d > bound %d", nw.MaxDegree(), nw.DegreeBound())
	}
	if nw.NumEdges() == 0 || len(nw.Edges()) != nw.NumEdges() {
		t.Error("edge accessors inconsistent")
	}
	o := nw.Options()
	if o.Theta == 0 || o.Range == 0 || o.Kappa != 2 || o.Delta == 0 {
		t.Errorf("defaults not resolved: %+v", o)
	}
	if len(nw.Points()) != 150 {
		t.Error("Points accessor")
	}
	// Per-node degree sums to 2|E|.
	sum := 0
	for v := 0; v < nw.N(); v++ {
		sum += nw.Degree(v)
	}
	if sum != 2*nw.NumEdges() {
		t.Error("degree sum mismatch")
	}
}

func TestBuildNetworkErrors(t *testing.T) {
	pts := mustPoints(t, "uniform", 10, 1)
	cases := []Options{
		{Theta: -1},
		{Theta: math.Pi},
		{Kappa: 1.5},
		{Delta: -0.5},
		{Range: -2},
	}
	for i, o := range cases {
		if _, err := BuildNetwork(pts, o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := BuildNetwork(pts[:1], Options{}); err == nil {
		t.Error("single point should error")
	}
}

func TestNetworkStretch(t *testing.T) {
	pts := mustPoints(t, "uniform", 120, 5)
	nw, err := BuildNetwork(pts, Options{Theta: math.Pi / 9})
	if err != nil {
		t.Fatal(err)
	}
	es := nw.EnergyStretch(0)
	if es.Max < 1 || es.Max > 12 || math.IsInf(es.Max, 1) {
		t.Errorf("energy stretch = %+v", es)
	}
	ds := nw.DistanceStretch(20)
	if ds.Max < 1 || math.IsInf(ds.Max, 1) {
		t.Errorf("distance stretch = %+v", ds)
	}
	if es.Pairs == 0 || ds.Pairs == 0 {
		t.Error("no pairs measured")
	}
}

func TestNetworkInterferenceNumber(t *testing.T) {
	pts := mustPoints(t, "uniform", 150, 7)
	nw, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	i := nw.InterferenceNumber()
	if i < 1 || i >= nw.NumEdges() {
		t.Errorf("interference number = %d (edges %d)", i, nw.NumEdges())
	}
}

func TestNetworkRoutesAndThetaPath(t *testing.T) {
	pts := mustPoints(t, "uniform", 100, 9)
	nw, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	route := nw.MinEnergyRoute(0, 50)
	if len(route) == 0 || route[0] != 0 || route[len(route)-1] != 50 {
		t.Fatalf("route = %v", route)
	}
	// Energy cost of each hop must be positive and accessible.
	for i := 0; i+1 < len(route); i++ {
		if nw.EnergyCost(route[i], route[i+1]) <= 0 {
			t.Error("non-positive hop energy")
		}
	}
	// θ-path for a real G* edge.
	e := nw.Edges()[0]
	path, err := nw.ThetaPath(e[0], e[1])
	if err != nil || len(path) < 2 {
		t.Fatalf("theta path: %v %v", path, err)
	}
	// θ-path rejects out-of-range pairs: find the farthest pair.
	far0, far1, best := 0, 1, 0.0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			dx, dy := pts[i].X-pts[j].X, pts[i].Y-pts[j].Y
			if d2 := dx*dx + dy*dy; d2 > best {
				best, far0, far1 = d2, i, j
			}
		}
	}
	if math.Sqrt(best) > nw.Options().Range {
		if _, err := nw.ThetaPath(far0, far1); err == nil {
			t.Error("expected range error")
		}
	}
}

func TestBuildNetworkDistributedMatches(t *testing.T) {
	pts := mustPoints(t, "uniform", 120, 11)
	nw, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dnw, st, err := BuildNetworkDistributed(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.PositionMsgs != 120 || st.ConnectionMsgs == 0 {
		t.Errorf("protocol stats: %+v", st)
	}
	a, b := nw.Edges(), dnw.Edges()
	if len(a) != len(b) {
		t.Fatalf("edge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("edges differ")
		}
	}
	if _, _, err := BuildNetworkDistributed(pts[:1], Options{}); err == nil {
		t.Error("single point should error")
	}
	if _, _, err := BuildNetworkDistributed([]Point{Pt(0, 0), Pt(1, 1), Pt(1, 1)}, Options{Range: 3}); !errors.Is(err, ErrCoincidentPoints) {
		t.Errorf("coincident points: got %v, want ErrCoincidentPoints", err)
	}
}

func TestRouterFacade(t *testing.T) {
	r, err := NewRouter(3, RouterOptions{T: 0, Gamma: 0, BufferSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	r.Step(nil, []Packets{{Node: 0, Dest: 2, Count: 3}})
	if r.Height(0, 2) != 3 || r.Queued() != 3 {
		t.Error("injection not reflected")
	}
	links := []Link{{U: 0, V: 1}, {U: 1, V: 2}}
	for i := 0; i < 10; i++ {
		r.Step(links, nil)
	}
	if r.Delivered() != 3 {
		t.Errorf("delivered = %d", r.Delivered())
	}
	if r.Accepted() != 3 || r.Dropped() != 0 {
		t.Error("counters wrong")
	}
	if r.TotalCost() != 0 || r.AvgCostPerDelivery() != 0 {
		t.Error("zero-cost links should cost nothing")
	}
}

func TestRouterErrors(t *testing.T) {
	if _, err := NewRouter(0, RouterOptions{BufferSize: 1}); err == nil {
		t.Error("n=0")
	}
	if _, err := NewRouter(2, RouterOptions{BufferSize: 0}); err == nil {
		t.Error("buffer=0")
	}
	if _, err := NewRouter(2, RouterOptions{BufferSize: 1, Gamma: -1}); err == nil {
		t.Error("gamma<0")
	}
}

func TestSuggestedParamsFacade(t *testing.T) {
	if SuggestedT(4, 2) != 6 {
		t.Error("SuggestedT")
	}
	if SuggestedGamma(6, 4, 2, 3, 1.5) != (6+4+2)*3/1.5 {
		t.Error("SuggestedGamma")
	}
}

func TestSimulateFacade(t *testing.T) {
	pts := mustPoints(t, "uniform", 60, 13)
	res, err := Simulate(SimulationOptions{
		Points:  pts,
		Router:  RouterOptions{BufferSize: 40},
		Traffic: SinksTraffic(60, []int{5, 10}, 2, 200),
		Steps:   500,
		Seed:    13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Accepted == 0 {
		t.Errorf("result = %+v", res)
	}
	if res.Delivered+int64(res.Queued) != res.Accepted {
		t.Error("conservation broken")
	}
}

func TestSimulateRandomMACAndMobility(t *testing.T) {
	pts := mustPoints(t, "uniform", 50, 17)
	res, err := Simulate(SimulationOptions{
		Points:        pts,
		MAC:           MACRandom,
		Router:        RouterOptions{BufferSize: 40},
		Traffic:       SinksTraffic(50, []int{7}, 1, 600),
		Steps:         1500,
		MobilityEvery: 500,
		MobilityStep:  0.01,
		Seed:          17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.I < 1 {
		t.Error("random MAC should report I")
	}
	if res.Rebuilds != 2 {
		t.Errorf("rebuilds = %d", res.Rebuilds)
	}
}

func TestSimulateErrors(t *testing.T) {
	pts := mustPoints(t, "uniform", 10, 1)
	cases := []SimulationOptions{
		{Points: pts[:1], Router: RouterOptions{BufferSize: 5}, Steps: 10},
		{Points: pts, Router: RouterOptions{BufferSize: 5}, Steps: 0},
		{Points: pts, Router: RouterOptions{BufferSize: 0}, Steps: 10},
		{Points: pts, Router: RouterOptions{BufferSize: 5}, Steps: 10, MAC: MAC(9)},
	}
	for i, o := range cases {
		if _, err := Simulate(o); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestSimulateRejectsAsBuildNetwork: a simulation, single or Monte-Carlo,
// rejects the options BuildNetwork rejects, with the same error matching
// ErrInvalidInput, instead of panicking (θ = 2) or running on a default
// (range −1, κ = 1).
func TestSimulateRejectsAsBuildNetwork(t *testing.T) {
	pts := mustPoints(t, "uniform", 30, 1)
	for _, o := range []Options{
		{Theta: 2},
		{Theta: -0.5},
		{Range: -1},
		{Range: math.NaN()},
		{Kappa: 1},
		{Delta: -0.5},
	} {
		_, want := BuildNetwork(pts, o)
		if !errors.Is(want, ErrInvalidInput) {
			t.Fatalf("BuildNetwork(%+v): err = %v, want ErrInvalidInput", o, want)
		}
		sim := SimulationOptions{
			Points: pts, Theta: o.Theta, Range: o.Range, Kappa: o.Kappa, Delta: o.Delta,
			Router: RouterOptions{BufferSize: 5}, Steps: 4,
		}
		_, err := Simulate(sim)
		if !errors.Is(err, ErrInvalidInput) || err.Error() != want.Error() {
			t.Errorf("Simulate(%+v): err = %v, want %v", o, err, want)
		}
		if _, err := SimulateMonteCarlo(sim, []int64{1, 2}, 2); !errors.Is(err, ErrInvalidInput) || err.Error() != want.Error() {
			t.Errorf("SimulateMonteCarlo(%+v): err = %v, want %v", o, err, want)
		}
	}
}

func TestRunExperimentFacade(t *testing.T) {
	out, err := RunExperiment("E1", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Lemma 2.1") {
		t.Error("E1 output missing claim")
	}
	if _, err := RunExperiment("E99", false); err == nil {
		t.Error("unknown experiment should error")
	}
	ids := ExperimentIDs()
	if len(ids) != 21 || ids[0] != "E1" {
		t.Errorf("ids = %v", ids)
	}
}

func TestGeoRouterFacade(t *testing.T) {
	pts := mustPoints(t, "uniform", 120, 19)
	nw, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGeoRouter(pts, nw.Options().Range)
	if err != nil {
		t.Fatal(err)
	}
	if gr.NumEdges() == 0 {
		t.Fatal("empty Gabriel graph")
	}
	r, err := gr.Route(0, 60)
	if err != nil || !r.Delivered {
		t.Fatalf("gpsr: %+v %v", r, err)
	}
	if r.Length <= 0 || r.Energy <= 0 {
		t.Error("path metrics missing")
	}
	if _, err := gr.Route(-1, 5); err == nil {
		t.Error("bad endpoints should error")
	}
	g, err := gr.Greedy(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	if g.Delivered && len(g.Path) < 2 {
		t.Error("greedy path too short")
	}
	if _, err := NewGeoRouter(pts[:1], 0); err == nil {
		t.Error("too few points should error")
	}
}

func TestWriteSVGFacade(t *testing.T) {
	pts := mustPoints(t, "uniform", 40, 21)
	nw, err := BuildNetwork(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	route := nw.MinEnergyRoute(0, 20)
	if err := nw.WriteSVG(&sb, route); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "<svg") || !strings.Contains(sb.String(), "<path") {
		t.Error("svg output incomplete")
	}
}

func TestRouterLatencyAndAnycastFacade(t *testing.T) {
	r, err := NewRouter(5, RouterOptions{BufferSize: 20})
	if err != nil {
		t.Fatal(err)
	}
	r.EnableLatencyTracking()
	acc, drop := r.InjectAnycast(1, []int{0, 4}, 3)
	if acc != 3 || drop != 0 {
		t.Fatalf("anycast inject: %d %d", acc, drop)
	}
	links := []Link{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	for i := 0; i < 30; i++ {
		r.Step(links, nil)
	}
	if r.Delivered() != 3 {
		t.Fatalf("delivered %d", r.Delivered())
	}
	// Injected before the first step: the nearest member (node 0) is one
	// hop away, so the first delivery lands within step one (latency 0
	// relative to the pre-run injection).
	st := r.Latencies()
	if st.Count != 3 || st.Max < 1 {
		t.Errorf("latency stats: %+v", st)
	}
}

func TestPointsIO(t *testing.T) {
	pts := mustPoints(t, "uniform", 30, 23)
	var sb strings.Builder
	if err := WritePointsTo(&sb, pts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPointsFrom(strings.NewReader(sb.String()))
	if err != nil || len(got) != 30 {
		t.Fatalf("round trip: %v %v", len(got), err)
	}
	for i := range pts {
		if got[i] != pts[i] {
			t.Fatal("precision lost")
		}
	}
}
