package topology

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"toporouting/internal/pointset"
	"toporouting/internal/telemetry"
	"toporouting/internal/unitdisk"
)

// protocolGoldenRow is one input of the golden protocol table and the
// message counts the synchronous 3-round simulator (Position, Neighborhood
// and Connection rounds run node by node over a simulated radio medium)
// sent on it, recorded before ProtocolStats replaced the simulator with a
// count read off the sector tables.
type protocolGoldenRow struct {
	kind   pointset.Kind
	seed   int64
	theta  float64
	dfac   float64 // D = dfac × the critical range
	orient bool    // per-node orientations drawn from seed+41
	want   ProtocolStats
}

// protocolInput returns the n=200 point set and configuration of a row.
func protocolInput(r protocolGoldenRow) (pointset.Set, Config) {
	pts := pointset.Generate(r.kind, 200, r.seed)
	cfg := Config{Theta: r.theta, Range: unitdisk.CriticalRange(pts) * r.dfac}
	if r.orient {
		rng := rand.New(rand.NewSource(r.seed + 41))
		cfg.Orientations = make([]float64, len(pts))
		for i := range cfg.Orientations {
			cfg.Orientations[i] = rng.Float64() * 2 * math.Pi
		}
	}
	return pts, cfg
}

// TestProtocolStatsGolden pins ProtocolStats to the simulator's counts on
// every pointset generator × 3 seeds × θ ∈ {π/3, π/6, 0.3} × D ∈ {1.0,
// 1.3, 2.5} × critical range, plus per-node-orientation cases.
func TestProtocolStatsGolden(t *testing.T) {
	for _, r := range protocolGolden {
		pts, cfg := protocolInput(r)
		if got := BuildTheta(pts, cfg).ProtocolStats(); got != r.want {
			t.Errorf("%v seed %d θ=%.4f D×%.1f orient=%v: got %+v, want %+v", r.kind, r.seed, r.theta, r.dfac, r.orient, got, r.want)
		}
	}
}

// TestYaoEdgesTelemetry checks that the topology.yao_edges gauge and the
// build event's yao_edges field, both counted off NearestOut, equal the
// edge count of the materialized YaoGraph on every build path.
func TestYaoEdgesTelemetry(t *testing.T) {
	check := func(label string, build func(cfg Config) *Topology, pts pointset.Set, theta float64) *Topology {
		t.Helper()
		sink := &telemetry.MemorySink{}
		tel := telemetry.New(sink)
		top := build(Config{Theta: theta, Range: unitdisk.CriticalRange(pts) * 1.3, Telemetry: tel})
		want := top.YaoGraph().NumEdges()
		if got := tel.Gauge("topology.yao_edges").Value(); got != float64(want) {
			t.Fatalf("%s: topology.yao_edges = %v, YaoGraph has %d edges", label, got, want)
		}
		var events int
		for _, ev := range sink.Events() {
			if ev.Layer == "topology" && ev.Kind == "build" {
				events++
				if got := ev.Fields["yao_edges"]; got != float64(want) {
					t.Fatalf("%s: build event yao_edges = %v, YaoGraph has %d edges", label, got, want)
				}
			}
		}
		if events == 0 {
			t.Fatalf("%s: no build event", label)
		}
		return top
	}
	pts := pointset.Generate(pointset.KindClustered, 400, 5)
	check("fresh", func(cfg Config) *Topology { return BuildTheta(pts, cfg) }, pts, math.Pi/6)

	var ar BuildArena
	if _, err := BuildThetaArena(context.Background(), pointset.Generate(pointset.KindUniform, 300, 1), Config{Range: 0.2}, 2, &ar); err != nil {
		t.Fatal(err)
	}
	check("arena", func(cfg Config) *Topology {
		top, err := BuildThetaArena(context.Background(), pts, cfg, 2, &ar)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}, pts, math.Pi/6)

	check("workers=4", func(cfg Config) *Topology {
		top, err := BuildThetaContext(context.Background(), pts, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		return top
	}, pts, math.Pi/6)

	// With θ = π/3 many pairs select each other; each such pair is one
	// Yao edge, not two.
	uni := pointset.Generate(pointset.KindUniform, 300, 7)
	top := check("mutual", func(cfg Config) *Topology { return BuildTheta(uni, cfg) }, uni, math.Pi/3)
	selections, mutual := 0, 0
	for u, row := range top.NearestOut {
		for _, v := range row {
			if v >= 0 {
				selections++
				if top.Selected(int(v), u) {
					mutual++
				}
			}
		}
	}
	if mutual == 0 || top.YaoGraph().NumEdges() != selections-mutual/2 {
		t.Fatalf("mutual: %d selections, %d mutual, %d Yao edges", selections, mutual, top.YaoGraph().NumEdges())
	}
}

// protocolGolden was recorded from the synchronous simulator.
var protocolGolden = []protocolGoldenRow{
	{pointset.KindUniform, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 973, 723, 3964}},
	{pointset.KindUniform, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 1065, 757, 5556}},
	{pointset.KindUniform, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 1098, 766, 13476}},
	{pointset.KindUniform, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 1423, 1124, 4815}},
	{pointset.KindUniform, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 1772, 1295, 6801}},
	{pointset.KindUniform, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 2059, 1394, 15065}},
	{pointset.KindUniform, 0, 0.3, 1.0, false, ProtocolStats{200, 1713, 1498, 5479}},
	{pointset.KindUniform, 0, 0.3, 1.3, false, ProtocolStats{200, 2390, 1936, 8060}},
	{pointset.KindUniform, 0, 0.3, 2.5, false, ProtocolStats{200, 3339, 2424, 17375}},
	{pointset.KindUniform, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 918, 667, 3569}},
	{pointset.KindUniform, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 1036, 728, 4918}},
	{pointset.KindUniform, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 1089, 746, 11969}},
	{pointset.KindUniform, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 1297, 1041, 4322}},
	{pointset.KindUniform, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 1666, 1250, 6070}},
	{pointset.KindUniform, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 2053, 1400, 13587}},
	{pointset.KindUniform, 1, 0.3, 1.0, false, ProtocolStats{200, 1531, 1328, 4843}},
	{pointset.KindUniform, 1, 0.3, 1.3, false, ProtocolStats{200, 2149, 1777, 7080}},
	{pointset.KindUniform, 1, 0.3, 2.5, false, ProtocolStats{200, 3295, 2362, 15791}},
	{pointset.KindUniform, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 889, 657, 3300}},
	{pointset.KindUniform, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 1014, 724, 4530}},
	{pointset.KindUniform, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 1097, 751, 10736}},
	{pointset.KindUniform, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 1201, 977, 3932}},
	{pointset.KindUniform, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 1578, 1207, 5577}},
	{pointset.KindUniform, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 2033, 1395, 12316}},
	{pointset.KindUniform, 2, 0.3, 1.0, false, ProtocolStats{200, 1397, 1243, 4394}},
	{pointset.KindUniform, 2, 0.3, 1.3, false, ProtocolStats{200, 1966, 1671, 6429}},
	{pointset.KindUniform, 2, 0.3, 2.5, false, ProtocolStats{200, 3192, 2318, 14398}},
	{pointset.KindCivilized, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 643, 611, 1944}},
	{pointset.KindCivilized, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 897, 763, 2900}},
	{pointset.KindCivilized, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 1098, 854, 6438}},
	{pointset.KindCivilized, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 685, 682, 2057}},
	{pointset.KindCivilized, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 1148, 1099, 3487}},
	{pointset.KindCivilized, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 2019, 1603, 8108}},
	{pointset.KindCivilized, 0, 0.3, 1.0, false, ProtocolStats{200, 688, 688, 2066}},
	{pointset.KindCivilized, 0, 0.3, 1.3, false, ProtocolStats{200, 1198, 1182, 3620}},
	{pointset.KindCivilized, 0, 0.3, 2.5, false, ProtocolStats{200, 2935, 2529, 9950}},
	{pointset.KindCivilized, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 728, 669, 2237}},
	{pointset.KindCivilized, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 980, 813, 3321}},
	{pointset.KindCivilized, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 1099, 857, 7318}},
	{pointset.KindCivilized, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 822, 808, 2470}},
	{pointset.KindCivilized, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 1319, 1222, 4069}},
	{pointset.KindCivilized, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 2078, 1635, 9075}},
	{pointset.KindCivilized, 1, 0.3, 1.0, false, ProtocolStats{200, 836, 832, 2508}},
	{pointset.KindCivilized, 1, 0.3, 1.3, false, ProtocolStats{200, 1437, 1410, 4375}},
	{pointset.KindCivilized, 1, 0.3, 2.5, false, ProtocolStats{200, 3168, 2645, 11175}},
	{pointset.KindCivilized, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 684, 618, 2106}},
	{pointset.KindCivilized, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 923, 747, 3056}},
	{pointset.KindCivilized, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 1099, 822, 6763}},
	{pointset.KindCivilized, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 781, 766, 2351}},
	{pointset.KindCivilized, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 1212, 1117, 3715}},
	{pointset.KindCivilized, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 2022, 1569, 8433}},
	{pointset.KindCivilized, 2, 0.3, 1.0, false, ProtocolStats{200, 795, 794, 2393}},
	{pointset.KindCivilized, 2, 0.3, 1.3, false, ProtocolStats{200, 1317, 1304, 4007}},
	{pointset.KindCivilized, 2, 0.3, 2.5, false, ProtocolStats{200, 2954, 2489, 10285}},
	{pointset.KindClustered, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 1048, 698, 13354}},
	{pointset.KindClustered, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 1073, 707, 16446}},
	{pointset.KindClustered, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 1107, 718, 27045}},
	{pointset.KindClustered, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 1869, 1265, 14742}},
	{pointset.KindClustered, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 1937, 1292, 17895}},
	{pointset.KindClustered, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 2019, 1321, 28560}},
	{pointset.KindClustered, 0, 0.3, 1.0, false, ProtocolStats{200, 2839, 2043, 16490}},
	{pointset.KindClustered, 0, 0.3, 1.3, false, ProtocolStats{200, 2962, 2086, 19714}},
	{pointset.KindClustered, 0, 0.3, 2.5, false, ProtocolStats{200, 3144, 2142, 30506}},
	{pointset.KindClustered, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 1052, 717, 10107}},
	{pointset.KindClustered, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 1064, 723, 12225}},
	{pointset.KindClustered, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 1101, 735, 20064}},
	{pointset.KindClustered, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 1858, 1285, 11481}},
	{pointset.KindClustered, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 1887, 1298, 13623}},
	{pointset.KindClustered, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 1988, 1331, 21547}},
	{pointset.KindClustered, 1, 0.3, 1.0, false, ProtocolStats{200, 2815, 2048, 13201}},
	{pointset.KindClustered, 1, 0.3, 1.3, false, ProtocolStats{200, 2883, 2076, 15397}},
	{pointset.KindClustered, 1, 0.3, 2.5, false, ProtocolStats{200, 3109, 2153, 23490}},
	{pointset.KindClustered, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 1098, 748, 20676}},
	{pointset.KindClustered, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 1107, 750, 23999}},
	{pointset.KindClustered, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 1123, 754, 34487}},
	{pointset.KindClustered, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 1998, 1352, 22180}},
	{pointset.KindClustered, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 2017, 1357, 25516}},
	{pointset.KindClustered, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 2050, 1368, 36028}},
	{pointset.KindClustered, 2, 0.3, 1.0, false, ProtocolStats{200, 3139, 2221, 24190}},
	{pointset.KindClustered, 2, 0.3, 1.3, false, ProtocolStats{200, 3169, 2229, 27540}},
	{pointset.KindClustered, 2, 0.3, 2.5, false, ProtocolStats{200, 3246, 2249, 38105}},
	{pointset.KindGrid, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 520, 518, 1560}},
	{pointset.KindGrid, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 951, 868, 2897}},
	{pointset.KindGrid, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 1096, 918, 5602}},
	{pointset.KindGrid, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 522, 522, 1566}},
	{pointset.KindGrid, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 1078, 1078, 3234}},
	{pointset.KindGrid, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 2053, 1635, 7276}},
	{pointset.KindGrid, 0, 0.3, 1.0, false, ProtocolStats{200, 522, 522, 1566}},
	{pointset.KindGrid, 0, 0.3, 1.3, false, ProtocolStats{200, 1078, 1078, 3234}},
	{pointset.KindGrid, 0, 0.3, 2.5, false, ProtocolStats{200, 2843, 2630, 9061}},
	{pointset.KindGrid, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 524, 524, 1574}},
	{pointset.KindGrid, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 956, 872, 2916}},
	{pointset.KindGrid, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 1098, 921, 5611}},
	{pointset.KindGrid, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 526, 526, 1578}},
	{pointset.KindGrid, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 1086, 1084, 3258}},
	{pointset.KindGrid, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 2048, 1650, 7290}},
	{pointset.KindGrid, 1, 0.3, 1.0, false, ProtocolStats{200, 526, 526, 1578}},
	{pointset.KindGrid, 1, 0.3, 1.3, false, ProtocolStats{200, 1088, 1088, 3264}},
	{pointset.KindGrid, 1, 0.3, 2.5, false, ProtocolStats{200, 2836, 2575, 9003}},
	{pointset.KindGrid, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 591, 584, 1773}},
	{pointset.KindGrid, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 996, 896, 3054}},
	{pointset.KindGrid, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 1097, 925, 5784}},
	{pointset.KindGrid, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 598, 598, 1794}},
	{pointset.KindGrid, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 1162, 1162, 3486}},
	{pointset.KindGrid, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 2057, 1630, 7449}},
	{pointset.KindGrid, 2, 0.3, 1.0, false, ProtocolStats{200, 598, 598, 1794}},
	{pointset.KindGrid, 2, 0.3, 1.3, false, ProtocolStats{200, 1162, 1162, 3486}},
	{pointset.KindGrid, 2, 0.3, 2.5, false, ProtocolStats{200, 2906, 2654, 9322}},
	{pointset.KindExponential, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 758, 400, 35332}},
	{pointset.KindExponential, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 761, 400, 36069}},
	{pointset.KindExponential, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 764, 400, 37638}},
	{pointset.KindExponential, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 758, 400, 35332}},
	{pointset.KindExponential, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 761, 400, 36069}},
	{pointset.KindExponential, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 764, 400, 37638}},
	{pointset.KindExponential, 0, 0.3, 1.0, false, ProtocolStats{200, 580, 398, 35152}},
	{pointset.KindExponential, 0, 0.3, 1.3, false, ProtocolStats{200, 581, 398, 35887}},
	{pointset.KindExponential, 0, 0.3, 2.5, false, ProtocolStats{200, 583, 398, 37455}},
	{pointset.KindExponential, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 757, 408, 35339}},
	{pointset.KindExponential, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 758, 408, 36074}},
	{pointset.KindExponential, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 763, 408, 37645}},
	{pointset.KindExponential, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 757, 408, 35339}},
	{pointset.KindExponential, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 758, 408, 36074}},
	{pointset.KindExponential, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 763, 408, 37645}},
	{pointset.KindExponential, 1, 0.3, 1.0, false, ProtocolStats{200, 578, 398, 35150}},
	{pointset.KindExponential, 1, 0.3, 1.3, false, ProtocolStats{200, 579, 398, 35885}},
	{pointset.KindExponential, 1, 0.3, 2.5, false, ProtocolStats{200, 581, 398, 37453}},
	{pointset.KindExponential, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 756, 404, 35334}},
	{pointset.KindExponential, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 762, 406, 36076}},
	{pointset.KindExponential, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 766, 406, 37646}},
	{pointset.KindExponential, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 756, 404, 35334}},
	{pointset.KindExponential, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 762, 406, 36076}},
	{pointset.KindExponential, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 766, 406, 37646}},
	{pointset.KindExponential, 2, 0.3, 1.0, false, ProtocolStats{200, 575, 398, 35147}},
	{pointset.KindExponential, 2, 0.3, 1.3, false, ProtocolStats{200, 580, 398, 35886}},
	{pointset.KindExponential, 2, 0.3, 2.5, false, ProtocolStats{200, 583, 398, 37455}},
	{pointset.KindRing, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 433, 404, 1347}},
	{pointset.KindRing, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 556, 416, 2172}},
	{pointset.KindRing, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 470, 452, 1432}},
	{pointset.KindRing, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 736, 598, 2534}},
	{pointset.KindRing, 0, 0.3, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 0, 0.3, 1.3, false, ProtocolStats{200, 489, 486, 1485}},
	{pointset.KindRing, 0, 0.3, 2.5, false, ProtocolStats{200, 888, 812, 2900}},
	{pointset.KindRing, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 418, 400, 1278}},
	{pointset.KindRing, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 550, 414, 2164}},
	{pointset.KindRing, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 438, 432, 1330}},
	{pointset.KindRing, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 692, 551, 2443}},
	{pointset.KindRing, 1, 0.3, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 1, 0.3, 1.3, false, ProtocolStats{200, 440, 438, 1338}},
	{pointset.KindRing, 1, 0.3, 2.5, false, ProtocolStats{200, 845, 774, 2819}},
	{pointset.KindRing, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 417, 406, 1267}},
	{pointset.KindRing, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 578, 436, 2214}},
	{pointset.KindRing, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 427, 420, 1291}},
	{pointset.KindRing, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 716, 573, 2489}},
	{pointset.KindRing, 2, 0.3, 1.0, false, ProtocolStats{200, 398, 398, 1194}},
	{pointset.KindRing, 2, 0.3, 1.3, false, ProtocolStats{200, 430, 426, 1300}},
	{pointset.KindRing, 2, 0.3, 2.5, false, ProtocolStats{200, 859, 774, 2833}},
	{pointset.KindBridge, 0, math.Pi / 3, 1.0, false, ProtocolStats{200, 780, 603, 2813}},
	{pointset.KindBridge, 0, math.Pi / 3, 1.3, false, ProtocolStats{200, 918, 664, 3880}},
	{pointset.KindBridge, 0, math.Pi / 3, 2.5, false, ProtocolStats{200, 1006, 688, 8176}},
	{pointset.KindBridge, 0, math.Pi / 6, 1.0, false, ProtocolStats{200, 1005, 829, 3264}},
	{pointset.KindBridge, 0, math.Pi / 6, 1.3, false, ProtocolStats{200, 1310, 1023, 4631}},
	{pointset.KindBridge, 0, math.Pi / 6, 2.5, false, ProtocolStats{200, 1705, 1183, 9370}},
	{pointset.KindBridge, 0, 0.3, 1.0, false, ProtocolStats{200, 1094, 986, 3510}},
	{pointset.KindBridge, 0, 0.3, 1.3, false, ProtocolStats{200, 1547, 1345, 5190}},
	{pointset.KindBridge, 0, 0.3, 2.5, false, ProtocolStats{200, 2526, 1896, 10904}},
	{pointset.KindBridge, 1, math.Pi / 3, 1.0, false, ProtocolStats{200, 860, 599, 3427}},
	{pointset.KindBridge, 1, math.Pi / 3, 1.3, false, ProtocolStats{200, 940, 627, 4679}},
	{pointset.KindBridge, 1, math.Pi / 3, 2.5, false, ProtocolStats{200, 1021, 649, 10486}},
	{pointset.KindBridge, 1, math.Pi / 6, 1.0, false, ProtocolStats{200, 1186, 921, 4075}},
	{pointset.KindBridge, 1, math.Pi / 6, 1.3, false, ProtocolStats{200, 1433, 1025, 5570}},
	{pointset.KindBridge, 1, math.Pi / 6, 2.5, false, ProtocolStats{200, 1743, 1146, 11705}},
	{pointset.KindBridge, 1, 0.3, 1.0, false, ProtocolStats{200, 1414, 1240, 4622}},
	{pointset.KindBridge, 1, 0.3, 1.3, false, ProtocolStats{200, 1837, 1504, 6453}},
	{pointset.KindBridge, 1, 0.3, 2.5, false, ProtocolStats{200, 2653, 1911, 13380}},
	{pointset.KindBridge, 2, math.Pi / 3, 1.0, false, ProtocolStats{200, 834, 610, 3172}},
	{pointset.KindBridge, 2, math.Pi / 3, 1.3, false, ProtocolStats{200, 950, 664, 4374}},
	{pointset.KindBridge, 2, math.Pi / 3, 2.5, false, ProtocolStats{200, 1002, 675, 9441}},
	{pointset.KindBridge, 2, math.Pi / 6, 1.0, false, ProtocolStats{200, 1079, 853, 3660}},
	{pointset.KindBridge, 2, math.Pi / 6, 1.3, false, ProtocolStats{200, 1402, 1034, 5196}},
	{pointset.KindBridge, 2, math.Pi / 6, 2.5, false, ProtocolStats{200, 1717, 1152, 10633}},
	{pointset.KindBridge, 2, 0.3, 1.0, false, ProtocolStats{200, 1248, 1106, 4082}},
	{pointset.KindBridge, 2, 0.3, 1.3, false, ProtocolStats{200, 1747, 1464, 5971}},
	{pointset.KindBridge, 2, 0.3, 2.5, false, ProtocolStats{200, 2606, 1899, 12269}},
	{pointset.KindUniform, 0, math.Pi / 6, 1.3, true, ProtocolStats{200, 1779, 1342, 6855}},
	{pointset.KindUniform, 0, 0.3, 1.3, true, ProtocolStats{200, 2384, 1922, 8040}},
	{pointset.KindClustered, 0, math.Pi / 6, 1.3, true, ProtocolStats{200, 1934, 1319, 17919}},
	{pointset.KindClustered, 0, 0.3, 1.3, true, ProtocolStats{200, 2987, 2065, 19718}},
	{pointset.KindGrid, 0, math.Pi / 6, 1.3, true, ProtocolStats{200, 1077, 1076, 3231}},
	{pointset.KindGrid, 0, 0.3, 1.3, true, ProtocolStats{200, 1078, 1078, 3234}},
}
