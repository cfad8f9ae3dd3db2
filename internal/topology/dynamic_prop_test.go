package topology

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// TestDynamicEquivalenceProperty is the property-based harness for the
// incremental maintenance: across 100+ seeded random churn sequences of
// joins, leaves, and moves over three generator families, the maintained
// topology must be edge-for-edge identical (tables included) to a
// from-scratch BuildTheta on the final point set. A quarter of the
// sequences additionally verify after every single event, catching
// transient corruption that a final-state check would miss.
func TestDynamicEquivalenceProperty(t *testing.T) {
	const (
		seqPerKind = 36 // 3 kinds × 36 = 108 sequences
		events     = 25
	)
	kinds := []pointset.Kind{pointset.KindUniform, pointset.KindCivilized, pointset.KindClustered}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seq := 0; seq < seqPerKind; seq++ {
				seed := int64(1000*int(kind) + seq)
				rng := rand.New(rand.NewSource(seed))
				n0 := 40 + rng.Intn(80)
				pts := pointset.Generate(kind, n0, seed)
				dRange := unitdisk.CriticalRange(pts) * 1.3
				cfg := Config{Theta: math.Pi / 6, Range: dRange}
				d := NewDynamic(pts, cfg)
				checkEvery := seq%4 == 0
				for e := 0; e < events; e++ {
					ev := randomEvent(rng, d)
					d.Apply(ev)
					if checkEvery {
						checkEquivalence(t, d, cfg, kind, seed, e, ev)
					}
				}
				if !checkEvery {
					checkEquivalence(t, d, cfg, kind, seed, events-1, Event{})
				}
			}
		})
	}
}

// randomEvent draws a join (fresh uniform position near the arena), a
// leave of a random node, a bounded random move of at most ±2D, or a
// teleport whose new position lies more than 2D from the old one, so the
// old and new D-balls are disjoint (the shape of a session's random-point
// moves). It keeps the node count in a workable band.
func randomEvent(rng *rand.Rand, d *Dynamic) Event {
	n := d.N()
	D := d.Topology().Cfg.Range
	switch op := rng.Intn(4); {
	case op == 0 && n < 200, n <= 5:
		return Event{Kind: Join, Pos: geom.Pt(rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1)}
	case op == 1:
		return Event{Kind: Leave, Node: rng.Intn(n)}
	case op == 3:
		x := rng.Intn(n)
		p := d.Points()[x]
		a, r := rng.Float64()*2*math.Pi, 2*D*(1+rng.Float64())
		return Event{Kind: Move, Node: x, Pos: geom.Pt(p.X+r*math.Cos(a), p.Y+r*math.Sin(a))}
	default:
		x := rng.Intn(n)
		p := d.Points()[x]
		step := D * (rng.Float64()*4 - 2)
		return Event{Kind: Move, Node: x, Pos: geom.Pt(p.X+step, p.Y+step*(rng.Float64()*2-1))}
	}
}

func checkEquivalence(t *testing.T, d *Dynamic, cfg Config, kind pointset.Kind, seed int64, event int, ev Event) {
	t.Helper()
	fresh := BuildTheta(append([]geom.Point(nil), d.Points()...), Config{Theta: cfg.Theta, Range: cfg.Range})
	if !reflect.DeepEqual(d.Topology().NearestOut, fresh.NearestOut) {
		t.Fatalf("%v seed %d event %d (%v): NearestOut diverged", kind, seed, event, ev)
	}
	if !reflect.DeepEqual(d.Topology().AdmitIn, fresh.AdmitIn) {
		t.Fatalf("%v seed %d event %d (%v): AdmitIn diverged", kind, seed, event, ev)
	}
	if !reflect.DeepEqual(d.Topology().YaoGraph().Edges(), fresh.YaoGraph().Edges()) {
		t.Fatalf("%v seed %d event %d (%v): Yao edges diverged", kind, seed, event, ev)
	}
	if !reflect.DeepEqual(d.Topology().N.Edges(), fresh.N.Edges()) {
		t.Fatalf("%v seed %d event %d (%v): N edges diverged", kind, seed, event, ev)
	}
}

// TestDynamicChangeSetProperty checks the change-driven repair row by row.
// After every event a rebuild on a shadow copy shows which phase-1 and
// phase-2 rows actually changed. A changed phase-1 row must have been
// rescanned in full, or else differ from its pre-event copy in exactly one
// sector, which now holds the event node (the only change offerAll may
// make); a changed admit row must be in the change set A. Everything
// outside those sets was skipped on the strength of the locality argument
// alone, so this is the test that the argument's case split misses no
// row. It runs every pointset generator
// over several seeds with joins, leaves, small moves and teleports, and
// checks full equivalence with the rebuild after every event too.
func TestDynamicChangeSetProperty(t *testing.T) {
	const (
		seeds  = 10
		events = 40
	)
	kinds := []pointset.Kind{
		pointset.KindUniform, pointset.KindCivilized, pointset.KindClustered, pointset.KindGrid,
		pointset.KindExponential, pointset.KindRing, pointset.KindBridge,
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(100*int64(kind) + seed))
				pts := pointset.Generate(kind, 50+rng.Intn(70), seed)
				cfg := Config{Theta: math.Pi / 6, Range: unitdisk.CriticalRange(pts) * 1.3}
				d := NewDynamic(pts, cfg)
				for e := 0; e < events; e++ {
					ev := randomEvent(rng, d)
					near := rowsAfter(d.Topology().NearestOut, ev)
					admit := rowsAfter(d.Topology().AdmitIn, ev)
					st := d.Apply(ev)
					fresh := BuildTheta(append([]geom.Point(nil), d.Points()...), cfg)
					x := int32(-3) // a Leave's node is gone: no row may gain it
					switch ev.Kind {
					case Join:
						x = int32(d.N() - 1)
					case Move:
						x = int32(ev.Node)
					}
					for u := range fresh.NearestOut {
						if d.seen[u] != d.stamp && !reflect.DeepEqual(near[u], fresh.NearestOut[u]) && !takesOneSector(near[u], fresh.NearestOut[u], x) {
							t.Fatalf("%v seed %d event %d (%v): phase-1 row %d changed without a rescan, and not by x taking one sector: %v → %v", kind, seed, e, ev, u, near[u], fresh.NearestOut[u])
						}
						if !reflect.DeepEqual(admit[u], fresh.AdmitIn[u]) && d.inA[u] != d.stamp {
							t.Fatalf("%v seed %d event %d (%v): admit row %d changed outside the change set", kind, seed, e, ev, u)
						}
					}
					if st.Touched != len(d.admit) {
						t.Fatalf("%v seed %d event %d (%v): Touched %d, change set holds %d", kind, seed, e, ev, st.Touched, len(d.admit))
					}
					checkEquivalence(t, d, cfg, kind, seed, e, ev)
				}
			}
		})
	}
}

// takesOneSector reports whether after differs from before in exactly one
// sector, and that sector now holds x.
func takesOneSector(before, after []int32, x int32) bool {
	diff := 0
	for s, v := range after {
		if v != before[s] {
			if v != x {
				return false
			}
			diff++
		}
	}
	return diff == 1
}

// rowsAfter copies a sector table into the id space the event leaves
// behind, so that row u of the copy is comparable with row u after the
// event. A Join appends an empty row. A Leave marks every reference to the
// departed node with -2, which no rebuilt entry equals, renames the last
// id onto the vacated one, and drops the last row.
func rowsAfter(tab [][]int32, ev Event) [][]int32 {
	out := make([][]int32, len(tab))
	for u, row := range tab {
		out[u] = append([]int32(nil), row...)
	}
	switch ev.Kind {
	case Join:
		out = append(out, newRow(len(tab[0])))
	case Leave:
		x, z := int32(ev.Node), int32(len(tab)-1)
		for _, row := range out {
			for s, v := range row {
				switch v {
				case x:
					row[s] = -2
				case z:
					row[s] = x
				}
			}
		}
		out[x] = out[z]
		out = out[:z]
	}
	return out
}
