package topology

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// FuzzDynamicRepair drives the incremental maintenance through an event
// sequence decoded from the fuzzer's bytes and requires NearestOut,
// AdmitIn, YaoGraph and N to equal a from-scratch BuildTheta after every event.
// An edge observer watches every repair: no event may report an edge twice
// or both add and remove it.
//
// The first three bytes pick the start: n0 = 2 + b0%40 uniform points from
// seed b1, and D = CriticalRange·(0.5 + b2/64), so D ranges from half the
// connectivity threshold (disconnected networks, isolated nodes) to several
// times it. Every further 4-byte group (op, node, a, b) is one event:
// op%4 selects join at (a, b) on the unit square, leave of node%n, a move
// of node%n by up to ±2D per axis, or a teleport of node%n by 2D·(1+b/255)
// in direction a — a move whose old and new D-balls are disjoint.
// Decoded positions get a jitter of up to 1e-9 from a generator seeded by
// the input, so exact distance ties (the one documented divergence, see
// Dynamic) cannot arise; events onto an occupied position and leaves below
// two nodes are skipped.
func FuzzDynamicRepair(f *testing.F) {
	f.Add([]byte{10, 1, 19, 2, 3, 40, 200, 1, 0, 0, 0, 0, 5, 128, 128, 3, 7, 64, 255})
	f.Add([]byte{0, 0, 0, 0, 0, 10, 10, 0, 0, 250, 250, 1, 1, 0, 0})
	f.Add([]byte{38, 9, 255, 3, 1, 0, 0, 3, 2, 128, 0, 3, 3, 255, 255, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		pts := pointset.Generate(pointset.KindUniform, 2+int(data[0])%40, int64(data[1]))
		D := unitdisk.CriticalRange(pts) * (0.5 + float64(data[2])/64)
		cfg := Config{Theta: math.Pi / 6, Range: D}
		d := NewDynamic(pts, cfg)
		log := &edgeLog{}
		d.SetEdgeObserver(log)
		jit := rand.New(rand.NewSource(int64(len(data))*7919 + int64(data[1])))
		jitter := func(p geom.Point) geom.Point {
			return geom.Pt(p.X+jit.Float64()*1e-9, p.Y+jit.Float64()*1e-9)
		}
		for i, e := 3, 0; i+3 < len(data) && e < 64; i, e = i+4, e+1 {
			op, node, a, b := data[i]%4, int(data[i+1])%d.N(), float64(data[i+2]), float64(data[i+3])
			var ev Event
			switch op {
			case 0:
				ev = Event{Kind: Join, Pos: jitter(geom.Pt(a/255, b/255))}
			case 1:
				if d.N() <= 2 {
					continue
				}
				ev = Event{Kind: Leave, Node: node}
			case 2:
				p := d.Points()[node]
				ev = Event{Kind: Move, Node: node, Pos: jitter(geom.Pt(p.X+2*D*(a/128-1), p.Y+2*D*(b/128-1)))}
			default:
				p := d.Points()[node]
				ang, r := a/256*2*math.Pi, 2*D*(1+b/255)
				ev = Event{Kind: Move, Node: node, Pos: jitter(geom.Pt(p.X+r*math.Cos(ang), p.Y+r*math.Sin(ang)))}
			}
			if ev.Kind != Leave && d.HasNodeAt(ev.Pos) {
				continue
			}
			log.ops = log.ops[:0]
			d.Apply(ev)
			label := fmt.Sprintf("event %d (%v)", e, ev)
			requireUnnetted(t, log.ops, label)
			requireEquivalent(t, d, label)
		}
	})
}
