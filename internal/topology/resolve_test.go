package topology

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"toporouting/internal/geom"
	"toporouting/internal/pointset"
	"toporouting/internal/unitdisk"
)

// TestResolveRejects pins the input contract: each broken rule is an error
// matching ErrInvalidInput that names the rule, and coincident points also
// match ErrCoincidentPoints under a default and an explicit range.
func TestResolveRejects(t *testing.T) {
	pts := pointset.Generate(pointset.KindUniform, 50, 1)
	dup := append([]geom.Point(nil), pts...)
	dup[40] = dup[9]
	for _, c := range []struct {
		name string
		pts  []geom.Point
		cfg  Config
		msg  string
	}{
		{"one point", pts[:1], Config{}, "at least two points"},
		{"theta 2", pts, Config{Theta: 2}, "theta 2 outside"},
		{"theta -0.5", pts, Config{Theta: -0.5}, "theta -0.5 outside"},
		{"theta NaN", pts, Config{Theta: math.NaN()}, "theta NaN outside"},
		{"range -1", pts, Config{Range: -1}, "range -1 must be positive"},
		{"range +Inf", pts, Config{Range: math.Inf(1)}, "range +Inf must be positive"},
		{"range NaN", pts, Config{Range: math.NaN()}, "range NaN must be positive"},
		{"coincident, default range", dup, Config{}, "coincident points"},
		{"coincident, explicit range", dup, Config{Range: 0.3}, "coincident points"},
	} {
		_, err := Resolve(context.Background(), c.pts, c.cfg)
		if !errors.Is(err, ErrInvalidInput) || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: err = %v, want ErrInvalidInput naming %q", c.name, err, c.msg)
		}
		if strings.HasPrefix(c.name, "coincident") && !errors.Is(err, ErrCoincidentPoints) {
			t.Errorf("%s: err = %v, want ErrCoincidentPoints", c.name, err)
		}
	}
}

// TestResolveDefaults: θ 0 selects DefaultTheta and range 0 selects
// DefaultRange bit for bit; explicit values pass through. A build from the
// resolved config, which skips its own distinctness pass, matches a build
// from the plain values, and the topology's echoed Cfg carries no proof.
// A cancelled context stops the default range with context.Canceled.
func TestResolveDefaults(t *testing.T) {
	pts := pointset.Generate(pointset.KindClustered, 400, 3)
	for _, in := range []Config{{}, {Theta: math.Pi / 4, Range: 0.2}} {
		cfg, err := Resolve(context.Background(), pts, in)
		if err != nil {
			t.Fatal(err)
		}
		wantTheta, wantRange := in.Theta, in.Range
		if wantTheta == 0 {
			wantTheta = DefaultTheta
		}
		if wantRange == 0 {
			wantRange = unitdisk.DefaultRange(pts)
		}
		if cfg.Theta != wantTheta || cfg.Range != wantRange {
			t.Fatalf("Resolve(%+v) = θ %v, range %v; want %v, %v", in, cfg.Theta, cfg.Range, wantTheta, wantRange)
		}
		got := BuildTheta(pts, cfg)
		want := BuildTheta(pts, Config{Theta: wantTheta, Range: wantRange})
		if !reflect.DeepEqual(got.N.Edges(), want.N.Edges()) || !reflect.DeepEqual(got.Cfg, want.Cfg) {
			t.Fatalf("Resolve(%+v): the resolved build differs from the plain one", in)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Resolve(ctx, pts, Config{}); !errors.Is(err, context.Canceled) || errors.Is(err, ErrInvalidInput) {
		t.Fatalf("cancelled default range: err = %v, want context.Canceled only", err)
	}
}
