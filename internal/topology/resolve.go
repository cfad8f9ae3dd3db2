package topology

import (
	"context"
	"errors"
	"fmt"
	"math"

	"toporouting/internal/geom"
	"toporouting/internal/telemetry"
	"toporouting/internal/unitdisk"
)

// ErrInvalidInput is matched (errors.Is) by every rejection of ΘALG's
// input: Resolve's, ErrCoincidentPoints, and the input checks of the
// layers above (fault plans, point generators, path-loss parameters), so
// a server answers all of them as the client's error.
var ErrInvalidInput = errors.New("invalid input")

// invalid returns a rejection wrapping ErrInvalidInput.
func invalid(format string, args ...any) error {
	return fmt.Errorf("topology: %w: "+format, append([]any{ErrInvalidInput}, args...)...)
}

// Resolve is the one place ΘALG's input rules live. Theorem 2.2 holds
// only for a cone angle in (0, π/3], a range at which G* is connected and
// distinct positions, so Resolve requires
//
//   - at least two points;
//   - θ in (0, π/3], 0 selecting DefaultTheta;
//   - a range that is positive and finite, or 0, which selects
//     unitdisk.DefaultSlack × the critical range of pts under a
//     unitdisk.critical_range span;
//   - distinct positions.
//
// It returns cfg with θ and the range filled in, or an error wrapping
// ErrInvalidInput (and ErrCoincidentPoints for a shared position). The
// default range's spanning tree stops with ctx.Err() once ctx is
// cancelled. The returned Config carries the distinctness proof for pts
// as they are: a build with it skips its own check, so pts must not move
// in between.
func Resolve(ctx context.Context, pts []geom.Point, cfg Config) (Config, error) {
	if len(pts) < 2 {
		return cfg, invalid("need at least two points, got %d", len(pts))
	}
	cfg = cfg.withDefaults()
	if !(cfg.Theta > 0 && cfg.Theta <= math.Pi/3+1e-12) {
		return cfg, invalid("theta %v outside (0, π/3]", cfg.Theta)
	}
	if cfg.Range != 0 {
		if !(cfg.Range > 0) || math.IsInf(cfg.Range, 1) {
			return cfg, invalid("range %v must be positive and finite, or 0 for the default", cfg.Range)
		}
		if err := checkDistinct(pts); err != nil {
			return cfg, err
		}
		cfg.distinct = true
		return cfg, nil
	}
	// The spanning tree behind the default range shows coincident points
	// early, before joining them, and proves distinct ones distinct.
	_, span := telemetry.StartChild(ctx, "unitdisk.critical_range")
	d, distinct, err := unitdisk.DefaultRangeContext(ctx, pts)
	span.End()
	if err != nil {
		return cfg, err
	}
	if !distinct {
		return cfg, checkDistinct(pts)
	}
	cfg.Range, cfg.distinct = d, true
	return cfg, nil
}
