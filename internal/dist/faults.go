package dist

import (
	"fmt"
	"math"

	"toporouting/internal/topology"
)

// Faults is the fault-injection plan of a run. The zero value is the
// fault-free medium: every delivery succeeds after exactly one tick.
type Faults struct {
	// Drop is the per-delivery Bernoulli loss probability in [0, 1). Each
	// unicast, each broadcast reception, and each ACK is sampled
	// independently.
	Drop float64
	// MaxDelay adds a uniformly random extra delay in [0, MaxDelay] ticks
	// to every successful delivery (0 = fixed unit link delay).
	MaxDelay int
	// Crashes is the number of node crash events injected. Victims are
	// distinct random nodes; each crashes at a random time in
	// [2, 2+CrashSpread) and restarts — with all protocol state lost and a
	// bumped incarnation — after a random delay in [1, 1+RestartDelay).
	Crashes int
	// CrashSpread is the window (ticks) over which crashes occur
	// (0 selects 32).
	CrashSpread int
	// RestartDelay is the maximum restart delay (0 selects 16).
	RestartDelay int
}

func (f Faults) withDefaults() Faults {
	if f.CrashSpread <= 0 {
		f.CrashSpread = 32
	}
	if f.RestartDelay <= 0 {
		f.RestartDelay = 16
	}
	return f
}

// Validate rejects plans the engine cannot terminate under: a drop
// probability outside [0, 1) or negative delay/crash parameters.
func (f Faults) Validate() error { return f.validate() }

// validate rejects plans the engine cannot terminate under, with an error
// wrapping topology.ErrInvalidInput.
func (f Faults) validate() error {
	if f.Drop < 0 || f.Drop >= 1 {
		return fmt.Errorf("dist: %w: drop probability %v outside [0, 1)", topology.ErrInvalidInput, f.Drop)
	}
	if f.MaxDelay < 0 {
		return fmt.Errorf("dist: %w: negative max delay %d", topology.ErrInvalidInput, f.MaxDelay)
	}
	if f.Crashes < 0 {
		return fmt.Errorf("dist: %w: negative crash count %d", topology.ErrInvalidInput, f.Crashes)
	}
	return nil
}

// Active reports whether the plan injects any fault at all.
func (f Faults) Active() bool {
	return f.Drop > 0 || f.MaxDelay > 0 || f.Crashes > 0
}

// helloRepeats returns how many times each node broadcasts its HELLO
// beacon: once on a loss-free medium, and otherwise enough repetitions
// that the probability of a neighbor missing every beacon in one
// direction, Drop^repeats, falls below ~1e-6 (both directions must fail —
// and the reliable HELLO-REPLY echo must also be lost — before a link goes
// undiscovered, so the joint failure probability is far smaller still).
func (f Faults) helloRepeats() int {
	if f.Drop <= 0 {
		return 1
	}
	r := int(math.Ceil(math.Log(1e-6) / math.Log(f.Drop)))
	if r < 3 {
		r = 3
	}
	if r > 16 {
		r = 16
	}
	return r
}
