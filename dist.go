package toporouting

import (
	"context"

	"toporouting/internal/dist"
)

// FaultPlan configures fault injection for the asynchronous distributed
// builder: per-link Bernoulli message drop, bounded random delivery delay,
// and node crash/restart cycles with full state loss. The zero value is a
// fault-free plan.
type FaultPlan = dist.Faults

// DistStats is the traffic and fault accounting of one asynchronous
// distributed build.
type DistStats = dist.Stats

// DistCertificate is the convergence certificate of an asynchronous
// distributed build: quiescence, an edge diff against the centralized
// reference, connectivity, and the Lemma 2.1 degree bound.
type DistCertificate = dist.Certificate

// DistReport bundles the run statistics and convergence certificate of one
// asynchronous distributed build.
type DistReport struct {
	Stats       DistStats
	Certificate DistCertificate
}

// BuildNetworkDistributedAsync builds the topology with the message-passing
// protocol engine (internal/dist): every node is an independent actor that
// discovers neighbors through HELLO beacons, announces per-sector selections
// (phase 1), and requests/grants admissions (phase 2) over a lossy, delayed
// medium sampled from the fault plan — no actor reads global state. The
// engine runs to quiescence under seed-deterministic discrete-event
// scheduling, so replays with equal inputs are bit-identical.
//
// On a fault-free plan the result is edge-identical to BuildNetwork; under
// faults the returned certificate reports what still holds (connectivity and
// the degree bound, per the paper's Lemma 2.1). The certificate's Holds
// method is the go/no-go signal.
func BuildNetworkDistributedAsync(points []Point, opts Options, faults FaultPlan, seed int64) (*Network, DistReport, error) {
	return BuildNetworkDistributedAsyncContext(context.Background(), points, opts, faults, seed)
}

// BuildNetworkDistributedAsyncContext is BuildNetworkDistributedAsync
// under a cancellation context: the discrete-event protocol engine checks
// ctx periodically and abandons the run with ctx.Err() when it is
// cancelled. A background context reproduces the uncancelled build exactly.
func BuildNetworkDistributedAsyncContext(ctx context.Context, points []Point, opts Options, faults FaultPlan, seed int64) (*Network, DistReport, error) {
	o, _, err := opts.withDefaults(ctx, points)
	if err != nil {
		return nil, DistReport{}, err
	}
	out, err := dist.BuildContext(ctx, points, dist.Config{
		Theta:     o.Theta,
		Range:     o.Range,
		Seed:      seed,
		Faults:    faults,
		Telemetry: o.Telemetry,
	})
	if err != nil {
		return nil, DistReport{}, err
	}
	rep := DistReport{Stats: out.Stats, Certificate: out.Certify()}
	return &Network{
		opts: o,
		top:  out.Top,
	}, rep, nil
}
