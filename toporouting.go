// Package toporouting is a library for local topology control and
// competitive routing in ad hoc wireless networks, reproducing "On Local
// Algorithms for Topology Control and Routing in Ad Hoc Networks" (Jia,
// Rajaraman, Scheideler; SPAA 2003).
//
// The package exposes three layers:
//
//   - Topology control: BuildNetwork runs the two-phase local algorithm
//     ΘALG over a planar point set, producing a connected, constant-degree
//     topology with O(1) energy-stretch (Theorem 2.2 of the paper).
//     BuildNetworkDistributed also reports the message counts of the
//     paper's 3-round protocol; BuildNetworkDistributedAsync runs that
//     protocol as asynchronous message passing under injected faults.
//
//   - Medium access: the randomized symmetry-breaking MAC (Section 3.3)
//     and the honeycomb algorithm for fixed transmission strength
//     (Section 3.4), both reachable through Simulate.
//
//   - Routing: NewRouter exposes the (T,γ)-balancing algorithm
//     (Section 3.2), a local height-balancing rule with edge costs that is
//     constant-competitive in throughput and average cost against any
//     offline schedule (Theorem 3.1).
//
// The experiment harness behind EXPERIMENTS.md is reachable through
// RunExperiment and the benchmarks in bench_test.go.
package toporouting

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
	"toporouting/internal/interference"
	"toporouting/internal/pointset"
	"toporouting/internal/stretch"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// Point is a node position in the 2-D Euclidean plane.
type Point = geom.Point

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Options configures BuildNetwork. Every builder checks it the same way
// and answers an invalid value with an error matching ErrInvalidInput.
type Options struct {
	// Theta is the ΘALG cone angle in (0, π/3]; 0 selects π/6.
	Theta float64
	// Range is the maximum transmission range D, positive and finite. 0
	// selects 1.3 × the critical connectivity range of the point set.
	Range float64
	// Kappa is the path-loss exponent for energy costs (κ ≥ 2 per the
	// power-attenuation model); 0 selects 2.
	Kappa float64
	// Delta is the interference guard zone Δ > 0; 0 selects 0.5.
	Delta float64
	// Telemetry, when non-nil, records ΘALG build-phase timings and
	// counters (and trace events when the scope has a sink). nil disables
	// instrumentation at zero cost.
	Telemetry *Telemetry
}

// withDefaults applies the κ/Δ defaults and resolves ΘALG's input over
// pts, returning the filled-in options and the resolved build
// configuration.
func (o Options) withDefaults(ctx context.Context, pts []Point) (Options, topology.Config, error) {
	var err error
	if o.Kappa, o.Delta, err = kappaDelta(o.Kappa, o.Delta); err != nil {
		return o, topology.Config{}, err
	}
	cfg, err := topology.Resolve(ctx, pts, topology.Config{Theta: o.Theta, Range: o.Range, Telemetry: o.Telemetry})
	o.Theta, o.Range = cfg.Theta, cfg.Range
	return o, cfg, err
}

// kappaDelta applies the defaults and bounds of the path-loss exponent κ
// and the interference guard zone Δ, which the ΘALG build does not read.
func kappaDelta(kappa, delta float64) (float64, float64, error) {
	if kappa == 0 {
		kappa = 2
	}
	if !(kappa >= 2) {
		return kappa, delta, invalid("kappa %v below 2", kappa)
	}
	if delta == 0 {
		delta = interference.DefaultDelta
	}
	if !(delta > 0) {
		return kappa, delta, invalid("delta %v must be positive", delta)
	}
	return kappa, delta, nil
}

// invalid returns a rejection wrapping ErrInvalidInput.
func invalid(format string, args ...any) error {
	return fmt.Errorf("toporouting: %w: "+format, append([]any{ErrInvalidInput}, args...)...)
}

// Network is a built topology: the bounded-degree graph N of ΘALG over a
// point set, together with the transmission graph G* it was carved from.
// G* is materialized lazily on first use — no /v1/topology field needs it,
// so a build that only reports N never pays the dense unit-disk scan.
type Network struct {
	opts Options
	top  *topology.Topology
	// gstarOnce guards the lazy G* build; access through transmissionGraph.
	gstarOnce sync.Once
	gstarG    *graph.Graph
	// workers is the pool cap the network was built with (0 = sequential);
	// interference-set computations inherit it.
	workers int
}

// transmissionGraph returns the unit-disk transmission graph G*, building
// it on first use. Safe for concurrent use.
func (nw *Network) transmissionGraph() *graph.Graph {
	nw.gstarOnce.Do(func() {
		nw.gstarG = unitdisk.Build(nw.top.Pts, nw.opts.Range)
	})
	return nw.gstarG
}

// ErrInvalidInput is matched (errors.Is) by every rejection of a caller's
// input: fewer than two points, θ outside (0, π/3], a range that is not
// positive and finite (or 0 for the default), κ below 2, Δ not positive,
// coincident points, an invalid fault plan or simulation option, and an
// unknown point distribution.
var ErrInvalidInput = topology.ErrInvalidInput

// ErrCoincidentPoints is the error the builders return when two points
// share a position: ΘALG requires distinct positions. It wraps
// ErrInvalidInput.
var ErrCoincidentPoints = topology.ErrCoincidentPoints

// BuildNetwork runs ΘALG over the given points. It returns an error
// wrapping ErrInvalidInput for invalid options, fewer than two points or
// coincident points (which also match ErrCoincidentPoints); it does not
// require G* to be connected, but stretch evaluation reports disconnected
// pairs.
func BuildNetwork(points []Point, opts Options) (*Network, error) {
	return BuildNetworkContext(context.Background(), points, opts, 0, nil)
}

// BuildArena is reusable backing storage for BuildNetworkContext: the
// spatial index, sector tables, adjacency slab, and validation scratch of
// a ΘALG build, recycled across builds. Serving layers pool arenas to make
// the per-request build path effectively allocation-free. An arena is not
// safe for concurrent builds; the zero value (via NewBuildArena) is ready
// to use.
type BuildArena struct {
	a topology.BuildArena
}

// NewBuildArena returns an empty arena.
func NewBuildArena() *BuildArena { return new(BuildArena) }

// Footprint approximates the arena's retained backing size in bytes, so
// pools can drop arenas that grew serving an outsized request.
func (ar *BuildArena) Footprint() int { return ar.a.Footprint() }

// BuildNetworkContext is BuildNetwork under a cancellation context: the
// ΘALG build checks ctx between row batches, so a caller whose request was
// cancelled (client disconnect, deadline, server drain) stops the build
// promptly and receives ctx.Err(). workers caps the build's goroutines
// (≤ 1 stays sequential) and the interference-set fan-out of the returned
// network; the topology is identical for every worker count.
//
// A non-nil ar makes the build reuse its storage. The returned Network
// then aliases the arena's memory: it is valid only until the next build
// with ar, and must not be retained past that point (the lazily built
// transmission graph G* is heap-allocated and exempt, but the topology
// and its graphs are not).
func BuildNetworkContext(ctx context.Context, points []Point, opts Options, workers int, ar *BuildArena) (*Network, error) {
	o, cfg, err := opts.withDefaults(ctx, points)
	if err != nil {
		return nil, err
	}
	var tar *topology.BuildArena
	if ar != nil {
		tar = &ar.a
	}
	top, err := topology.BuildThetaArena(ctx, points, cfg, workers, tar)
	if err != nil {
		return nil, err
	}
	return &Network{
		opts:    o,
		top:     top,
		workers: workers,
	}, nil
}

// ChurnEvent is one dynamic-topology event: a node joining, leaving, or
// moving.
type ChurnEvent = topology.Event

// Churn event kinds.
const (
	// EventJoin adds a node at Event.Pos.
	EventJoin = topology.Join
	// EventLeave removes node Event.Node; the last node takes the vacated
	// id, keeping ids dense.
	EventLeave = topology.Leave
	// EventMove relocates node Event.Node to Event.Pos.
	EventMove = topology.Move
)

// UpdateStats reports the locality of one incremental repair.
type UpdateStats = topology.UpdateStats

// DynamicNetwork maintains a ΘALG topology under node churn. Where
// BuildNetwork recomputes all n nodes, Apply recomputes only the rows the
// event changed an input of — phase-1 selections of the event node and of
// the nodes that had selected it, phase-2 admissions of the nodes whose
// candidate set changed — all within the locality radius the paper's
// 3-round protocol implies, so a single join, leave, or move costs a small
// constant fraction of a rebuild. The maintained topology is edge-for-edge identical to a
// from-scratch build on the current point set (under the paper's standing
// unique-pairwise-distance assumption). The transmission range is fixed at
// construction; DynamicNetwork is not safe for concurrent use.
type DynamicNetwork struct {
	dyn  *topology.Dynamic
	opts Options
}

// BuildDynamicNetwork builds the initial topology (over a copy of points)
// and returns the churn-maintenance handle. Like BuildNetwork it returns an
// error for invalid options, fewer than two points or coincident points.
func BuildDynamicNetwork(points []Point, opts Options) (*DynamicNetwork, error) {
	o, cfg, err := opts.withDefaults(context.Background(), points)
	if err != nil {
		return nil, err
	}
	top, err := topology.BuildThetaContext(context.Background(), points, cfg, 0)
	if err != nil {
		return nil, err
	}
	return &DynamicNetwork{dyn: topology.NewDynamicFrom(top), opts: o}, nil
}

// Apply executes one churn event and repairs the topology locally,
// reporting how few nodes the repair touched. It returns an error for an
// out-of-range node, an occupied position, or a Leave that would drop the
// node count below two.
func (dn *DynamicNetwork) Apply(ev ChurnEvent) (UpdateStats, error) {
	switch ev.Kind {
	case EventJoin:
		if dn.dyn.HasNodeAt(ev.Pos) {
			return UpdateStats{}, fmt.Errorf("toporouting: position (%v, %v) already occupied", ev.Pos.X, ev.Pos.Y)
		}
	case EventLeave:
		if ev.Node < 0 || ev.Node >= dn.dyn.N() {
			return UpdateStats{}, fmt.Errorf("toporouting: node %d out of range [0,%d)", ev.Node, dn.dyn.N())
		}
		if dn.dyn.N() <= 2 {
			return UpdateStats{}, errors.New("toporouting: leave would drop below two nodes")
		}
	case EventMove:
		if ev.Node < 0 || ev.Node >= dn.dyn.N() {
			return UpdateStats{}, fmt.Errorf("toporouting: node %d out of range [0,%d)", ev.Node, dn.dyn.N())
		}
		if ev.Pos != dn.dyn.Points()[ev.Node] && dn.dyn.HasNodeAt(ev.Pos) {
			return UpdateStats{}, fmt.Errorf("toporouting: position (%v, %v) already occupied", ev.Pos.X, ev.Pos.Y)
		}
	default:
		return UpdateStats{}, fmt.Errorf("toporouting: unknown churn event kind %d", int(ev.Kind))
	}
	return dn.dyn.Apply(ev), nil
}

// Join adds a node at p and returns its id alongside the repair stats.
func (dn *DynamicNetwork) Join(p Point) (int, UpdateStats, error) {
	st, err := dn.Apply(ChurnEvent{Kind: EventJoin, Pos: p})
	if err != nil {
		return -1, st, err
	}
	return dn.dyn.N() - 1, st, nil
}

// Leave removes node v; the last node takes id v.
func (dn *DynamicNetwork) Leave(v int) (UpdateStats, error) {
	return dn.Apply(ChurnEvent{Kind: EventLeave, Node: v})
}

// MoveNode relocates node v to p.
func (dn *DynamicNetwork) MoveNode(v int, p Point) (UpdateStats, error) {
	return dn.Apply(ChurnEvent{Kind: EventMove, Node: v, Pos: p})
}

// N returns the current node count.
func (dn *DynamicNetwork) N() int { return dn.dyn.N() }

// Points returns the current node positions. Callers must not mutate the
// slice; the next Apply invalidates it.
func (dn *DynamicNetwork) Points() []Point { return dn.dyn.Points() }

// Edges returns the current undirected topology edges as [u, v] pairs with
// u < v, sorted.
func (dn *DynamicNetwork) Edges() [][2]int {
	es := dn.dyn.Topology().N.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// NumEdges returns the current edge count.
func (dn *DynamicNetwork) NumEdges() int { return dn.dyn.Topology().N.NumEdges() }

// MaxDegree returns the current maximum degree (always ≤ the Lemma 2.1
// bound, which churn maintenance preserves).
func (dn *DynamicNetwork) MaxDegree() int { return dn.dyn.Topology().N.MaxDegree() }

// Connected reports whether the current topology is connected.
func (dn *DynamicNetwork) Connected() bool { return dn.dyn.Topology().N.Connected() }

// Snapshot materializes the current state as an immutable Network, for
// stretch and interference evaluation. The snapshot copies the positions,
// so later churn does not affect it. The transmission graph G* is built
// lazily on first use — a global operation, so snapshot at evaluation
// points rather than per event.
func (dn *DynamicNetwork) Snapshot() *Network {
	pts := append([]Point(nil), dn.dyn.Points()...)
	top := dn.dyn.Topology()
	return &Network{
		opts: dn.opts,
		top: &topology.Topology{
			Pts:        pts,
			Cfg:        top.Cfg,
			Sectors:    top.Sectors,
			N:          top.N.Clone(),
			NearestOut: cloneTable(top.NearestOut),
			AdmitIn:    cloneTable(top.AdmitIn),
		},
	}
}

func cloneTable(t [][]int32) [][]int32 {
	out := make([][]int32, len(t))
	for i, row := range t {
		out[i] = append([]int32(nil), row...)
	}
	return out
}

// ProtocolStats reports the message traffic of the distributed protocol.
type ProtocolStats = topology.ProtocolStats

// BuildNetworkDistributed builds the topology as BuildNetwork does and
// returns the per-round message counts of the 3-round protocol (Position /
// Neighborhood / Connection broadcasts) that builds it, read off the
// per-node sector tables. With Options.Telemetry set it also adds them to
// the topology.dist.* counters and emits a dist_build trace event.
func BuildNetworkDistributed(points []Point, opts Options) (*Network, ProtocolStats, error) {
	nw, err := BuildNetworkContext(context.Background(), points, opts, 0, nil)
	if err != nil {
		return nil, ProtocolStats{}, err
	}
	st := nw.top.ProtocolStats()
	if tel := nw.opts.Telemetry; tel.Enabled() {
		tel.Counter("topology.dist.builds").Inc()
		tel.Counter("topology.dist.position_msgs").Add(int64(st.PositionMsgs))
		tel.Counter("topology.dist.neighborhood_msgs").Add(int64(st.NeighborhoodMsgs))
		tel.Counter("topology.dist.connection_msgs").Add(int64(st.ConnectionMsgs))
		tel.Counter("topology.dist.deliveries").Add(int64(st.Deliveries))
		if tel.Tracing() {
			tel.Emit(TraceEvent{Layer: "topology", Kind: "dist_build", Fields: map[string]float64{
				"n":                 float64(len(points)),
				"edges":             float64(nw.NumEdges()),
				"position_msgs":     float64(st.PositionMsgs),
				"neighborhood_msgs": float64(st.NeighborhoodMsgs),
				"connection_msgs":   float64(st.ConnectionMsgs),
				"deliveries":        float64(st.Deliveries),
			}})
		}
	}
	return nw, st, nil
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.top.N.N() }

// Points returns the node positions. Callers must not mutate the slice.
func (nw *Network) Points() []Point { return nw.top.Pts }

// Options returns the effective options the network was built with
// (defaults resolved).
func (nw *Network) Options() Options { return nw.opts }

// Edges returns the undirected edges of the topology N as [u, v] pairs
// with u < v, sorted.
func (nw *Network) Edges() [][2]int {
	es := nw.top.N.Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// NumEdges returns the number of edges of N.
func (nw *Network) NumEdges() int { return nw.top.N.NumEdges() }

// TransmissionEdges returns the edges of the underlying transmission graph
// G* (all pairs within range) as [u, v] pairs with u < v, sorted. G* is
// typically far denser than N.
func (nw *Network) TransmissionEdges() [][2]int {
	es := nw.transmissionGraph().Edges()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// Neighbors returns node u's adjacency list in N as node ids, in insertion
// order. Callers must not mutate the slice; for an arena-built network it
// aliases arena memory and is valid only until the arena's next build.
func (nw *Network) Neighbors(u int) []int32 { return nw.top.N.Neighbors(u) }

// Degree returns the degree of node v in N.
func (nw *Network) Degree(v int) int { return nw.top.N.Degree(v) }

// MaxDegree returns the maximum degree of N; Lemma 2.1 bounds it by
// DegreeBound.
func (nw *Network) MaxDegree() int { return nw.top.N.MaxDegree() }

// DegreeBound returns the 4π/θ degree bound of Lemma 2.1.
func (nw *Network) DegreeBound() int { return nw.top.DegreeBound() }

// Connected reports whether N is connected.
func (nw *Network) Connected() bool { return nw.top.N.Connected() }

// TransmissionGraphConnected reports whether the underlying G* is
// connected (the paper's standing assumption).
func (nw *Network) TransmissionGraphConnected() bool { return nw.transmissionGraph().Connected() }

// StretchSummary reports a stretch evaluation.
type StretchSummary struct {
	// Max is the stretch (maximum ratio); +Inf if any pair reachable in
	// G* is unreachable in N.
	Max float64
	// Mean and P95 summarize the ratio distribution.
	Mean, P95 float64
	// Pairs is the number of measured pairs.
	Pairs int
}

// EnergyStretch measures the energy-stretch of N relative to G* under the
// network's κ (Theorem 2.2 claims O(1)). maxSources bounds the number of
// shortest-path trees (0 = exact, all sources).
func (nw *Network) EnergyStretch(maxSources int) StretchSummary {
	r := stretch.Evaluate(nw.top.N, nw.transmissionGraph(), nw.top.Pts, stretch.Energy, stretch.Options{
		Kappa:   nw.opts.Kappa,
		Sources: headSources(nw.N(), maxSources),
	})
	return StretchSummary{Max: r.Max, Mean: r.Mean, P95: r.P95, Pairs: r.Pairs}
}

// DistanceStretch measures the distance-stretch of N relative to G*
// (Theorem 2.7 claims O(1) for civilized point sets).
func (nw *Network) DistanceStretch(maxSources int) StretchSummary {
	r := stretch.Evaluate(nw.top.N, nw.transmissionGraph(), nw.top.Pts, stretch.Distance, stretch.Options{
		Sources: headSources(nw.N(), maxSources),
	})
	return StretchSummary{Max: r.Max, Mean: r.Mean, P95: r.P95, Pairs: r.Pairs}
}

func headSources(n, max int) []int {
	if max <= 0 || max >= n {
		return nil
	}
	out := make([]int, max)
	for i := range out {
		out[i] = i * n / max
	}
	return out
}

// InterferenceNumber computes the interference number I of N under the
// network's guard zone Δ (Lemma 2.10: O(log n) whp for uniform random
// nodes). Networks built with a worker cap reuse it for the
// interference-set fan-out; the result is identical either way.
func (nw *Network) InterferenceNumber() int {
	m := interference.NewModel(nw.opts.Delta)
	m.Workers = nw.workers
	return m.Number(nw.top.Pts, nw.top.N.Edges())
}

// TransmissionInterferenceNumber computes the interference number of the
// full transmission graph G*. Comparing it against InterferenceNumber shows
// why topology control matters: the dense graph's links interfere far more,
// so a MAC layer can use only a tiny fraction of them concurrently. For
// graphs beyond 2000 edges the value is computed over a 500-edge sample
// (a lower bound on the true maximum).
func (nw *Network) TransmissionInterferenceNumber() int {
	m := interference.NewModel(nw.opts.Delta)
	m.Workers = nw.workers
	edges := nw.transmissionGraph().Edges()
	if len(edges) > 2000 {
		return m.NumberSampled(nw.top.Pts, edges, 500)
	}
	return m.Number(nw.top.Pts, edges)
}

// MinEnergyRoute returns the node sequence of the least-energy path from u
// to v in N, or nil if v is unreachable.
func (nw *Network) MinEnergyRoute(u, v int) []int {
	_, parent := nw.top.N.Dijkstra(u, nw.top.EnergyCost(nw.opts.Kappa))
	return graph.PathFromParents(parent, u, v)
}

// ThetaPath returns the θ-path replacement (Section 2.4) for a G* edge
// (u, v): a walk in N from u to v. It returns an error if |uv| exceeds the
// transmission range.
func (nw *Network) ThetaPath(u, v int) ([]int, error) {
	if geom.Dist(nw.top.Pts[u], nw.top.Pts[v]) > nw.opts.Range {
		return nil, fmt.Errorf("toporouting: (%d,%d) is not a transmission-graph edge", u, v)
	}
	return nw.top.ThetaPathNodes(u, v), nil
}

// EnergyCost returns the energy |uv|^κ of a direct transmission between
// nodes u and v.
func (nw *Network) EnergyCost(u, v int) float64 {
	return geom.EnergyCost(nw.top.Pts[u], nw.top.Pts[v], nw.opts.Kappa)
}

// GeneratePoints produces one of the built-in node distributions:
// "uniform", "civilized", "clustered", "grid", "expchain", "ring",
// "bridge". Results are deterministic in (kind, n, seed).
func GeneratePoints(kind string, n int, seed int64) ([]Point, error) {
	kinds := map[string]pointset.Kind{
		"uniform":   pointset.KindUniform,
		"civilized": pointset.KindCivilized,
		"clustered": pointset.KindClustered,
		"grid":      pointset.KindGrid,
		"expchain":  pointset.KindExponential,
		"ring":      pointset.KindRing,
		"bridge":    pointset.KindBridge,
	}
	k, ok := kinds[kind]
	if !ok {
		return nil, invalid("unknown distribution %q", kind)
	}
	if n < 2 {
		return nil, invalid("need n ≥ 2, got %d", n)
	}
	return pointset.Generate(k, n, seed), nil
}
