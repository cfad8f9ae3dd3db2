package server

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"toporouting"
)

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// pointSpec is the shared "where do the nodes come from" block: either an
// explicit point list or a (dist, n, seed) triple for the built-in
// generators. Explicit points win when both are present.
type pointSpec struct {
	Points [][2]float64 `json:"points,omitempty"`
	Dist   string       `json:"dist,omitempty"`
	N      int          `json:"n,omitempty"`
	Seed   int64        `json:"seed,omitempty"`
}

// resolve materializes the spec into node positions, enforcing the server's
// node cap. Explicit coordinates must be finite — the same contract
// fileio.ReadPoints enforces on disk inputs.
func (p pointSpec) resolve(maxNodes int) ([]toporouting.Point, error) {
	if len(p.Points) > 0 {
		if len(p.Points) > maxNodes {
			return nil, fmt.Errorf("%d points exceeds the server cap of %d", len(p.Points), maxNodes)
		}
		pts := make([]toporouting.Point, len(p.Points))
		for i, xy := range p.Points {
			if !finite(xy[0]) || !finite(xy[1]) {
				return nil, fmt.Errorf("points[%d]: non-finite coordinate (%v, %v)", i, xy[0], xy[1])
			}
			pts[i] = toporouting.Pt(xy[0], xy[1])
		}
		return pts, nil
	}
	dist := p.Dist
	if dist == "" {
		dist = "uniform"
	}
	if p.N < 2 {
		return nil, errors.New("need points or n ≥ 2")
	}
	if p.N > maxNodes {
		return nil, fmt.Errorf("n %d exceeds the server cap of %d", p.N, maxNodes)
	}
	return toporouting.GeneratePoints(dist, p.N, p.Seed)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// faultSpec mirrors toporouting.FaultPlan for distributed builds.
type faultSpec struct {
	Drop         float64 `json:"drop,omitempty"`
	MaxDelay     int     `json:"max_delay,omitempty"`
	Crashes      int     `json:"crashes,omitempty"`
	CrashSpread  int     `json:"crash_spread,omitempty"`
	RestartDelay int     `json:"restart_delay,omitempty"`
}

func (f *faultSpec) plan() toporouting.FaultPlan {
	if f == nil {
		return toporouting.FaultPlan{}
	}
	return toporouting.FaultPlan{
		Drop:         f.Drop,
		MaxDelay:     f.MaxDelay,
		Crashes:      f.Crashes,
		CrashSpread:  f.CrashSpread,
		RestartDelay: f.RestartDelay,
	}
}

// topologyRequest is the body of POST /v1/topology.
type topologyRequest struct {
	pointSpec
	// Mode selects the algorithm: "centralized" (the default; "parallel"
	// and "tiled" are accepted as aliases, since the builder picks its own
	// strategy from the input) or "distributed" (the asynchronous
	// message-passing protocol engine, optionally under Faults).
	Mode  string  `json:"mode,omitempty"`
	Theta float64 `json:"theta,omitempty"`
	Range float64 `json:"range,omitempty"`
	Kappa float64 `json:"kappa,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// BuildSeed seeds the distributed engine's event scheduler (distinct
	// from pointSpec.Seed, which seeds point generation).
	BuildSeed int64      `json:"build_seed,omitempty"`
	Faults    *faultSpec `json:"faults,omitempty"`
	// IncludeEdges adds the full edge list to the response.
	IncludeEdges bool `json:"include_edges,omitempty"`
	TimeoutMS    int  `json:"timeout_ms,omitempty"`
}

// distReportView is the distributed-build accounting of a topology response.
type distReportView struct {
	Sent      int64 `json:"sent"`
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	Rounds    int64 `json:"rounds"`
	Crashes   int64 `json:"crashes"`
	Converged bool  `json:"converged"`
}

// topologyResponse is the body of a successful POST /v1/topology.
type topologyResponse struct {
	Mode        string          `json:"mode"`
	N           int             `json:"n"`
	NumEdges    int             `json:"num_edges"`
	MaxDegree   int             `json:"max_degree"`
	DegreeBound int             `json:"degree_bound"`
	Connected   bool            `json:"connected"`
	Theta       float64         `json:"theta"`
	Range       float64         `json:"range"`
	Edges       [][2]int        `json:"edges,omitempty"`
	DistReport  *distReportView `json:"dist_report,omitempty"`
	ElapsedMS   float64         `json:"elapsed_ms"`
}

// topologyResult is the internal success payload of a topology job: the
// built network plus the response scalars, streamed to JSON by
// encodeTopologyResult without materializing a topologyResponse (or its
// edge slice). When the build used a pooled arena the network aliases arena
// memory, so release must run only after encoding.
type topologyResult struct {
	mode         string
	nw           *toporouting.Network
	dist         *distReportView
	includeEdges bool
	elapsedMS    float64
	ar           *toporouting.BuildArena
}

// release returns the build arena (if any) to the pool. The network must
// not be read afterwards.
func (v *topologyResult) release() {
	if v.ar != nil {
		putArena(v.ar)
		v.ar = nil
	}
}

// interferenceResult is the internal success payload of an interference
// job. All values are extracted inside the job (the arena is released
// before the job returns), so encoding never touches topology memory.
type interferenceResult struct {
	n, numEdges, interference int
	transmissionEdges         int
	transmissionInterference  int
	elapsedMS                 float64
}

// Request structs are pooled per endpoint: the struct is zeroed at put time
// (so a pooled value decodes like a fresh one — absent JSON fields cannot
// leak a previous request's values) while the Points backing array keeps
// its capacity for the next decode.
var (
	topoReqPool = sync.Pool{New: func() any { return new(topologyRequest) }}
	intfReqPool = sync.Pool{New: func() any { return new(interferenceRequest) }}
	simReqPool  = sync.Pool{New: func() any { return new(simulateRequest) }}
)

func putTopologyReq(r *topologyRequest) {
	pts := r.Points[:0]
	*r = topologyRequest{}
	r.Points = pts
	topoReqPool.Put(r)
}

func putInterferenceReq(r *interferenceRequest) {
	pts := r.Points[:0]
	*r = interferenceRequest{}
	r.Points = pts
	intfReqPool.Put(r)
}

func putSimulateReq(r *simulateRequest) {
	pts := r.Points[:0]
	*r = simulateRequest{}
	r.Points = pts
	simReqPool.Put(r)
}

// arenaPool recycles topology build arenas across stateless requests; the
// footprint cap keeps one giant request from pinning its arena forever.
var arenaPool = sync.Pool{New: func() any { return toporouting.NewBuildArena() }}

const maxPooledArena = 8 << 20

func getArena() *toporouting.BuildArena { return arenaPool.Get().(*toporouting.BuildArena) }

func putArena(ar *toporouting.BuildArena) {
	if ar.Footprint() <= maxPooledArena {
		arenaPool.Put(ar)
	}
}

// interferenceRequest is the body of POST /v1/interference.
type interferenceRequest struct {
	pointSpec
	Theta float64 `json:"theta,omitempty"`
	Range float64 `json:"range,omitempty"`
	Delta float64 `json:"delta,omitempty"`
	// IncludeTransmission additionally reports the interference number of
	// the dense transmission graph G* (sampled beyond 2000 edges) for the
	// topology-control-matters comparison.
	IncludeTransmission bool `json:"include_transmission,omitempty"`
	Workers             int  `json:"workers,omitempty"`
	TimeoutMS           int  `json:"timeout_ms,omitempty"`
}

// interferenceResponse is the body of a successful POST /v1/interference.
type interferenceResponse struct {
	N                        int     `json:"n"`
	NumEdges                 int     `json:"num_edges"`
	Interference             int     `json:"interference"`
	TransmissionEdges        int     `json:"transmission_edges,omitempty"`
	TransmissionInterference int     `json:"transmission_interference,omitempty"`
	ElapsedMS                float64 `json:"elapsed_ms"`
}

// routerSpec parameterizes the (T,γ)-balancing router of a simulation.
type routerSpec struct {
	T      float64 `json:"t,omitempty"`
	Gamma  float64 `json:"gamma,omitempty"`
	Buffer int     `json:"buffer,omitempty"`
}

// trafficSpec configures the sinks-traffic injector: rate packets per step
// from uniform random sources to evenly spread sinks, for horizon steps
// (0 = the whole run).
type trafficSpec struct {
	Rate    int `json:"rate,omitempty"`
	Sinks   int `json:"sinks,omitempty"`
	Horizon int `json:"horizon,omitempty"`
}

// simulateRequest is the body of POST /v1/simulate.
type simulateRequest struct {
	pointSpec
	Theta   float64      `json:"theta,omitempty"`
	Range   float64      `json:"range,omitempty"`
	Kappa   float64      `json:"kappa,omitempty"`
	Delta   float64      `json:"delta,omitempty"`
	MAC     string       `json:"mac,omitempty"` // given | random | honeycomb
	Router  routerSpec   `json:"router,omitempty"`
	Traffic *trafficSpec `json:"traffic,omitempty"`
	Steps   int          `json:"steps"`

	MobilityEvery int        `json:"mobility_every,omitempty"`
	MobilityStep  float64    `json:"mobility_step,omitempty"`
	ChurnEvery    int        `json:"churn_every,omitempty"`
	ChurnMoves    int        `json:"churn_moves,omitempty"`
	ChurnStep     float64    `json:"churn_step,omitempty"`
	Faults        *faultSpec `json:"faults,omitempty"`

	Workers int   `json:"workers,omitempty"`
	SimSeed int64 `json:"sim_seed,omitempty"`
	// Runs > 1 fans a Monte-Carlo sweep over seeds SimSeed..SimSeed+Runs-1.
	Runs int `json:"runs,omitempty"`
	// Async enqueues the run and returns 202 with a job id to poll at
	// GET /v1/jobs/{id} instead of blocking the request.
	Async     bool `json:"async,omitempty"`
	TimeoutMS int  `json:"timeout_ms,omitempty"`
}

// simulateResponse is the body of a successful synchronous POST /v1/simulate.
type simulateResponse struct {
	Results   []toporouting.SimulationResult `json:"results"`
	ElapsedMS float64                        `json:"elapsed_ms"`
}

// asyncAccepted is the 202 body of an async POST /v1/simulate.
type asyncAccepted struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Poll   string `json:"poll"`
}

// tracesResponse is the body of GET /debug/traces: the retained traces
// (K slowest + uniform sample, slowest first) and how many the ring has
// seen in total.
type tracesResponse struct {
	Seen   int64                `json:"seen"`
	Traces []*toporouting.Trace `json:"traces"`
}

// options assembles the SimulationOptions for one run; the caller overrides
// Seed per Monte-Carlo repetition.
func (r *simulateRequest) options(pts []toporouting.Point, tel *toporouting.Telemetry) (toporouting.SimulationOptions, error) {
	var mac toporouting.MAC
	switch r.MAC {
	case "", "given":
		mac = toporouting.MACGiven
	case "random":
		mac = toporouting.MACRandom
	case "honeycomb":
		mac = toporouting.MACHoneycomb
	default:
		return toporouting.SimulationOptions{}, fmt.Errorf("unknown mac %q (want given, random, or honeycomb)", r.MAC)
	}
	router := toporouting.RouterOptions{T: r.Router.T, Gamma: r.Router.Gamma, BufferSize: r.Router.Buffer}
	if router.BufferSize == 0 {
		router.BufferSize = 100
	}
	tr := trafficSpec{Rate: 1, Sinks: 1, Horizon: r.Steps}
	if r.Traffic != nil {
		tr = *r.Traffic
		if tr.Rate <= 0 {
			tr.Rate = 1
		}
		if tr.Sinks <= 0 {
			tr.Sinks = 1
		}
		if tr.Horizon <= 0 || tr.Horizon > r.Steps {
			tr.Horizon = r.Steps
		}
	}
	sinks := make([]int, tr.Sinks)
	for i := range sinks {
		// Spread sinks evenly through the id space, as cmd/routesim does.
		sinks[i] = (i * len(pts)) / (tr.Sinks + 1)
	}
	var faults *toporouting.FaultPlan
	if r.Faults != nil {
		p := r.Faults.plan()
		faults = &p
	}
	return toporouting.SimulationOptions{
		Points:        pts,
		Theta:         r.Theta,
		Range:         r.Range,
		Kappa:         r.Kappa,
		Delta:         r.Delta,
		MAC:           mac,
		Router:        router,
		Traffic:       toporouting.SinksTraffic(len(pts), sinks, tr.Rate, tr.Horizon),
		Steps:         r.Steps,
		MobilityEvery: r.MobilityEvery,
		MobilityStep:  r.MobilityStep,
		ChurnEvery:    r.ChurnEvery,
		ChurnMoves:    r.ChurnMoves,
		ChurnStep:     r.ChurnStep,
		DistFaults:    faults,
		Workers:       r.Workers,
		Seed:          r.SimSeed,
		Telemetry:     tel,
	}, nil
}
