// Package server is the HTTP/JSON serving layer of the stack: topology
// builds, routing simulations, and interference queries behind a bounded
// admission queue and a fixed worker pool.
//
// Admission control is explicit: every request becomes a job on a bounded
// queue drained by a fixed number of workers. When the queue is full the
// server sheds load with 429 + Retry-After instead of letting goroutines
// and latency pile up. Every job runs under a context carrying the request
// deadline; synchronous jobs are additionally cancelled when the client
// disconnects, so abandoned work stops within one simulation step.
// Shutdown drains: admission stops (readiness flips, new work gets 503),
// in-flight jobs get a grace period to finish, and whatever remains is
// cancelled through the same contexts before telemetry sinks are flushed.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"toporouting"
	"toporouting/internal/cluster"
	"toporouting/internal/session"
	"toporouting/internal/telemetry"
	"toporouting/internal/topocache"
)

// Config parameterizes a Server. The zero value serves with sane defaults.
type Config struct {
	// QueueDepth bounds the admission queue (jobs admitted but not yet
	// running); 0 selects 64. A full queue sheds with 429.
	QueueDepth int
	// Workers is the number of job executors; 0 selects GOMAXPROCS.
	Workers int
	// DefaultTimeout applies to requests that do not set timeout_ms;
	// 0 selects 30s. MaxTimeout caps client-requested timeouts; 0 selects
	// 5m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxNodes and MaxSteps bound per-request work; 0 selects 50000 nodes
	// and 10^7 steps.
	MaxNodes int
	MaxSteps int
	// JobTTL is how long finished async jobs stay pollable; 0 selects 10m.
	JobTTL time.Duration
	// CacheBytes bounds the digest-keyed response cache memoizing encoded
	// /v1/topology and /v1/interference bodies (ΘALG output is a pure
	// function of the request, so a hit returns the exact bytes a rebuild
	// would). 0 selects 64 MiB; negative disables caching.
	CacheBytes int64
	// Telemetry, when non-nil, is threaded into every build and simulation
	// and additionally records server-level counters (admitted, shed,
	// completed) and queue-wait/run-time histograms. GET /metrics serves it
	// as Prometheus text exposition (?format=json for the JSON snapshot).
	Telemetry *toporouting.Telemetry
	// Tracer, when non-nil, mints one span tree per /v1 request —
	// admission wait, worker pickup, build phases, simulation steps, and
	// response encode — retained in the tracer's ring and served at
	// GET /debug/traces. nil disables tracing at zero cost.
	Tracer *toporouting.Tracer
	// Logger, when non-nil, writes one structured line per /v1 request
	// carrying the request and trace ids.
	Logger *slog.Logger
	// Sink, when non-nil, is closed (flushing buffered trace events to
	// disk) at the end of Shutdown.
	Sink io.Closer
	// Sessions parameterizes the hosted-session registries (quotas, delta
	// ring depth, idle TTL). Its Telemetry and MaxNodes default to the
	// server's own when unset.
	Sessions session.Config
	// Shards is the number of in-process session-registry shards tenants
	// hash onto; 0 selects 1 (one registry, the pre-cluster behavior).
	Shards int
	// Replicas is the read-replica count per hosted session, clamped to
	// Shards-1.
	Replicas int
	// ReplicaStalenessGens bounds how many generations a replica read may
	// lag before falling back to the primary; 0 selects 64.
	ReplicaStalenessGens int
	// WatchWriteTimeout bounds every SSE watch write so a subscriber that
	// stops reading cannot stall its handler past drain; 0 selects 5s.
	WatchWriteTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 50000
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 10_000_000
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Sessions.Telemetry == nil {
		c.Sessions.Telemetry = c.Telemetry
	}
	if c.Sessions.MaxNodes <= 0 {
		c.Sessions.MaxNodes = c.MaxNodes
	}
	if c.WatchWriteTimeout <= 0 {
		c.WatchWriteTimeout = 5 * time.Second
	}
	return c
}

// Server is the serving core: mux, admission queue, worker pool, job store.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// baseCtx parents every job context; baseCancel is the drain hammer —
	// cancelling it stops all in-flight work within one step.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue    chan *job
	stop     chan struct{} // closed after drain; workers exit
	wg       sync.WaitGroup
	draining atomic.Bool
	active   atomic.Int64 // jobs admitted and not yet finished
	busy     atomic.Int64 // workers currently executing a job
	reqSeq   atomic.Int64 // request-id sequence for the /v1 middleware

	// avgRunBits is an EWMA of job run time in milliseconds (float64
	// bits), the drain-rate estimate behind the Retry-After computation.
	avgRunBits atomic.Uint64

	jobs    *jobStore
	cluster *cluster.Cluster
	cache   *topocache.Cache // nil when caching is disabled
	start   time.Time

	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error
}

// New builds a Server and starts its worker pool. The caller owns shutdown:
// call Shutdown to drain before exiting.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		baseCtx:      ctx,
		baseCancel:   cancel,
		queue:        make(chan *job, cfg.QueueDepth),
		stop:         make(chan struct{}),
		shutdownDone: make(chan struct{}),
		jobs:         newJobStore(cfg.JobTTL),
		cluster: cluster.New(cluster.Config{
			Shards:          cfg.Shards,
			Replicas:        cfg.Replicas,
			StalenessBudget: cfg.ReplicaStalenessGens,
			Session:         cfg.Sessions,
		}),
		start: time.Now(),
	}
	if cfg.CacheBytes > 0 {
		s.cache = topocache.New(cfg.CacheBytes, cfg.Telemetry)
	}
	s.mux = s.routes()
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// InFlight reports the number of jobs admitted and not yet finished
// (queued + running). Exposed for tests and the drain loop.
func (s *Server) InFlight() int64 { return s.active.Load() }

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/topology", s.instrument("/v1/topology", s.handleTopology))
	mux.HandleFunc("POST /v1/simulate", s.instrument("/v1/simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/interference", s.instrument("/v1/interference", s.handleInterference))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs/{id}", s.handleJob))
	mux.HandleFunc("POST /v1/sessions", s.instrument("/v1/sessions", s.handleSessionCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("/v1/sessions/{id}", s.handleSessionGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("/v1/sessions/{id}", s.handleSessionDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.instrument("/v1/sessions/{id}/events", s.handleSessionEvents))
	mux.HandleFunc("GET /v1/sessions/{id}/watch", s.instrument("/v1/sessions/{id}/watch", s.handleSessionWatch))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/cluster", s.handleClusterStatus)
	mux.HandleFunc("POST /debug/cluster/kill", s.handleClusterKill)
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// worker drains the admission queue until drain closes s.stop. A job whose
// context died while it sat in the queue is retired without running.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.execute(j)
		case <-s.stop:
			return
		}
	}
}

func (s *Server) execute(j *job) {
	defer s.active.Add(-1)
	defer j.cancel()
	s.busy.Add(1)
	defer s.busy.Add(-1)
	j.waitSpan.End() // worker pickup: the admission wait is over
	if err := j.ctx.Err(); err != nil {
		j.finish(nil, err)
		return
	}
	j.setRunning()
	waitMS := float64(time.Since(j.created)) / float64(time.Millisecond)
	tel := s.cfg.Telemetry
	if tel.Enabled() {
		tel.Histogram("server.queue_wait_ms").Observe(waitMS)
		tel.BucketHistogram(
			telemetry.LabeledName("server.job_wait_ms", "kind", j.kind),
			telemetry.DefLatencyBuckets,
		).Observe(waitMS)
	}
	runCtx, runSpan := telemetry.StartChild(j.ctx, "job.run")
	runT0 := time.Now()
	result, err := safeRun(j, runCtx)
	runMS := float64(time.Since(runT0)) / float64(time.Millisecond)
	runSpan.End()
	s.noteRunMS(runMS)
	j.finish(result, err)
	if tel.Enabled() {
		tel.Counter("server.jobs_finished").Inc()
		if err != nil {
			tel.Counter("server.jobs_failed").Inc()
		}
		tel.BucketHistogram(
			telemetry.LabeledName("server.job_run_ms", "kind", j.kind),
			telemetry.DefLatencyBuckets,
		).Observe(runMS)
		tel.Counter(telemetry.LabeledName("server.job_outcomes",
			"kind", j.kind, "status", string(j.currentStatus()))).Inc()
	}
}

// noteRunMS folds one job's run time into the EWMA drain-rate estimate.
// α = 0.2 keeps roughly the last five jobs' weight, enough to track load
// shifts without letting one outlier own the Retry-After answer.
func (s *Server) noteRunMS(ms float64) {
	for {
		old := s.avgRunBits.Load()
		avg := math.Float64frombits(old)
		if avg == 0 {
			avg = ms
		} else {
			avg = 0.8*avg + 0.2*ms
		}
		if s.avgRunBits.CompareAndSwap(old, math.Float64bits(avg)) {
			return
		}
	}
}

// retryAfterSeconds estimates when a shed client should come back: the
// queued work ahead of it (current depth + itself) divided by the pool's
// drain rate, estimated from the run-time EWMA. Clamped to [1, 30] s — 1
// because Retry-After is integral and 0 would invite a tight retry loop,
// 30 so a momentary spike never parks clients for minutes.
func (s *Server) retryAfterSeconds() int {
	avg := math.Float64frombits(s.avgRunBits.Load())
	if avg <= 0 {
		return 1 // no completed jobs yet: nothing to estimate from
	}
	secs := avg * float64(len(s.queue)+1) / (1000 * float64(s.cfg.Workers))
	ra := int(math.Ceil(secs))
	if ra < 1 {
		ra = 1
	}
	if ra > 30 {
		ra = 30
	}
	return ra
}

// safeRun executes the job body under ctx (the job context, possibly
// carrying a run span), converting a panic (e.g. the topology builder's
// duplicate-position panic) into a job error instead of taking down the
// worker.
func safeRun(j *job, ctx context.Context) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return j.run(ctx)
}

// newJob wires a job under parent with the effective request timeout. The
// returned job's context is additionally cancelled when the server's base
// context dies (drain forcing), whatever the parent is.
func (s *Server) newJob(kind string, parent context.Context, timeoutMS int, run func(context.Context) (any, error)) *job {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	j := &job{
		id:      s.jobs.nextID(),
		kind:    kind,
		ctx:     ctx,
		cancel:  func() { stopAfter(); cancel() },
		run:     run,
		done:    make(chan struct{}),
		status:  statusQueued,
		created: time.Now(),
	}
	// When the request carries a root span, the time between here and
	// worker pickup is the admission wait — the first child of the tree.
	if sp := telemetry.SpanFromContext(parent); sp != nil {
		j.waitSpan = sp.Child("admission.wait")
	}
	return j
}

// admit places the job on the bounded queue without blocking: a full queue
// is load to shed now, not latency to hide.
func (s *Server) admit(j *job) error {
	if s.draining.Load() {
		return errDraining
	}
	s.active.Add(1)
	select {
	case s.queue <- j:
		if tel := s.cfg.Telemetry; tel.Enabled() {
			tel.Counter("server.jobs_admitted").Inc()
			tel.Gauge("server.queue_depth").Set(float64(len(s.queue)))
		}
		return nil
	default:
		s.active.Add(-1)
		if tel := s.cfg.Telemetry; tel.Enabled() {
			tel.Counter("server.jobs_shed").Inc()
		}
		return errQueueFull
	}
}

// runJob wires a synchronous job, admits it, and blocks for its outcome:
// the run's result on success, the admission or job error otherwise.
// writeRunError maps every error it can return to a response.
func (s *Server) runJob(parent context.Context, kind string, timeoutMS int, run func(context.Context) (any, error)) (any, error) {
	j := s.newJob(kind, parent, timeoutMS, run)
	if err := s.admit(j); err != nil {
		j.cancel()
		return nil, err
	}
	<-j.done
	j.mu.Lock()
	result, err := j.result, j.err
	j.mu.Unlock()
	return result, err
}

// writeRunError renders a failed runJob: backpressure shedding (429 with a
// derived Retry-After, 503 while draining), an expired request deadline
// (504), a cancelled request (client gone or drain forcing, 503), and 500
// for everything else.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		// Retry-After is derived from the queue ahead of the client and
		// the pool's measured drain rate, not a constant: a briefly full
		// queue says "come back in a second", a deep one under slow jobs
		// says tens of seconds.
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Client disconnect or drain; the client is likely gone, but be
		// explicit for the ones that are not.
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// buildEncoded runs the job and streams its result into a pooled encode
// state. Encoding the success response is the last leg of a traced request,
// so it keeps its own span. The caller owns the returned state and must
// return it with putEncodeState.
func (s *Server) buildEncoded(ctx context.Context, kind string, timeoutMS int, run func(context.Context) (any, error), encode func(*encodeState, any) error) (*encodeState, error) {
	v, err := s.runJob(ctx, kind, timeoutMS, run)
	if err != nil {
		return nil, err
	}
	_, span := telemetry.StartChild(ctx, "encode")
	defer span.End()
	st := getEncodeState()
	if err := encode(st, v); err != nil {
		putEncodeState(st)
		return nil, err
	}
	return st, nil
}

// serveStateless is the shared serving path of the stateless endpoints.
// With the cache enabled and a digestable request, the canonical digest is
// the cache key and the strong ETag: an If-None-Match match answers 304
// before any build (sound because the response is a pure function of the
// digest), a miss builds once under singleflight, and the exact encoded
// bytes are memoized. digestReq nil (or the cache disabled) bypasses the
// cache entirely: build, stream, done — the pre-cache behavior, byte for
// byte, with no ETag or X-Cache headers.
func (s *Server) serveStateless(w http.ResponseWriter, r *http.Request, endpoint, kind string, digestReq any, timeoutMS int, run func(context.Context) (any, error), encode func(*encodeState, any) error) {
	if s.cache != nil && digestReq != nil {
		if key, ok := requestDigest(endpoint, digestReq); ok {
			etag := topocache.ETagFor(key)
			if inmMatches(r.Header.Get("If-None-Match"), etag) {
				s.cache.NoteNotModified()
				w.Header().Set("ETag", etag)
				w.Header().Set("X-Cache", "hit")
				w.WriteHeader(http.StatusNotModified)
				return
			}
			entry, src, err := s.cache.GetOrBuild(r.Context(), key, func() (*topocache.Entry, error) {
				st, err := s.buildEncoded(r.Context(), kind, timeoutMS, run, encode)
				if err != nil {
					return nil, err
				}
				body := append([]byte(nil), st.out...)
				putEncodeState(st)
				return &topocache.Entry{Body: body, ETag: etag}, nil
			})
			if err != nil {
				s.writeRunError(w, err)
				return
			}
			w.Header().Set("ETag", entry.ETag)
			w.Header().Set("X-Cache", src.String())
			writeBody(w, http.StatusOK, entry.Body)
			return
		}
	}
	st, err := s.buildEncoded(r.Context(), kind, timeoutMS, run, encode)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	writeBody(w, http.StatusOK, st.out)
	putEncodeState(st)
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	req := topoReqPool.Get().(*topologyRequest)
	defer putTopologyReq(req)
	if !decodeJSON(w, r, req) {
		return
	}
	pts, err := req.resolve(s.cfg.MaxNodes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mode := req.Mode
	opts := toporouting.Options{
		Theta: req.Theta, Range: req.Range, Kappa: req.Kappa, Delta: req.Delta,
		Telemetry: s.cfg.Telemetry,
	}
	// The run closures capture locals, never req: the pooled request struct
	// is recycled when the handler returns, and a queue-retired job must not
	// read it.
	includeEdges := req.IncludeEdges
	var run func(context.Context) (any, error)
	switch mode {
	case "", "centralized", "parallel", "tiled":
		// One ΘALG build serves every centralized alias — the builder picks
		// its strategy from the input — so they share one response and one
		// cache entry.
		mode = "centralized"
		run = func(ctx context.Context) (any, error) {
			start := time.Now()
			ar := getArena()
			nw, err := toporouting.BuildNetworkContext(ctx, pts, opts, 0, ar)
			if err != nil {
				putArena(ar)
				return nil, err
			}
			return &topologyResult{
				mode: mode, nw: nw, includeEdges: includeEdges, ar: ar,
				elapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			}, nil
		}
	case "distributed":
		plan, buildSeed := req.Faults.plan(), req.BuildSeed
		run = func(ctx context.Context) (any, error) {
			start := time.Now()
			nw, rep, err := toporouting.BuildNetworkDistributedAsyncContext(ctx, pts, opts, plan, buildSeed)
			if err != nil {
				return nil, err
			}
			view := &distReportView{
				Sent:      rep.Stats.Sent,
				Delivered: rep.Stats.Delivered,
				Dropped:   rep.Stats.Dropped,
				Rounds:    rep.Certificate.Rounds,
				Crashes:   rep.Stats.Crashes,
				Converged: rep.Certificate.Holds(),
			}
			return &topologyResult{
				mode: mode, nw: nw, dist: view, includeEdges: includeEdges,
				elapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			}, nil
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want centralized or distributed)", mode))
		return
	}
	// Digest the parsed request with response-neutral fields normalized:
	// timeout_ms never changes the body, and every centralized alias is
	// one mode.
	dreq := *req
	dreq.TimeoutMS = 0
	dreq.Mode = mode
	s.serveStateless(w, r, "topology", "topology", &dreq, req.TimeoutMS, run, encodeTopology)
}

func encodeTopology(st *encodeState, v any) error {
	res := v.(*topologyResult)
	encodeTopologyResult(st, res)
	res.release()
	return nil
}

func (s *Server) handleInterference(w http.ResponseWriter, r *http.Request) {
	req := intfReqPool.Get().(*interferenceRequest)
	defer putInterferenceReq(req)
	if !decodeJSON(w, r, req) {
		return
	}
	pts, err := req.resolve(s.cfg.MaxNodes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := toporouting.Options{
		Theta: req.Theta, Range: req.Range, Delta: req.Delta,
		Telemetry: s.cfg.Telemetry,
	}
	includeTransmission, workers := req.IncludeTransmission, req.Workers
	run := func(ctx context.Context) (any, error) {
		start := time.Now()
		ar := getArena()
		// All response values are extracted here, inside the job, so the
		// arena can be released before the result leaves the closure.
		defer putArena(ar)
		nw, err := toporouting.BuildNetworkContext(ctx, pts, opts, workers, ar)
		if err != nil {
			return nil, err
		}
		res := &interferenceResult{
			n:            nw.N(),
			numEdges:     nw.NumEdges(),
			interference: nw.InterferenceNumber(),
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if includeTransmission {
			res.transmissionEdges = len(nw.TransmissionEdges())
			res.transmissionInterference = nw.TransmissionInterferenceNumber()
		}
		res.elapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		return res, nil
	}
	// Digest with the response-neutral fields zeroed: the interference sets
	// are bit-identical for every worker count.
	dreq := *req
	dreq.TimeoutMS = 0
	dreq.Workers = 0
	s.serveStateless(w, r, "interference", "interference", &dreq, req.TimeoutMS, run, func(st *encodeState, v any) error {
		encodeInterferenceResult(st, v.(*interferenceResult))
		return nil
	})
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req := simReqPool.Get().(*simulateRequest)
	defer putSimulateReq(req)
	if !decodeJSON(w, r, req) {
		return
	}
	pts, err := req.resolve(s.cfg.MaxNodes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Steps <= 0 {
		writeError(w, http.StatusBadRequest, "steps must be positive")
		return
	}
	runs := req.Runs
	if runs <= 0 {
		runs = 1
	}
	if total := int64(req.Steps) * int64(runs); total > int64(s.cfg.MaxSteps) {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("steps×runs %d exceeds the server cap of %d", total, s.cfg.MaxSteps))
		return
	}
	opts, err := req.options(pts, s.cfg.Telemetry)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	simSeed, simWorkers := req.SimSeed, req.Workers
	run := func(ctx context.Context) (any, error) {
		start := time.Now()
		var results []toporouting.SimulationResult
		if runs == 1 {
			res, err := toporouting.SimulateContext(ctx, opts)
			if err != nil {
				return nil, err
			}
			results = []toporouting.SimulationResult{res}
		} else {
			seeds := make([]int64, runs)
			for i := range seeds {
				seeds[i] = simSeed + int64(i)
			}
			var err error
			results, err = toporouting.SimulateMonteCarloContext(ctx, opts, seeds, simWorkers)
			if err != nil {
				return nil, err
			}
		}
		return simulateResponse{
			Results:   results,
			ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		}, nil
	}
	if req.Async {
		// Async jobs survive the request: parent on the server, not the
		// connection. Drain still cancels them through baseCtx.
		j := s.newJob("simulate", s.baseCtx, req.TimeoutMS, run)
		if err := s.admit(j); err != nil {
			j.cancel()
			s.writeRunError(w, err)
			return
		}
		s.jobs.put(j)
		writeJSON(w, http.StatusAccepted, asyncAccepted{
			ID:     j.id,
			Status: string(statusQueued),
			Poll:   "/v1/jobs/" + j.id,
		})
		return
	}
	// Simulation results are deterministic per seed but bulky and rarely
	// repeated; they stream through the pooled encoder without the cache.
	s.serveStateless(w, r, "simulate", "simulate", nil, req.TimeoutMS, run, encodeJSONValue)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job (unknown id or expired)")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_s":  time.Since(s.start).Seconds(),
		"in_flight": s.active.Load(),
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the telemetry scope in the Prometheus text
// exposition format (the default, what a scraper expects) or as the legacy
// JSON snapshot when ?format=json is given. Point-in-time server state —
// queue depth, busy workers, in-flight jobs, uptime — is stamped into the
// scope as gauges at scrape time so the exposition carries current values
// rather than whatever the last admit observed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	tel := s.cfg.Telemetry
	if r.URL.Query().Get("format") == "json" {
		if !tel.Enabled() {
			writeJSON(w, http.StatusOK, map[string]string{})
			return
		}
		writeJSON(w, http.StatusOK, tel.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if !tel.Enabled() {
		return // empty exposition is valid
	}
	tel.Gauge("server.queue_depth").Set(float64(len(s.queue)))
	tel.Gauge("server.workers_busy").Set(float64(s.busy.Load()))
	tel.Gauge("server.workers").Set(float64(s.cfg.Workers))
	tel.Gauge("server.in_flight").Set(float64(s.active.Load()))
	tel.Gauge("server.uptime_seconds").Set(time.Since(s.start).Seconds())
	tel.Gauge("session.live").Set(float64(s.cluster.Live()))
	_ = toporouting.WritePrometheus(w, tel)
}

// handleTraces serves the tracer's retained traces — the K slowest plus a
// uniform sample — slowest first.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	tr := s.cfg.Tracer
	if tr == nil || tr.Ring() == nil {
		writeJSON(w, http.StatusOK, tracesResponse{Traces: []*toporouting.Trace{}})
		return
	}
	ring := tr.Ring()
	writeJSON(w, http.StatusOK, tracesResponse{
		Seen:   ring.Seen(),
		Traces: ring.Snapshot(),
	})
}

// Shutdown drains the server: stop admitting (readiness flips to 503 and
// admit returns errDraining), give in-flight jobs until ctx's deadline to
// finish, then cancel whatever remains through the base context — every job
// checks its context at least once per step, so forced drain completes
// within one step per job. Telemetry sinks are flushed last. The returned
// error is ctx.Err() when the grace period expired before a voluntary
// drain, nil on a clean one. Shutdown is idempotent: concurrent or repeat
// calls wait for the first drain and return its result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.shutdownErr = s.drain(ctx)
		close(s.shutdownDone)
	})
	<-s.shutdownDone
	return s.shutdownErr
}

func (s *Server) drain(ctx context.Context) error {
	s.draining.Store(true)
	forced := false
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
wait:
	for s.active.Load() > 0 {
		select {
		case <-ctx.Done():
			forced = true
			break wait
		case <-tick.C:
		}
	}
	if forced {
		// Grace expired: cancel every in-flight context and wait for the
		// per-step checks to observe it.
		s.baseCancel()
		s.jobs.cancelAll()
		for s.active.Load() > 0 {
			<-tick.C
		}
	}
	close(s.stop)
	s.wg.Wait()
	s.baseCancel()
	// Sessions close after the job pool has drained (a session create may
	// be in flight until then) and before the sink flushes, so the final
	// applies and watcher disconnects are observable in the trace output.
	s.cluster.Close()
	if s.cfg.Sink != nil {
		if err := s.cfg.Sink.Close(); err != nil && !forced {
			return fmt.Errorf("server: flushing sink: %w", err)
		}
	}
	if forced {
		return ctx.Err()
	}
	return nil
}

// maxBodyBytes bounds request bodies; explicit point lists dominate the
// size, and 50000 points encode well under this.
const maxBodyBytes = 16 << 20

// decodeJSON reads the whole body into a pooled buffer and unmarshals it —
// no per-request decoder or read buffer. Unmarshal (unlike a Decoder) also
// rejects trailing garbage after the JSON value.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	if err := json.Unmarshal(buf.Bytes(), dst); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		noteEncodeError(w, err)
	}
}

// writeBody writes a fully encoded JSON body with an exact Content-Length.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		noteEncodeError(w, err)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
