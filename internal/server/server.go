// Package server is the HTTP/JSON serving layer of the stack: topology
// builds, routing simulations, and interference queries behind a counting
// semaphore that bounds how many run at once.
//
// Admission control is explicit: every build, query, simulation and session
// create takes one of Workers slots and runs on the goroutine that asked
// for it — the request's own, or one goroutine per async job. With every
// slot taken, up to QueueDepth requests wait for one; past that the server
// sheds load with 429 + Retry-After instead of letting goroutines and
// latency pile up. Every job runs under a context carrying the request
// deadline; synchronous jobs are additionally cancelled when the client
// disconnects, so a waiting request leaves at once and running work stops
// within one simulation step. Shutdown drains: admission stops (readiness
// flips, new work gets 503), in-flight jobs get a grace period to finish,
// and whatever remains is cancelled through the same contexts before
// telemetry sinks are flushed. The server starts no goroutine of its own.
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
	// QueueDepth bounds the jobs admitted but waiting for a slot; 0
	// selects 64. A request that finds them all taken is shed with 429.
	QueueDepth int
	// Workers is the number of jobs that run at once; 0 selects GOMAXPROCS.
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
	// admission wait, job run, build phases, simulation steps, and
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

// Server is the serving core: mux, admission semaphore, async job store.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// baseCtx parents every job context; baseCancel is the drain hammer —
	// cancelling it stops all in-flight work within one step.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	slots    chan struct{} // one token per running job; capacity Workers
	waiting  atomic.Int64  // jobs admitted and waiting for a slot, ≤ QueueDepth
	draining atomic.Bool
	active   atomic.Int64 // jobs admitted and not yet finished
	reqSeq   atomic.Int64 // request-id sequence for the /v1 middleware

	// avgRunBits is an EWMA of job run time in milliseconds (float64
	// bits), the drain-rate estimate behind the Retry-After computation.
	avgRunBits atomic.Uint64

	// Labeled serving instruments, each resolved on first use.
	jobWait, jobRun telemetry.LazyMap[string, telemetry.BucketHistogram] // by job kind
	jobOutcomes     telemetry.LazyMap[[2]string, telemetry.Counter]      // by kind, status
	sessionGets     telemetry.LazyMap[string, telemetry.Counter]         // by result

	jobs    *jobStore
	cluster *cluster.Cluster
	cache   *topocache.Cache // nil when caching is disabled
	start   time.Time

	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error
}

// New builds a Server. It starts no goroutine; the caller owns shutdown:
// call Shutdown to drain before exiting.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		baseCtx:      ctx,
		baseCancel:   cancel,
		slots:        make(chan struct{}, cfg.Workers),
		shutdownDone: make(chan struct{}),
		jobs:         newJobStore(cfg.JobTTL),
		cluster: cluster.New(cluster.Config{
			Shards:   cfg.Shards,
			Replicas: cfg.Replicas,
			Session:  cfg.Sessions,
		}),
		start: time.Now(),
	}
	if cfg.CacheBytes > 0 {
		s.cache = topocache.New(cfg.CacheBytes, cfg.Telemetry)
	}
	s.mux = s.routes()
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
// waiting work ahead of it (current waiters + itself) divided by the
// slots' drain rate, estimated from the run-time EWMA. Clamped to
// [1, 30] s — 1 because Retry-After is integral and 0 would invite a tight
// retry loop, 30 so a momentary spike never parks clients for minutes.
func (s *Server) retryAfterSeconds() int {
	avg := math.Float64frombits(s.avgRunBits.Load())
	if avg <= 0 {
		return 1 // no completed jobs yet: nothing to estimate from
	}
	secs := avg * float64(s.waiting.Load()+1) / (1000 * float64(s.cfg.Workers))
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
// invalid-configuration panic) into a job error instead of taking down the
// process.
func safeRun(ctx context.Context, fn func(context.Context) (any, error)) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
		}
	}()
	return fn(ctx)
}

// jobContext derives a job's context from parent with the effective request
// timeout. It is also cancelled when the server's base context dies (drain
// forcing), whatever the parent is.
func (s *Server) jobContext(parent context.Context, timeoutMS int) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		timeout = time.Duration(timeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stopAfter(); cancel() }
}

// admit reserves room for one job without blocking: a free slot, or else
// one of the QueueDepth waiting places, or else errQueueFull — a full
// server is load to shed now, not latency to hide. queued reports a waiting
// place, which run trades for a slot. Every admitted job must go to run.
func (s *Server) admit() (queued bool, err error) {
	// Counting the job in flight before reading draining closes the race
	// with drain, which sets draining before it reads active.
	s.active.Add(1)
	if s.draining.Load() {
		s.active.Add(-1)
		return false, errDraining
	}
	select {
	case s.slots <- struct{}{}:
	default:
		if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
			s.waiting.Add(-1)
			s.active.Add(-1)
			if tel := s.cfg.Telemetry; tel.Enabled() {
				tel.Counter("server.jobs_shed").Inc()
			}
			return false, errQueueFull
		}
		queued = true
	}
	if tel := s.cfg.Telemetry; tel.Enabled() {
		tel.Counter("server.jobs_admitted").Inc()
		tel.Gauge("server.queue_depth").Set(float64(s.waiting.Load()))
	}
	return queued, nil
}

// run executes an admitted job on the caller's goroutine. A queued job
// first waits for a slot; a job whose context ends before it runs (the
// client left, the deadline passed, drain forced) gives its place back and
// never runs. j, the pollable record of an async job, is nil for a
// synchronous one.
func (s *Server) run(ctx context.Context, kind string, queued bool, j *job, fn func(context.Context) (any, error)) (any, error) {
	defer s.active.Add(-1)
	t0 := time.Now()
	// When the request carries a root span, the time until the job holds a
	// slot is the admission wait — the first child of the tree.
	waitSpan := telemetry.SpanFromContext(ctx).Child("admission.wait")
	held := !queued
	if queued {
		select {
		case s.slots <- struct{}{}:
			held = true
		case <-ctx.Done():
		}
		s.waiting.Add(-1)
	}
	if held {
		defer func() { <-s.slots }()
	}
	waitSpan.End()
	if err := ctx.Err(); err != nil {
		j.finish(nil, err)
		return nil, err
	}
	j.setRunning()
	tel := s.cfg.Telemetry
	if tel.Enabled() {
		s.jobWait.Get(kind, func(kind string) *telemetry.BucketHistogram {
			return tel.BucketHistogram(telemetry.LabeledName("server.job_wait_ms", "kind", kind), telemetry.DefLatencyBuckets)
		}).Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	}
	runCtx, runSpan := telemetry.StartChild(ctx, "job.run")
	runT0 := time.Now()
	result, err := safeRun(runCtx, fn)
	runMS := float64(time.Since(runT0)) / float64(time.Millisecond)
	runSpan.End()
	s.noteRunMS(runMS)
	j.finish(result, err)
	if tel.Enabled() {
		tel.Counter("server.jobs_finished").Inc()
		if err != nil {
			tel.Counter("server.jobs_failed").Inc()
		}
		s.jobRun.Get(kind, func(kind string) *telemetry.BucketHistogram {
			return tel.BucketHistogram(telemetry.LabeledName("server.job_run_ms", "kind", kind), telemetry.DefLatencyBuckets)
		}).Observe(runMS)
		s.jobOutcomes.Get([2]string{kind, string(outcome(err))}, func(k [2]string) *telemetry.Counter {
			return tel.Counter(telemetry.LabeledName("server.job_outcomes", "kind", k[0], "status", k[1]))
		}).Inc()
	}
	return result, err
}

// runJob admits a synchronous job and runs it on the caller's goroutine:
// the run's result on success, the admission or job error otherwise.
// writeRunError maps every error it can return to a response.
func (s *Server) runJob(parent context.Context, kind string, timeoutMS int, fn func(context.Context) (any, error)) (any, error) {
	queued, err := s.admit()
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.jobContext(parent, timeoutMS)
	defer cancel()
	return s.run(ctx, kind, queued, nil, fn)
}

// startJob admits an async job, registers its pollable record, and runs it
// on a goroutine of its own. The job outlives its request, so its context
// derives from the server's base context, which drain cancels.
func (s *Server) startJob(kind string, timeoutMS int, fn func(context.Context) (any, error)) (*job, error) {
	queued, err := s.admit()
	if err != nil {
		return nil, err
	}
	ctx, cancel := s.jobContext(s.baseCtx, timeoutMS)
	j := &job{id: s.jobs.nextID(), kind: kind, status: statusQueued, created: time.Now()}
	s.jobs.put(j)
	go func() {
		defer cancel()
		s.run(ctx, kind, queued, j, fn)
	}()
	return j, nil
}

// writeRunError renders a failed runJob: backpressure shedding (429 with a
// derived Retry-After, 503 while draining), an expired request deadline
// (504), a cancelled request (client gone or drain forcing, 503), an input
// the library rejects (anything matching toporouting.ErrInvalidInput: 400),
// and 500 for everything else.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		// Retry-After is derived from the waiters ahead of the client and
		// the slots' measured drain rate, not a constant: a briefly full
		// server says "come back in a second", a deep wait under slow jobs
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
	case errors.Is(err, toporouting.ErrInvalidInput):
		writeError(w, http.StatusBadRequest, err.Error())
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
// With the cache enabled and a digestable request, the request's digest
// (its server.digest span) is the cache key and the strong ETag: an
// If-None-Match match answers 304 before any build (sound because the
// response is a pure function of the digest), a miss builds once under
// singleflight, and the exact encoded bytes are memoized. digest nil (or
// the cache disabled) bypasses the cache entirely: build, stream, done —
// the pre-cache behavior, byte for byte, with no ETag or X-Cache headers.
// run executes on the handler's goroutine and only once a build is due, so
// it may read the pooled request, and a cache hit never pays for what run
// readies (the node positions).
func (s *Server) serveStateless(w http.ResponseWriter, r *http.Request, kind string, digest func() (topocache.Key, bool), timeoutMS int, run func(context.Context) (any, error), encode func(*encodeState, any) error) {
	if s.cache != nil && digest != nil {
		span := telemetry.SpanFromContext(r.Context()).Child("server.digest")
		key, ok := digest()
		span.End()
		if ok {
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
	if err := req.check(s.cfg.MaxNodes); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	mode := canonicalMode(req.Mode)
	opts := toporouting.Options{
		Theta: req.Theta, Range: req.Range, Kappa: req.Kappa, Delta: req.Delta,
		Telemetry: s.cfg.Telemetry,
	}
	var run func(context.Context) (any, error)
	switch mode {
	case "centralized":
		run = func(ctx context.Context) (any, error) {
			start := time.Now()
			pts, err := req.positions()
			if err != nil {
				return nil, err
			}
			ar := getArena()
			nw, err := toporouting.BuildNetworkContext(ctx, pts, opts, 0, ar)
			if err != nil {
				putArena(ar)
				return nil, err
			}
			return &topologyResult{
				mode: mode, nw: nw, includeEdges: req.IncludeEdges, ar: ar,
				elapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			}, nil
		}
	case "distributed":
		run = func(ctx context.Context) (any, error) {
			start := time.Now()
			pts, err := req.positions()
			if err != nil {
				return nil, err
			}
			nw, rep, err := toporouting.BuildNetworkDistributedAsyncContext(ctx, pts, opts, req.Faults.plan(), req.BuildSeed)
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
				mode: mode, nw: nw, dist: view, includeEdges: req.IncludeEdges,
				elapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
			}, nil
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown mode %q (want centralized or distributed)", req.Mode))
		return
	}
	s.serveStateless(w, r, "topology", func() (topocache.Key, bool) { return topologyKey(req, mode) }, req.TimeoutMS, run, encodeTopology)
}

// canonicalMode resolves a topology request's mode. One ΘALG build serves
// every centralized alias, so they share one response and one cache entry.
func canonicalMode(mode string) string {
	switch mode {
	case "", "centralized", "parallel", "tiled":
		return "centralized"
	}
	return mode
}

// topologyKey is the cache key of a topology request whose mode resolved
// to mode. timeout_ms never changes the body, so it is left out.
func topologyKey(req *topologyRequest, mode string) (topocache.Key, bool) {
	d := *req
	d.Points, d.TimeoutMS, d.Mode = nil, 0, mode
	return requestDigest("topology", &d, req.Points)
}

// interferenceKey is the cache key of an interference request. Neither
// timeout_ms nor workers changes the body: the interference sets are
// bit-identical for every worker count.
func interferenceKey(req *interferenceRequest) (topocache.Key, bool) {
	d := *req
	d.Points, d.TimeoutMS, d.Workers = nil, 0, 0
	return requestDigest("interference", &d, req.Points)
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
	if err := req.check(s.cfg.MaxNodes); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts := toporouting.Options{
		Theta: req.Theta, Range: req.Range, Delta: req.Delta,
		Telemetry: s.cfg.Telemetry,
	}
	run := func(ctx context.Context) (any, error) {
		start := time.Now()
		pts, err := req.positions()
		if err != nil {
			return nil, err
		}
		ar := getArena()
		// All response values are extracted here, inside the job, so the
		// arena can be released before the result leaves the closure.
		defer putArena(ar)
		nw, err := toporouting.BuildNetworkContext(ctx, pts, opts, clampWorkers(req.Workers, runtime.GOMAXPROCS(0)), ar)
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
		if req.IncludeTransmission {
			res.transmissionEdges = len(nw.TransmissionEdges())
			res.transmissionInterference = nw.TransmissionInterferenceNumber()
		}
		res.elapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
		return res, nil
	}
	s.serveStateless(w, r, "interference", func() (topocache.Key, bool) { return interferenceKey(req) }, req.TimeoutMS, run, func(st *encodeState, v any) error {
		encodeInterferenceResult(st, v.(*interferenceResult))
		return nil
	})
}

// clampWorkers caps a request's workers field at limit (GOMAXPROCS in the
// handlers): the build, the interference-set fan-out and the Monte-Carlo
// sweep each start up to that many goroutines, and more than the
// processors available buys nothing.
func clampWorkers(workers, limit int) int {
	return min(workers, limit)
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
	req.Workers = clampWorkers(req.Workers, runtime.GOMAXPROCS(0))
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
		// An async job outlives the request and its pooled struct, so run
		// captures locals, never req.
		j, err := s.startJob("simulate", req.TimeoutMS, run)
		if err != nil {
			s.writeRunError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, asyncAccepted{
			ID:     j.id,
			Status: string(statusQueued),
			Poll:   "/v1/jobs/" + j.id,
		})
		return
	}
	// Simulation results are deterministic per seed but bulky and rarely
	// repeated; they stream through the pooled encoder without the cache.
	s.serveStateless(w, r, "simulate", nil, req.TimeoutMS, run, encodeJSONValue)
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
// waiting jobs, held slots, in-flight jobs, uptime — is stamped into the
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
	tel.Gauge("server.queue_depth").Set(float64(s.waiting.Load()))
	tel.Gauge("server.workers_busy").Set(float64(len(s.slots)))
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
		// Grace expired: cancel every in-flight context (a waiting job
		// leaves at once) and wait for the per-step checks to observe it.
		s.baseCancel()
		for s.active.Load() > 0 {
			<-tick.C
		}
	}
	s.baseCancel()
	// Sessions close after every job has finished (a session create may
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

// decodeJSON reads the whole body into a pooled buffer and decodes it in
// one pass (decodeRequest) — no per-request decoder or read buffer. Like
// json.Unmarshal it rejects trailing garbage after the JSON value. The read
// and the decode are the request's server.decode span.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst pointsRequest) bool {
	span := telemetry.SpanFromContext(r.Context()).Child("server.decode")
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = decodeRequest(buf.Bytes(), dst)
	}
	span.End()
	if err != nil {
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
