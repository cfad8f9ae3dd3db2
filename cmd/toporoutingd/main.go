// Command toporoutingd serves the topology-control and routing stack over
// HTTP/JSON: topology builds (centralized, or the asynchronous distributed
// protocol engine), routing simulations (synchronous or as
// pollable async jobs), and interference queries.
//
// Usage:
//
//	toporoutingd [-addr :8080] [-queue 64] [-workers 0]
//	             [-default-timeout 30s] [-max-timeout 5m]
//	             [-max-nodes 50000] [-max-steps 10000000] [-job-ttl 10m]
//	             [-cache on|off] [-cache-bytes 67108864]
//	             [-grace 10s] [-trace trace.jsonl] [-expvar toporouting]
//	             [-log text|json|off] [-trace-slow 32] [-trace-sample 64]
//	             [-max-sessions 256] [-max-tenant-sessions 8]
//	             [-session-rate 1000] [-session-ring 256] [-session-ttl 10m]
//	             [-shards 1] [-replicas 0] [-staleness-gens 64]
//
// Endpoints:
//
//	POST /v1/topology              build a topology; {"mode":"centralized|distributed", ...}
//	                               ("parallel" and "tiled" are aliases of centralized)
//	POST /v1/simulate              run a simulation; {"async":true} returns 202 + job id
//	POST /v1/interference          interference number of a built topology
//	GET  /v1/jobs/{id}             poll an async job
//	POST /v1/sessions              host a topology as a churn session (201 + id)
//	POST /v1/sessions/{id}/events  stream NDJSON join/leave/move events; per-event echo
//	GET  /v1/sessions/{id}         snapshot, or delta/304 with If-None-Match: <gen>
//	GET  /v1/sessions/{id}/watch   live deltas over SSE
//	DELETE /v1/sessions/{id}       end the session
//	GET  /healthz                  liveness
//	GET  /readyz                   readiness (503 while draining)
//	GET  /metrics                  Prometheus text exposition (?format=json for the JSON snapshot)
//	GET  /debug/traces             retained request traces (slowest + uniform sample)
//	GET  /debug/vars               expvar (live telemetry under the -expvar name)
//	GET  /debug/pprof/             net/http/pprof
//
// Sessions are multi-tenant: the X-Tenant-ID header (default "default")
// scopes lookups and quotas — session count per tenant, a shared event-rate
// token bucket, and idle-TTL eviction. Quota rejections answer 429 with
// Retry-After.
//
// With -shards > 1 the session layer runs sharded: tenants map to registry
// shards by consistent hashing, -replicas read replicas per session tail
// each delta stream by generation cursor (serving conditional GETs and
// watches while within -staleness-gens of the acked stream; the
// X-Session-Source response header reports which side answered), and a
// dead shard's sessions fail over from their replica logs with zero acked
// events lost. GET /debug/cluster reports placement; POST
// /debug/cluster/kill?shard=N hard-stops a shard (fault injection — the
// in-process equivalent of SIGKILLing its host).
//
// Every /v1 request is traced as a span tree — admission wait, worker
// pickup, build phases, simulation steps, response encode — and logged as
// one structured line carrying its request and trace ids (echoed to the
// client as X-Request-ID / X-Trace-ID). The -trace-slow slowest traces
// plus a -trace-sample uniform sample are retained in memory and served
// at /debug/traces; with -trace set, finished spans also stream to the
// JSONL sink alongside step-level events.
//
// Stateless topology and interference responses are memoized in a
// byte-bounded, digest-keyed cache: ΘALG output is a pure function of the
// request, so a repeat request is answered from the exact cached bytes
// (X-Cache: hit) or coalesced onto an in-flight identical build. The cache
// key doubles as a strong ETag; If-None-Match answers 304 Not Modified
// without building. -cache-bytes sizes the cache (default 64 MiB),
// -cache off disables it entirely.
//
// Load is shed explicitly: requests queue on a bounded admission queue
// drained by a fixed worker pool, and a full queue answers 429 with
// Retry-After. Every request carries a deadline (timeout_ms, capped by
// -max-timeout, defaulting to -default-timeout), and a disconnected client
// cancels its synchronous job within one simulation step.
//
// SIGINT/SIGTERM drains gracefully: readiness flips to 503, admission
// stops, in-flight jobs get -grace to finish, stragglers are cancelled
// through their contexts, and the trace sink (when -trace is set) is
// flushed and fsynced before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"toporouting"
	"toporouting/internal/server"
	"toporouting/internal/session"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "toporoutingd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		queue          = flag.Int("queue", 64, "admission queue depth (full queue sheds with 429)")
		workers        = flag.Int("workers", 0, "job executor count (0 = GOMAXPROCS)")
		defaultTimeout = flag.Duration("default-timeout", 30*time.Second, "deadline for requests without timeout_ms")
		maxTimeout     = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested timeouts")
		maxNodes       = flag.Int("max-nodes", 50000, "per-request node cap")
		maxSteps       = flag.Int("max-steps", 10_000_000, "per-request steps×runs cap")
		jobTTL         = flag.Duration("job-ttl", 10*time.Minute, "retention of finished async jobs")
		cacheMode      = flag.String("cache", "on", "digest-keyed response cache: on or off")
		cacheBytes     = flag.Int64("cache-bytes", 64<<20, "response cache size bound in bytes")
		grace          = flag.Duration("grace", 10*time.Second, "drain grace period on SIGTERM")
		trace          = flag.String("trace", "", "stream JSONL trace events to this file")
		expvarName     = flag.String("expvar", "toporouting", "expvar name for the live telemetry snapshot")
		logFormat      = flag.String("log", "text", "request log format: text, json, or off")
		traceSlow      = flag.Int("trace-slow", 32, "retain this many slowest request traces")
		traceSample    = flag.Int("trace-sample", 64, "retain a uniform sample of this many request traces")

		maxSessions       = flag.Int("max-sessions", 256, "hosted-session cap across all tenants")
		maxTenantSessions = flag.Int("max-tenant-sessions", 8, "hosted-session cap per tenant")
		sessionRate       = flag.Float64("session-rate", 1000, "per-tenant event rate limit, events/sec (negative = unlimited)")
		sessionRing       = flag.Int("session-ring", 256, "delta generations retained per session")
		sessionTTL        = flag.Duration("session-ttl", 10*time.Minute, "evict sessions idle this long (negative = never)")
		shards            = flag.Int("shards", 1, "session registry shards (tenants map by consistent hashing)")
		replicas          = flag.Int("replicas", 0, "read replicas per hosted session (clamped to shards-1)")
		stalenessGens     = flag.Int("staleness-gens", 64, "replica read staleness budget in generations")
	)
	flag.Parse()

	effCacheBytes := *cacheBytes
	switch *cacheMode {
	case "on":
		if effCacheBytes <= 0 {
			effCacheBytes = -1 // -cache on with a non-positive size is still off
		}
	case "off":
		effCacheBytes = -1
	default:
		return fmt.Errorf("unknown -cache mode %q (want on or off)", *cacheMode)
	}

	var logger *slog.Logger
	switch *logFormat {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		return fmt.Errorf("unknown -log format %q (want text, json, or off)", *logFormat)
	}

	var (
		tel  *toporouting.Telemetry
		sink toporouting.TraceSink
	)
	if *trace != "" {
		var err error
		sink, err = toporouting.CreateJSONLTrace(*trace)
		if err != nil {
			return err
		}
		tel = toporouting.NewTracedTelemetry(sink)
	} else {
		tel = toporouting.NewTelemetry()
	}
	toporouting.PublishExpvar(*expvarName, tel)
	tracer := toporouting.NewTracer(tel, toporouting.NewTraceRing(*traceSlow, *traceSample))

	srv := server.New(server.Config{
		QueueDepth:     *queue,
		Workers:        *workers,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxNodes:       *maxNodes,
		MaxSteps:       *maxSteps,
		JobTTL:         *jobTTL,
		CacheBytes:     effCacheBytes,
		Telemetry:      tel,
		Tracer:         tracer,
		Logger:         logger,
		Sink:           sink,
		Sessions: session.Config{
			MaxSessions:          *maxSessions,
			MaxSessionsPerTenant: *maxTenantSessions,
			EventRate:            *sessionRate,
			DeltaRing:            *sessionRing,
			IdleTTL:              *sessionTTL,
		},
		Shards:               *shards,
		Replicas:             *replicas,
		ReplicaStalenessGens: *stalenessGens,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("toporoutingd listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-sigCtx.Done():
	}

	log.Printf("toporoutingd draining (grace %s, %d in flight)", *grace, srv.InFlight())
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain jobs first — synchronous handlers hold their connections until
	// their jobs finish, so the HTTP shutdown below completes once the job
	// drain does.
	drainErr := srv.Shutdown(graceCtx)
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := httpSrv.Shutdown(httpCtx); err != nil {
		log.Printf("toporoutingd: http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Printf("toporoutingd: drain forced after grace period: %v", drainErr)
	} else {
		log.Printf("toporoutingd: drained cleanly")
	}
	return nil
}
