package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"toporouting/internal/telemetry"
)

// Request-scoped observability for the /v1 endpoints: every request gets a
// process-unique id (echoed as X-Request-ID), a root span when a Tracer is
// configured (trace id echoed as X-Trace-ID), RED metrics — request count
// by endpoint and status code, 5xx error count, and a fixed-bucket latency
// histogram per endpoint — and one structured log line when a Logger is
// configured. The health, metrics, and debug endpoints stay uninstrumented
// so scrapes and probes do not pollute the request series.

// statusWriter captures the response code and body size for metrics and
// logging without changing handler behavior. It also carries the server and
// request id so response-encode failures can be accounted at the write site.
type statusWriter struct {
	http.ResponseWriter
	srv   *Server
	reqID string
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flush through this wrapper — the streaming session endpoints need it.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// noteEncodeError records a response-encode or body-write failure instead
// of dropping it silently: counted in server.encode_errors and logged with
// the request id. Writes outside the instrumented /v1 surface (no
// statusWriter, so no request id or server reference) stay unaccounted.
func noteEncodeError(w http.ResponseWriter, err error) {
	sw, ok := w.(*statusWriter)
	if !ok {
		return
	}
	if tel := sw.srv.cfg.Telemetry; tel.Enabled() {
		tel.Counter("server.encode_errors").Inc()
	}
	if lg := sw.srv.cfg.Logger; lg != nil {
		lg.LogAttrs(context.Background(), slog.LevelError, "response encode failed",
			slog.String("request_id", sw.reqID),
			slog.String("error", err.Error()))
	}
}

// routeInstruments are one /v1 route's RED instruments. Each is resolved on
// its first use and cached, so a request renders no label set and takes no
// registry lock.
type routeInstruments struct {
	requests telemetry.LazyMap[int, telemetry.Counter] // by status code
	errors   telemetry.Lazy[telemetry.Counter]
	latency  telemetry.Lazy[telemetry.BucketHistogram]
}

// instrument wraps a /v1 handler with tracing, RED metrics, and request
// logging. endpoint is the route pattern (label-safe: "/v1/jobs/{id}", not
// the concrete path, so label cardinality stays bounded).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	ri := new(routeInstruments)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqID := fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
		ctx, span := s.cfg.Tracer.Start(r.Context(), r.Method+" "+endpoint)
		sw := &statusWriter{ResponseWriter: w, srv: s, reqID: reqID}
		sw.Header().Set("X-Request-ID", reqID)
		traceID := span.TraceID()
		if traceID != "" {
			sw.Header().Set("X-Trace-ID", traceID)
		}

		h(sw, r.WithContext(ctx))

		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		durMS := float64(time.Since(t0)) / float64(time.Millisecond)
		span.SetAttr("status", float64(sw.code))
		span.SetAttr("resp_bytes", float64(sw.bytes))
		span.End()

		if tel := s.cfg.Telemetry; tel.Enabled() {
			ri.requests.Get(sw.code, func(code int) *telemetry.Counter {
				return tel.Counter(telemetry.LabeledName("http.requests", "endpoint", endpoint, "code", strconv.Itoa(code)))
			}).Inc()
			if sw.code >= 500 {
				ri.errors.Get(func() *telemetry.Counter {
					return tel.Counter(telemetry.LabeledName("http.errors", "endpoint", endpoint))
				}).Inc()
			}
			ri.latency.Get(func() *telemetry.BucketHistogram {
				return tel.BucketHistogram(telemetry.LabeledName("http.latency_ms", "endpoint", endpoint), telemetry.DefLatencyBuckets)
			}).Observe(durMS)
		}
		if lg := s.cfg.Logger; lg != nil {
			level := slog.LevelInfo
			if sw.code >= 500 {
				level = slog.LevelError
			}
			lg.LogAttrs(r.Context(), level, "request",
				slog.String("request_id", reqID),
				slog.String("trace_id", traceID),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.String("endpoint", endpoint),
				slog.Int("status", sw.code),
				slog.Float64("dur_ms", durMS),
				slog.Int("resp_bytes", sw.bytes),
			)
		}
	}
}
