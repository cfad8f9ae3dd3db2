package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"toporouting/internal/session"
	"toporouting/internal/telemetry"
)

// Multi-tenant streaming churn sessions. A session hosts a built topology
// behind the registry's single-writer loops; churn arrives as NDJSON event
// streams repaired incrementally (the ~18x-over-rebuild dynamic path), and
// readers follow along with generation-numbered deltas — If-None-Match
// conditional GETs (304 / delta / full snapshot) or an SSE watch stream.
//
// Tenancy is the X-Tenant-ID header (default "default"). Lookups are
// tenant-scoped: another tenant's session id is a 404, not a 403, so ids
// leak no existence information. Quota rejections — session caps and the
// per-tenant event token bucket — surface as 429 + Retry-After, the same
// contract as admission-queue shedding.

// sessionCreateRequest is the body of POST /v1/sessions.
type sessionCreateRequest struct {
	pointSpec
	Theta     float64 `json:"theta,omitempty"`
	Range     float64 `json:"range,omitempty"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// sessionCreateResponse is the 201 body of POST /v1/sessions.
type sessionCreateResponse struct {
	session.Stats
	ElapsedMS float64 `json:"elapsed_ms"`
}

// tenantOf extracts the requesting tenant from X-Tenant-ID, defaulting to
// "default". The id is clamped to 64 bytes so it stays label-safe in
// metrics.
func tenantOf(r *http.Request) string {
	t := strings.TrimSpace(r.Header.Get("X-Tenant-ID"))
	if t == "" {
		return "default"
	}
	if len(t) > 64 {
		t = t[:64]
	}
	return t
}

// encodeBufPool holds snapshot/delta encode buffers. Responses are encoded
// loop-side into a pooled buffer and written to the socket with WriteTo —
// one copy, no per-request allocation once the pool is warm.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool; a one-off million-node
// snapshot should not pin megabytes forever.
const maxPooledBuf = 4 << 20

func getEncodeBuf() *bytes.Buffer {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

func putEncodeBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuf {
		encodeBufPool.Put(buf)
	}
}

// writeSessionError maps session-layer errors onto the transport: quota
// breaches are backpressure (429 + Retry-After), lifecycle errors are 404
// or 503, and anything else from Create/Apply validation is the client's
// 400.
func writeSessionError(w http.ResponseWriter, err error) {
	var qe *session.QuotaError
	switch {
	case errors.As(err, &qe):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterCeil(qe.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, qe.Error())
	case errors.Is(err, session.ErrNotFound):
		writeError(w, http.StatusNotFound, "no such session")
	case errors.Is(err, session.ErrClosed), errors.Is(err, session.ErrSessionClosed):
		writeError(w, http.StatusServiceUnavailable, "session layer draining")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func retryAfterCeil(d time.Duration) int {
	ra := int(math.Ceil(d.Seconds()))
	if ra < 1 {
		ra = 1
	}
	return ra
}

// handleSessionCreate builds and registers a hosted topology. The build
// runs as a job through the admission queue — it is the same order of work
// as POST /v1/topology and must compete for the same workers.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	pts, err := req.resolve(s.cfg.MaxNodes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	tenant := tenantOf(r)
	spec := session.BuildSpec{Theta: req.Theta, Range: req.Range}
	run := func(ctx context.Context) (any, error) {
		start := time.Now()
		sess, err := s.cluster.Create(ctx, tenant, pts, spec)
		if err != nil {
			return nil, err
		}
		st, err := sess.Stats(ctx)
		if err != nil {
			return nil, err
		}
		return sessionCreateResponse{
			Stats:     st,
			ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
		}, nil
	}
	result, jerr := s.runJob(r.Context(), "session.create", req.TimeoutMS, run)
	if jerr != nil {
		// Admission sentinels carry backpressure semantics (Retry-After);
		// everything else is a session-layer error.
		if errors.Is(jerr, errQueueFull) || errors.Is(jerr, errDraining) {
			s.writeRunError(w, jerr)
		} else {
			writeSessionError(w, jerr)
		}
		return
	}
	resp := result.(sessionCreateResponse)
	w.Header().Set("ETag", strconv.FormatInt(resp.Gen, 10))
	w.Header().Set("Location", "/v1/sessions/"+resp.ID)
	_, span := telemetry.StartChild(r.Context(), "encode")
	writeJSON(w, http.StatusCreated, resp)
	span.End()
}

// handleSessionEvents applies an NDJSON stream of join/leave/move events,
// echoing one ApplyResult line per event. Event streams are not jobs: each
// event is sub-millisecond 2D-ball repair work serialized by the session's
// own loop, so routing them through the worker pool would cost a queue
// round-trip per event for no isolation gain. The stream respects drain
// (stops at the next event once the server starts draining) and paces
// itself against the tenant's token bucket — admission charges the first
// event's token and sheds with 429 when the bucket is already empty.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	sess, err := s.cluster.Get(tenant, r.PathValue("id"))
	if err != nil {
		writeSessionError(w, err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	wait, err := s.cluster.AdmitEvents(tenant)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	if wait > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterCeil(wait)))
		writeError(w, http.StatusTooManyRequests, "tenant event rate exceeded")
		return
	}

	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// Result lines interleave with body reads; without full duplex the
	// server closes the request body at the first response write.
	if err := rc.EnableFullDuplex(); err != nil {
		writeError(w, http.StatusInternalServerError, "streaming unsupported: "+err.Error())
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	enc := json.NewEncoder(w)
	tel := s.cfg.Telemetry

	// The first event's token was charged at admission.
	charged := true
	seq := 0
	emit := func(res session.ApplyResult) bool {
		if err := enc.Encode(res); err != nil {
			return false
		}
		if seq%32 == 0 {
			_ = rc.Flush()
		}
		return true
	}
	for {
		var ev session.Event
		if err := dec.Decode(&ev); err != nil {
			if !errors.Is(err, io.EOF) {
				// NDJSON has no resync point after a malformed value; report
				// and terminate so the client sees exactly where it broke.
				emit(session.ApplyResult{Seq: seq, Err: "invalid event: " + err.Error()})
			}
			break
		}
		seq++
		if s.draining.Load() {
			emit(session.ApplyResult{Seq: seq, Op: ev.Op, Err: "server draining"})
			break
		}
		if !charged {
			if err := s.cluster.WaitEvent(ctx, tenant); err != nil {
				emit(session.ApplyResult{Seq: seq, Op: ev.Op, Err: "stream closed: " + err.Error()})
				break
			}
		}
		charged = false
		t0 := time.Now()
		res, err := sess.Apply(ctx, ev)
		if err != nil {
			emit(session.ApplyResult{Seq: seq, Op: ev.Op, Err: "stream closed: " + err.Error()})
			break
		}
		if tel.Enabled() {
			tel.BucketHistogram(
				telemetry.LabeledName("session.apply_ms", "tenant", tenant),
				telemetry.DefLatencyBuckets,
			).Observe(float64(time.Since(t0)) / float64(time.Millisecond))
		}
		res.Seq = seq
		if !emit(res) {
			break // client gone
		}
	}
	_ = rc.Flush()
}

// parseSinceGen reads the If-None-Match header as a generation number.
// Absent or unparseable (a foreign ETag) means "no usable generation",
// which serves the full snapshot — the safe interpretation either way.
func parseSinceGen(r *http.Request) int64 {
	v := strings.TrimSpace(r.Header.Get("If-None-Match"))
	if v == "" {
		return -1
	}
	v = strings.TrimPrefix(v, "W/")
	v = strings.Trim(v, `"`)
	g, err := strconv.ParseInt(v, 10, 64)
	if err != nil || g < 0 {
		return -1
	}
	return g
}

// handleSessionGet serves the session state conditionally: 304 when the
// caller's generation (If-None-Match) is current, a compact delta when the
// ring still covers it, a full snapshot otherwise. The ETag is the
// generation — the caller echoes it back to stay on the delta path.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	outcome, gen, source, err := s.cluster.EncodeSince(r.Context(), tenantOf(r), r.PathValue("id"), parseSinceGen(r), buf)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	w.Header().Set("ETag", strconv.FormatInt(gen, 10))
	w.Header().Set("X-Session-Source", source)
	var label string
	switch outcome {
	case session.NotModified:
		label = "not_modified"
		w.WriteHeader(http.StatusNotModified)
	case session.DeltaServed:
		label = "delta"
	default:
		label = "full"
	}
	if tel := s.cfg.Telemetry; tel.Enabled() {
		tel.Counter(telemetry.LabeledName("session.get", "result", label)).Inc()
	}
	if outcome == session.NotModified {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, span := telemetry.StartChild(r.Context(), "encode")
	_, _ = buf.WriteTo(w)
	span.End()
}

// handleSessionWatch streams delta records over SSE. Each applied event
// arrives as one `delta` event; a `hello` event opens the stream with the
// current generation (the watcher snapshots at that generation and applies
// deltas from there). When the watcher falls behind or the session closes,
// the stream ends — the client's signal to resync from a snapshot. A
// stale-bounded replica serves the stream when one is available.
//
// Every write carries a deadline (Config.WatchWriteTimeout): a subscriber
// that stops reading blocks its handler in the kernel send buffer, and an
// unbounded write there would hold the connection open past Registry.Close
// and stall the server's drain behind one laggard.
func (s *Server) handleSessionWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ctx := r.Context()
	ch, gen, cancel, source, err := s.cluster.Subscribe(ctx, tenantOf(r), id, 256)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.Header().Set("X-Session-Source", source)
	rc := http.NewResponseController(w)
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)

	writeEvent := func(kind string, v any) bool {
		buf.Reset()
		buf.WriteString("event: ")
		buf.WriteString(kind)
		buf.WriteString("\ndata: ")
		if err := json.NewEncoder(buf).Encode(v); err != nil {
			return false
		}
		buf.WriteString("\n") // Encode wrote one \n; SSE needs a blank line
		_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WatchWriteTimeout))
		if _, err := buf.WriteTo(w); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	if !writeEvent("hello", map[string]any{"id": id, "gen": gen}) {
		return
	}
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case rec, ok := <-ch:
			if !ok {
				// Lagged out or session closed; tell the client to resync.
				_ = writeEvent("bye", map[string]string{"reason": "resync"})
				return
			}
			if !writeEvent("delta", rec) {
				return
			}
		case <-heartbeat.C:
			_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.WatchWriteTimeout))
			if _, err := io.WriteString(w, ": ping\n\n"); err != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// handleSessionDelete tears down a session; watchers see their streams
// close.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.cluster.Delete(tenantOf(r), r.PathValue("id")); err != nil {
		writeSessionError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleClusterStatus reports shard liveness and session placement.
func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cluster.Status())
}

// handleClusterKill hard-stops one shard (?shard=N) — the in-process
// equivalent of SIGKILLing its host. Nothing is recovered from the dead
// shard itself: its sessions fail over from their replica logs (or are
// lost, and counted, when unreplicated). Fault-injection surface for the
// rebalance smoke; the response reports what moved.
func (s *Server) handleClusterKill(w http.ResponseWriter, r *http.Request) {
	idx, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "shard query parameter must be an integer")
		return
	}
	st, err := s.cluster.Kill(idx)
	if err != nil {
		if errors.Is(err, session.ErrClosed) {
			writeError(w, http.StatusServiceUnavailable, "session layer draining")
			return
		}
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}
