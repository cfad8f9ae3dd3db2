package session

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"toporouting/internal/geom"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
	"toporouting/internal/unitdisk"
)

// Config parameterizes a Registry. The zero value serves with sane
// defaults.
type Config struct {
	// MaxSessions caps hosted sessions across all tenants; 0 selects 256.
	MaxSessions int
	// MaxSessionsPerTenant caps one tenant's sessions; 0 selects 8.
	MaxSessionsPerTenant int
	// MaxNodes caps a session's node count (at creation and per join);
	// 0 selects 50000.
	MaxNodes int
	// EventRate is the per-tenant event token-bucket refill in events/sec;
	// 0 selects 1000, negative disables rate limiting.
	EventRate float64
	// EventBurst is the bucket capacity; 0 selects two seconds of refill.
	EventBurst float64
	// DeltaRing is how many generations each session retains for delta
	// reads; 0 selects 256. A reader further behind gets a full snapshot.
	DeltaRing int
	// IdleTTL evicts sessions with no applies or reads for this long;
	// 0 selects 10m, negative disables eviction.
	IdleTTL time.Duration
	// IDPrefix overrides the "s-" session-id prefix. A multi-shard cluster
	// gives each shard a distinct prefix so ids minted on different shards
	// can never collide after a session is rehosted.
	IDPrefix string
	// Telemetry, when non-nil, records session gauges, per-tenant event
	// counters and repair-locality histograms, and delta-outcome counters.
	Telemetry *telemetry.Telemetry
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.MaxSessionsPerTenant <= 0 {
		c.MaxSessionsPerTenant = 8
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 50000
	}
	if c.EventRate == 0 {
		c.EventRate = 1000
	}
	if c.EventBurst <= 0 {
		c.EventBurst = 2 * math.Max(c.EventRate, 1)
	}
	if c.DeltaRing <= 0 {
		c.DeltaRing = 256
	}
	if c.IdleTTL == 0 {
		c.IdleTTL = 10 * time.Minute
	}
	if c.IDPrefix == "" {
		c.IDPrefix = "s-"
	}
	return c
}

// QuotaError is a tenant-quota rejection. The HTTP layer renders it as
// 429 with RetryAfter rounded up into the Retry-After header.
type QuotaError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string { return "session: " + e.Reason }

// BuildSpec parameterizes a session's initial topology.
type BuildSpec struct {
	// Theta is the cone angle; 0 selects the package default.
	Theta float64
	// Range is the transmission range D, fixed for the session's lifetime;
	// 0 selects 1.3x the critical connectivity range of the initial set.
	Range float64
}

// Registry owns every hosted session: creation (with quota enforcement),
// lookup (tenant-scoped), per-tenant event rate limiting, idle eviction,
// and drain.
type Registry struct {
	cfg Config

	// now is the registry's monotonic clock: elapsed time since the
	// registry was built. All token-bucket refill math runs on its
	// readings, never on wall-clock timestamps, so a stepped system clock
	// cannot inflate Retry-After or starve a tenant. Tests inject a fake.
	now func() time.Duration

	mu       sync.Mutex
	sessions map[string]*Session
	tenants  map[string]*tenantState
	seq      int64
	closed   bool

	stop    chan struct{}
	sweeper sync.WaitGroup
	loops   sync.WaitGroup
}

type tenantState struct {
	sessions int
	bucket   tokenBucket
}

// NewRegistry builds a Registry and starts its idle sweeper.
func NewRegistry(cfg Config) *Registry {
	epoch := time.Now()
	r := &Registry{
		cfg:      cfg.withDefaults(),
		now:      func() time.Duration { return time.Since(epoch) },
		sessions: make(map[string]*Session),
		tenants:  make(map[string]*tenantState),
		stop:     make(chan struct{}),
	}
	if r.cfg.IdleTTL > 0 {
		interval := r.cfg.IdleTTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		if interval > 30*time.Second {
			interval = 30 * time.Second
		}
		r.sweeper.Add(1)
		go r.sweep(interval)
	}
	return r
}

// Create builds a topology over pts per spec and hosts it for tenant. The
// build runs outside the registry lock (it can take seconds at large n);
// the tenant's session slot is reserved first so concurrent creates cannot
// blow the quota, and released if the build fails.
func (r *Registry) Create(ctx context.Context, tenant string, pts []geom.Point, spec BuildSpec) (*Session, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("session: need at least two points, got %d", len(pts))
	}
	if len(pts) > r.cfg.MaxNodes {
		return nil, fmt.Errorf("session: %d points exceeds the %d-node session cap", len(pts), r.cfg.MaxNodes)
	}
	theta := spec.Theta
	if theta == 0 {
		theta = topology.DefaultTheta
	}
	if theta <= 0 || theta > math.Pi/3+1e-12 {
		return nil, fmt.Errorf("session: theta %v outside (0, π/3]", theta)
	}
	dRange := spec.Range
	if dRange == 0 {
		dRange = unitdisk.CriticalRange(pts) * 1.3
	}
	if dRange <= 0 {
		return nil, fmt.Errorf("session: range %v must be positive", dRange)
	}

	id, err := r.reserve(tenant)
	if err != nil {
		return nil, err
	}
	top, err := r.build(ctx, tenant, pts, topology.Config{Theta: theta, Range: dRange, Telemetry: r.cfg.Telemetry})
	if err != nil {
		return nil, err
	}
	s := newSession(id, tenant, topology.NewDynamicFrom(top), r.cfg.DeltaRing, r.cfg.MaxNodes, r.cfg.Telemetry)
	if err := r.host(s, "session.created"); err != nil {
		return nil, err
	}
	return s, nil
}

// host registers s and starts its loop. The tenant's session slot must
// already be reserved; host releases it when registration fails.
func (r *Registry) host(s *Session, counter string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.release(s.Tenant)
		return ErrClosed
	}
	if _, ok := r.sessions[s.ID]; ok {
		r.mu.Unlock()
		r.release(s.Tenant)
		return fmt.Errorf("session: id %q already hosted", s.ID)
	}
	r.sessions[s.ID] = s
	live := len(r.sessions)
	r.mu.Unlock()

	r.loops.Add(1)
	go func() {
		defer r.loops.Done()
		s.loop()
	}()
	if tel := r.cfg.Telemetry; tel.Enabled() {
		tel.Gauge("session.live").Set(float64(live))
		tel.Counter(telemetry.LabeledName(counter, "tenant", s.Tenant)).Inc()
	}
	return nil
}

// build runs the initial ΘALG build of a session whose slot tenant has
// already reserved, releasing the slot when the build fails. A panic
// counts as a failure: the builder panics on duplicate positions, and the
// caller's recover turns that into a client error, so the slot must not
// stay taken. The panic is re-raised after the release.
func (r *Registry) build(ctx context.Context, tenant string, pts []geom.Point, cfg topology.Config) (top *topology.Topology, err error) {
	defer func() {
		if top == nil {
			r.release(tenant)
		}
	}()
	return topology.BuildThetaContext(ctx, pts, cfg, 0)
}

// reserve takes one session slot for tenant and mints the session id.
func (r *Registry) reserve(tenant string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.reserveLocked(tenant); err != nil {
		return "", err
	}
	r.seq++
	return fmt.Sprintf("%s%06d", r.cfg.IDPrefix, r.seq), nil
}

// reserveSlot takes one session slot for tenant on behalf of a session
// keeping an existing id (the restore path): the id must not already be
// hosted here.
func (r *Registry) reserveSlot(tenant, id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sessions[id]; ok {
		return fmt.Errorf("session: id %q already hosted", id)
	}
	return r.reserveLocked(tenant)
}

// reserveLocked enforces the registry-wide and per-tenant session caps and
// claims one slot. Caller holds r.mu.
func (r *Registry) reserveLocked(tenant string) error {
	if r.closed {
		return ErrClosed
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		return &QuotaError{
			Reason:     fmt.Sprintf("registry at the %d-session cap", r.cfg.MaxSessions),
			RetryAfter: 5 * time.Second,
		}
	}
	ts := r.tenant(tenant)
	if ts.sessions >= r.cfg.MaxSessionsPerTenant {
		return &QuotaError{
			Reason:     fmt.Sprintf("tenant %q at its %d-session quota", tenant, r.cfg.MaxSessionsPerTenant),
			RetryAfter: 5 * time.Second,
		}
	}
	ts.sessions++
	return nil
}

func (r *Registry) release(tenant string) {
	r.mu.Lock()
	if ts, ok := r.tenants[tenant]; ok && ts.sessions > 0 {
		ts.sessions--
	}
	r.mu.Unlock()
}

// tenant returns the tenant's state, creating it on first touch. Caller
// holds r.mu.
func (r *Registry) tenant(name string) *tenantState {
	ts, ok := r.tenants[name]
	if !ok {
		ts = &tenantState{bucket: tokenBucket{
			tokens: r.cfg.EventBurst,
			last:   r.now(),
			rate:   r.cfg.EventRate,
			burst:  r.cfg.EventBurst,
		}}
		r.tenants[name] = ts
	}
	return ts
}

// Get returns tenant's session id, or ErrNotFound. A session owned by a
// different tenant is indistinguishable from a missing one — existence is
// tenant-scoped information.
func (r *Registry) Get(tenant, id string) (*Session, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	s, ok := r.sessions[id]
	if !ok || s.Tenant != tenant {
		return nil, ErrNotFound
	}
	return s, nil
}

// Delete closes and removes tenant's session id.
func (r *Registry) Delete(tenant, id string) error {
	r.mu.Lock()
	s, ok := r.sessions[id]
	if !ok || s.Tenant != tenant {
		r.mu.Unlock()
		if r.closed {
			return ErrClosed
		}
		return ErrNotFound
	}
	delete(r.sessions, id)
	if ts, ok := r.tenants[tenant]; ok && ts.sessions > 0 {
		ts.sessions--
	}
	live := len(r.sessions)
	r.mu.Unlock()
	s.Close()
	if tel := r.cfg.Telemetry; tel.Enabled() {
		tel.Gauge("session.live").Set(float64(live))
	}
	return nil
}

// Live reports the number of hosted sessions.
func (r *Registry) Live() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sessions)
}

// AdmitEvents charges one event token for tenant. wait > 0 (with err nil)
// means the bucket is empty and the caller should be shed with that
// retry-after; the server uses this at events-stream admission so an
// over-rate tenant gets a clean 429 before any line is read.
func (r *Registry) AdmitEvents(tenant string) (time.Duration, error) {
	if r.cfg.EventRate < 0 {
		return 0, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, ErrClosed
	}
	return r.tenant(tenant).bucket.take(r.now()), nil
}

// WaitEvent charges one token, pacing the caller (ctx-bounded sleep) when
// the bucket is empty — mid-stream backpressure instead of a mid-stream
// error.
func (r *Registry) WaitEvent(ctx context.Context, tenant string) error {
	if r.cfg.EventRate < 0 {
		return nil
	}
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		wait := r.tenant(tenant).bucket.take(r.now())
		r.mu.Unlock()
		if wait <= 0 {
			return nil
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-r.stop:
			t.Stop()
			return ErrClosed
		}
	}
}

// sweep evicts idle sessions until Close.
func (r *Registry) sweep(interval time.Duration) {
	defer r.sweeper.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-r.cfg.IdleTTL)
		var evict []*Session
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return
		}
		for id, s := range r.sessions {
			if s.IdleSince().Before(cutoff) {
				delete(r.sessions, id)
				if ts, ok := r.tenants[s.Tenant]; ok && ts.sessions > 0 {
					ts.sessions--
				}
				evict = append(evict, s)
			}
		}
		live := len(r.sessions)
		r.mu.Unlock()
		for _, s := range evict {
			s.Close()
		}
		if tel := r.cfg.Telemetry; tel.Enabled() && len(evict) > 0 {
			tel.Gauge("session.live").Set(float64(live))
			tel.Counter("session.evicted").Add(int64(len(evict)))
		}
	}
}

// Close drains the registry: no new sessions or lookups, every hosted
// session's loop stops (disconnecting its watchers and unblocking its
// event streams), and the sweeper exits. Safe to call more than once.
// This runs during server drain, before telemetry sinks flush, so the
// final session state is observable in the traces.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.loops.Wait()
		r.sweeper.Wait()
		return
	}
	r.closed = true
	sessions := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		sessions = append(sessions, s)
	}
	r.sessions = make(map[string]*Session)
	r.mu.Unlock()
	close(r.stop)
	for _, s := range sessions {
		s.Close()
	}
	r.loops.Wait()
	r.sweeper.Wait()
	if tel := r.cfg.Telemetry; tel.Enabled() {
		tel.Gauge("session.live").Set(0)
	}
}

// tokenBucket is a classic refill-on-demand token bucket. take returns 0
// and consumes a token when one is available, or the wait until the next
// token accrues (nothing consumed). now is a monotonic reading (elapsed
// time on the registry clock), not a wall timestamp: refill credit only
// ever accrues forward, and a reading that appears to run backwards —
// impossible from the real clock, trivial from a stepped wall clock —
// neither drains credit nor regresses the refill cursor.
type tokenBucket struct {
	tokens float64
	last   time.Duration
	rate   float64
	burst  float64
}

func (b *tokenBucket) take(now time.Duration) time.Duration {
	if now > b.last {
		dt := (now - b.last).Seconds()
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0
	}
	if b.rate <= 0 {
		return time.Second // no refill configured; arbitrary non-zero wait
	}
	need := (1 - b.tokens) / b.rate
	return time.Duration(need * float64(time.Second))
}
