package dist

import (
	"container/heap"
	"context"
	"fmt"
	"math/rand"

	"toporouting/internal/geom"
	"toporouting/internal/spatial"
	"toporouting/internal/telemetry"
	"toporouting/internal/topology"
)

// Config parameterizes a distributed build.
type Config struct {
	// Theta is the ΘALG cone angle in (0, π/3]; 0 selects the default.
	Theta float64
	// Range is the transmission radius D (> 0).
	Range float64
	// Seed drives all randomness of the run: fault sampling, delays,
	// crash schedules, and hello jitter. Replays with the same (points,
	// Config) are bit-identical.
	Seed int64
	// Faults is the fault-injection plan (zero value = fault-free).
	Faults Faults
	// MailboxCap bounds each actor's mailbox; arrivals beyond it are
	// dropped and counted (0 selects 1024).
	MailboxCap int
	// MaxRetries bounds the retransmissions of one reliable state
	// transfer (0 selects 16).
	MaxRetries int
	// MaxEvents is a runaway safety cap on processed events; exceeding it
	// aborts the run as non-quiescent (0 selects 4M + 50k·n).
	MaxEvents int64
	// Telemetry, when non-nil, records message counters, retry counts,
	// mailbox high-water marks, and rounds-to-convergence. nil disables
	// instrumentation at zero cost.
	Telemetry *telemetry.Telemetry
}

func (c Config) withDefaults(n int) Config {
	if c.Theta == 0 {
		c.Theta = topology.DefaultTheta
	}
	if c.MailboxCap <= 0 {
		c.MailboxCap = 1024
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 16
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 4_000_000 + 50_000*int64(n)
	}
	c.Faults = c.Faults.withDefaults()
	return c
}

// Stats counts the traffic and fault activity of one run.
type Stats struct {
	// Sent counts transmissions: one per unicast, one per broadcast
	// (regardless of receivers). Delivered counts mailbox arrivals;
	// Dropped counts link-level losses (including arrivals at crashed
	// nodes); MailboxDropped counts overflow losses at full mailboxes.
	Sent, Delivered, Dropped, MailboxDropped int64
	// Retries counts retransmissions of reliable transfers; Expired
	// counts transfers abandoned after MaxRetries.
	Retries, Expired int64
	// Per-kind send counts.
	Hellos, HelloReplies, Selects, Grants, Acks int64
	// Crashes and Restarts count injected fault events that fired.
	Crashes, Restarts int64
	// GrantsActive counts directed admissions in the final state;
	// GrantsConfirmed counts those the admitted side also knows about.
	GrantsActive, GrantsConfirmed int64
	// MailboxHighWater is the maximum mailbox depth observed anywhere.
	MailboxHighWater int
	// Events is the number of processed engine events; VTime is the
	// virtual time (ticks) of the last state-changing event — the
	// rounds-to-convergence of the run, since the base link delay is one
	// tick.
	Events int64
	VTime  int64
	// Quiesced reports that the event queue drained (false only when
	// MaxEvents aborted the run).
	Quiesced bool
	// Hash is an FNV-1a fold of every processed event; equal hashes mean
	// bit-identical replays.
	Hash uint64
}

// Outcome is the result of a distributed build: the topology assembled
// from the actors' local tables, and the run statistics. Certify checks it
// against the centralized reference.
type Outcome struct {
	// Top is the topology assembled from per-node protocol state
	// (NearestOut from phase-1 selections, AdmitIn from phase-2
	// admissions). On fault-free runs it is edge-identical to
	// topology.BuildTheta on the same inputs.
	Top *topology.Topology
	// Pts and Cfg echo the inputs (Cfg with defaults resolved).
	Pts []geom.Point
	Cfg Config
	// Stats is the run's traffic and fault accounting.
	Stats Stats
}

// event kinds of the discrete-event engine.
type evKind uint8

const (
	evDeliver evKind = iota // message arrival at a node's mailbox
	evWake                  // drain a node's mailbox
	evHello                 // (re)broadcast a node's HELLO beacon
	evTimer                 // reliable-transfer retry timer
	evCrash                 // node crash (state loss)
	evRestart               // node restart (new incarnation)
)

type event struct {
	t    int64
	seq  uint64
	kind evKind
	node int32
	msg  Msg
	// timer payload: peer and channel of the guarded transfer, and the
	// version it was armed for (stale timers no-op).
	peer int32
	ch   channel
	ver  uint32
	// hello payload: remaining rebroadcasts and current gap.
	left int
	gap  int64
}

// eventQueue is a binary min-heap on (t, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	ev := old[n-1]
	*q = old[:n-1]
	return ev
}

// engine is the deterministic discrete-event runtime: virtual clock, event
// queue, actors, and the faulty medium. It is single-threaded; determinism
// follows from the (time, seq) total order and the single rng.
type engine struct {
	cfg     Config
	pts     []geom.Point
	sectors geom.Sectors
	medium  *spatial.Grid
	rng     *rand.Rand
	queue   eventQueue
	now     int64
	seq     uint64
	nodes   []node
	stats   Stats
	rtoBase int64
	rtoCap  int64
}

func (e *engine) schedule(ev event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
}

// fnv1a folds x into h (FNV-1a, 64-bit).
func fnv1a(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

func (e *engine) fold(ev *event) {
	h := e.stats.Hash
	h = fnv1a(h, uint64(ev.t))
	h = fnv1a(h, uint64(ev.kind))
	h = fnv1a(h, uint64(uint32(ev.node)))
	h = fnv1a(h, uint64(ev.msg.Kind)<<32|uint64(uint32(ev.msg.From)))
	h = fnv1a(h, uint64(ev.msg.Ver)<<32|uint64(ev.msg.Inc))
	e.stats.Hash = h
}

// Build runs the message-passing protocol over pts to quiescence and
// returns the assembled topology with run statistics. It panics on invalid
// geometry (mirroring topology.BuildTheta) and returns an error only for
// an invalid fault plan.
func Build(pts []geom.Point, cfg Config) (*Outcome, error) {
	return BuildContext(context.Background(), pts, cfg)
}

// BuildContext is Build under a cancellation context: the discrete-event
// loop checks ctx every ctxCheckStride events and returns (nil, ctx.Err())
// promptly after cancellation, abandoning the partially converged run. A
// background context makes it identical to Build — the check never
// perturbs the deterministic schedule, only cuts it short.
func BuildContext(ctx context.Context, pts []geom.Point, cfg Config) (*Outcome, error) {
	n := len(pts)
	cfg = cfg.withDefaults(n)
	if cfg.Range <= 0 {
		panic(fmt.Sprintf("dist: non-positive range %v", cfg.Range))
	}
	if err := cfg.Faults.validate(); err != nil {
		return nil, err
	}
	if cfg.Faults.Crashes > n {
		return nil, fmt.Errorf("dist: %d crashes for %d nodes", cfg.Faults.Crashes, n)
	}
	topology.CheckDistinct(pts)
	tel := cfg.Telemetry
	stopBuild := tel.StartPhase("dist.build")
	_, span := telemetry.StartChild(ctx, "dist.build")
	span.SetAttr("n", float64(n))

	e := &engine{
		cfg:     cfg,
		pts:     pts,
		sectors: geom.NewSectors(cfg.Theta),
		medium:  spatial.NewGrid(pts, cfg.Range),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		rtoBase: 4 + 2*int64(cfg.Faults.MaxDelay),
		stats:   Stats{Hash: 14695981039346656037},
	}
	e.rtoCap = 64 * e.rtoBase
	e.nodes = make([]node, n)
	for i := range e.nodes {
		e.nodes[i].init(int32(i), pts[i], n, e.sectors.Count())
	}

	// Boot: every node schedules its HELLO beacon sequence with a small
	// random jitter (desynchronizing mailbox load), and the fault plan
	// schedules its crash/restart events.
	repeats := cfg.Faults.helloRepeats()
	for i := range e.nodes {
		e.schedule(event{t: e.rng.Int63n(4), kind: evHello, node: int32(i), left: repeats, gap: 8})
	}
	if cfg.Faults.Crashes > 0 {
		victims := e.rng.Perm(n)[:cfg.Faults.Crashes]
		for _, v := range victims {
			at := 2 + e.rng.Int63n(int64(cfg.Faults.CrashSpread))
			e.schedule(event{t: at, kind: evCrash, node: int32(v)})
		}
	}

	e.run(ctx)
	if err := ctx.Err(); err != nil {
		stopBuild()
		span.End()
		return nil, err
	}

	out := &Outcome{
		Pts:   pts,
		Cfg:   cfg,
		Stats: e.stats,
		Top:   e.assemble(),
	}
	stopBuild()
	span.SetAttr("events", float64(e.stats.Events))
	span.SetAttr("sent", float64(e.stats.Sent))
	span.End()
	e.record(tel)
	return out, nil
}

// ctxCheckStride is how many discrete events the run loop processes
// between context checks — frequent enough that cancellation lands within
// microseconds of protocol work, rare enough to stay off the profile.
const ctxCheckStride = 1024

// run drains the event queue (or aborts at the MaxEvents safety cap, or at
// context cancellation).
func (e *engine) run(ctx context.Context) {
	e.stats.Quiesced = true
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(event)
		e.now = ev.t
		e.stats.Events++
		if e.stats.Events > e.cfg.MaxEvents {
			e.stats.Quiesced = false
			return
		}
		if e.stats.Events%ctxCheckStride == 0 && ctx.Err() != nil {
			e.stats.Quiesced = false
			return
		}
		e.fold(&ev)
		nd := &e.nodes[ev.node]
		switch ev.kind {
		case evDeliver:
			e.deliver(nd, ev.msg)
		case evWake:
			e.wake(nd)
		case evHello:
			e.hello(nd, ev.left, ev.gap)
		case evTimer:
			e.fireTimer(nd, ev.peer, ev.ch, ev.ver)
		case evCrash:
			e.crash(nd)
		case evRestart:
			e.restart(nd)
		}
	}
}

// touch marks virtual time t as state-changing activity.
func (e *engine) touch() {
	if e.now > e.stats.VTime {
		e.stats.VTime = e.now
	}
}

// send transmits a unicast message, sampling the fault plan. The medium
// only ever consults positions to enforce the radio range — nodes address
// peers they discovered through messages.
func (e *engine) send(m Msg) {
	e.stats.Sent++
	switch m.Kind {
	case KindHelloReply:
		e.stats.HelloReplies++
	case KindSelect:
		e.stats.Selects++
	case KindGrant:
		e.stats.Grants++
	case KindAck:
		e.stats.Acks++
	}
	if geom.Dist(e.pts[m.From], e.pts[m.To]) > e.cfg.Range {
		e.stats.Dropped++ // out of radio range: the medium loses it
		return
	}
	e.dispatch(m)
}

// dispatch samples drop/delay for one delivery attempt.
func (e *engine) dispatch(m Msg) {
	if f := e.cfg.Faults; f.Drop > 0 && e.rng.Float64() < f.Drop {
		e.stats.Dropped++
		return
	}
	delay := int64(1)
	if e.cfg.Faults.MaxDelay > 0 {
		delay += e.rng.Int63n(int64(e.cfg.Faults.MaxDelay) + 1)
	}
	e.schedule(event{t: e.now + delay, kind: evDeliver, node: m.To, msg: m})
}

// hello broadcasts nd's beacon to every in-range node and schedules the
// next rebroadcast with doubling gaps while any remain.
func (e *engine) hello(nd *node, left int, gap int64) {
	if !nd.alive {
		return // crashed before this beacon; restart schedules a fresh sequence
	}
	e.stats.Sent++
	e.stats.Hellos++
	e.touch()
	m := Msg{Kind: KindHello, From: nd.id, To: -1, Inc: nd.inc, Pos: nd.pos}
	e.medium.ForEachWithin(nd.pos, e.cfg.Range, func(v int) {
		if int32(v) == nd.id {
			return
		}
		mv := m
		mv.To = int32(v)
		e.dispatch(mv)
	})
	if left > 1 {
		e.schedule(event{t: e.now + gap, kind: evHello, node: nd.id, left: left - 1, gap: min64(gap*2, 64)})
	}
}

// deliver appends a message to the target mailbox (bounded) and wakes the
// actor.
func (e *engine) deliver(nd *node, m Msg) {
	if !nd.alive {
		e.stats.Dropped++
		return
	}
	if len(nd.mailbox) >= e.cfg.MailboxCap {
		e.stats.MailboxDropped++
		return
	}
	nd.mailbox = append(nd.mailbox, m)
	e.stats.Delivered++
	if d := len(nd.mailbox); d > e.stats.MailboxHighWater {
		e.stats.MailboxHighWater = d
	}
	if !nd.wakeScheduled {
		nd.wakeScheduled = true
		e.schedule(event{t: e.now, kind: evWake, node: nd.id})
	}
}

// wake drains the actor's mailbox in FIFO order.
func (e *engine) wake(nd *node) {
	nd.wakeScheduled = false
	if !nd.alive {
		nd.mailbox = nd.mailbox[:0]
		return
	}
	if len(nd.mailbox) == 0 {
		return // stale wake from before a crash
	}
	e.touch()
	for len(nd.mailbox) > 0 {
		m := nd.mailbox[0]
		nd.mailbox = nd.mailbox[1:]
		nd.handle(e, m)
	}
}

// fireTimer retries (or abandons) a reliable transfer. Stale timers —
// acked or superseded transfers — no-op.
func (e *engine) fireTimer(nd *node, peer int32, ch channel, ver uint32) {
	if !nd.alive {
		return
	}
	tr := nd.chans[ch][peer]
	if tr == nil || tr.ver != ver {
		return
	}
	if tr.attempts >= e.cfg.MaxRetries {
		delete(nd.chans[ch], peer)
		e.stats.Expired++
		return
	}
	tr.attempts++
	tr.rto = min64(tr.rto*2, e.rtoCap)
	e.stats.Retries++
	e.touch()
	e.transmit(nd, ch, peer, tr)
}

// transmit emits the current state of one reliable transfer and re-arms
// its timer.
func (e *engine) transmit(nd *node, ch channel, peer int32, tr *transfer) {
	e.send(Msg{Kind: ch.kindOf(), From: nd.id, To: peer, Inc: nd.inc, Ver: tr.ver, On: tr.on, Pos: nd.pos})
	e.schedule(event{t: e.now + tr.rto, kind: evTimer, node: nd.id, peer: peer, ch: ch, ver: tr.ver})
}

// crash kills the node: all protocol state, the mailbox, and outstanding
// transfers are lost.
func (e *engine) crash(nd *node) {
	if !nd.alive {
		return
	}
	e.stats.Crashes++
	e.touch()
	inc := nd.inc
	nd.init(nd.id, nd.pos, len(e.nodes), e.sectors.Count())
	nd.alive = false
	nd.inc = inc
	restartAt := e.now + 1 + e.rng.Int63n(int64(e.cfg.Faults.RestartDelay))
	e.schedule(event{t: restartAt, kind: evRestart, node: nd.id})
}

// restart revives the node under a new incarnation; it rejoins by
// broadcasting a fresh HELLO sequence.
func (e *engine) restart(nd *node) {
	e.stats.Restarts++
	e.touch()
	nd.alive = true
	nd.inc++
	e.schedule(event{t: e.now, kind: evHello, node: nd.id, left: e.cfg.Faults.helloRepeats(), gap: 8})
}

// assemble materializes the actors' local tables as a topology.Topology
// and tallies grant confirmation (how many active admissions the admitted
// side also knows about — complete exactly when every GRANT's edge-confirm
// ack round-trip settled).
func (e *engine) assemble() *topology.Topology {
	n := len(e.nodes)
	nearest := make([][]int32, n)
	admit := make([][]int32, n)
	for i := range e.nodes {
		nearest[i] = append([]int32(nil), e.nodes[i].nearest...)
		admit[i] = append([]int32(nil), e.nodes[i].admit...)
		for _, w := range e.nodes[i].admit {
			if w < 0 {
				continue
			}
			e.stats.GrantsActive++
			if e.nodes[w].grantedBy[i] {
				e.stats.GrantsConfirmed++
			}
		}
	}
	return topology.AssembleTables(e.pts, topology.Config{Theta: e.cfg.Theta, Range: e.cfg.Range}, nearest, admit)
}

// record pushes the run's accounting into telemetry.
func (e *engine) record(tel *telemetry.Telemetry) {
	if !tel.Enabled() {
		return
	}
	st := &e.stats
	tel.Counter("dist.builds").Inc()
	tel.Counter("dist.msgs_sent").Add(st.Sent)
	tel.Counter("dist.msgs_delivered").Add(st.Delivered)
	tel.Counter("dist.msgs_dropped").Add(st.Dropped)
	tel.Counter("dist.msgs_retried").Add(st.Retries)
	tel.Counter("dist.transfers_expired").Add(st.Expired)
	tel.Counter("dist.mailbox_dropped").Add(st.MailboxDropped)
	tel.Counter("dist.crashes").Add(st.Crashes)
	tel.BucketHistogram("dist.rounds", telemetry.DefCountBuckets).Observe(float64(st.VTime))
	tel.BucketHistogram("dist.mailbox_high_water", telemetry.DefCountBuckets).Observe(float64(st.MailboxHighWater))
	if tel.Tracing() {
		tel.Emit(telemetry.Event{Layer: "dist", Kind: "build", Fields: map[string]float64{
			"n":          float64(len(e.nodes)),
			"sent":       float64(st.Sent),
			"delivered":  float64(st.Delivered),
			"dropped":    float64(st.Dropped),
			"retries":    float64(st.Retries),
			"rounds":     float64(st.VTime),
			"mailbox_hw": float64(st.MailboxHighWater),
			"crashes":    float64(st.Crashes),
		}})
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
