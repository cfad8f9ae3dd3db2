package session

import (
	"bytes"
	"encoding/json"

	"toporouting/internal/geom"
	"toporouting/internal/graph"
)

// Feed is the read side of one hosted topology's delta stream: the current
// generation, a bounded ring of the newest delta records, the watchers
// those records fan out to, and the conditional read that answers from
// them. A session and each of its cluster mirrors own one, so the two
// serve the same bytes by construction.
//
// A Feed is not safe for concurrent use: its owner (a session or a mirror)
// serializes every call under its own mutex. The state a snapshot reads —
// positions and the N-graph — stays with the owner and is passed in at the
// feed's generation.
type Feed struct {
	id     string
	gen    int64
	ring   []DeltaRecord // circular: ring[(head+i)%len] is the i-th oldest
	head   int
	live   int
	subs   map[int]chan DeltaRecord
	subSeq int

	// Snapshot scratch: a full snapshot is the delta path's fallback under
	// hot polling, so it reuses these instead of allocating per read.
	scratchPts   [][2]float64
	scratchEdges [][2]int
}

// NewFeed starts the feed of session id at generation gen with room for
// ringSize records, seeded with the newest of recs that fit. recs must run
// contiguously up to gen, as a checkpoint's ring does.
func NewFeed(id string, gen int64, ringSize int, recs []DeltaRecord) *Feed {
	f := &Feed{id: id, gen: gen, ring: make([]DeltaRecord, ringSize), subs: make(map[int]chan DeltaRecord)}
	if len(recs) > ringSize {
		recs = recs[len(recs)-ringSize:]
	}
	f.live = copy(f.ring, recs)
	return f
}

// Gen returns the generation of the newest published record.
func (f *Feed) Gen() int64 { return f.gen }

// Publish advances the feed to rec.Gen. The record goes into the ring,
// overwriting the oldest once the ring is full, so the ring always holds
// (gen-live, gen]. Then it goes to every watcher; one whose buffer is full
// is disconnected instead of skipped, because a dropped record would
// desync its mirror, and the closed channel tells it to resync from a
// snapshot.
func (f *Feed) Publish(rec DeltaRecord) {
	f.gen = rec.Gen
	if n := len(f.ring); n > 0 {
		if f.live < n {
			f.ring[(f.head+f.live)%n] = rec
			f.live++
		} else {
			f.ring[f.head] = rec
			f.head = (f.head + 1) % n
		}
	}
	for id, ch := range f.subs {
		select {
		case ch <- rec:
		default:
			close(ch)
			delete(f.subs, id)
		}
	}
}

// records collects the ring entries with generation > since, oldest first.
// Only called when the ring covers them.
func (f *Feed) records(since int64) []DeltaRecord {
	n := int(f.gen - since)
	out := make([]DeltaRecord, 0, n)
	for i := f.live - n; i < f.live; i++ {
		out = append(out, f.ring[(f.head+i)%len(f.ring)])
	}
	return out
}

// EncodeSince writes the answer to a conditional read into buf: nothing
// (NotModified) when since is current, the delta records (since, gen] when
// the ring still holds them, or else a full snapshot of pts and g. since <
// 0 means "no generation" and always yields the snapshot.
func (f *Feed) EncodeSince(since int64, buf *bytes.Buffer, pts []geom.Point, g *graph.Graph) (GetOutcome, error) {
	switch {
	case since == f.gen:
		return NotModified, nil
	case since >= 0 && since < f.gen && f.gen-since <= int64(f.live):
		d := Delta{ID: f.id, FromGen: since, Gen: f.gen, Records: f.records(since)}
		return DeltaServed, json.NewEncoder(buf).Encode(&d)
	default:
		snap := f.snapshot(pts, g)
		return FullServed, json.NewEncoder(buf).Encode(&snap)
	}
}

// snapshot materializes pts and g into the wire shape in the feed's
// scratch slices; the caller encodes it before the next call.
func (f *Feed) snapshot(pts []geom.Point, g *graph.Graph) Snapshot {
	f.scratchPts = appendPoints(f.scratchPts[:0], pts)
	f.scratchEdges = appendEdges(f.scratchEdges[:0], g)
	return Snapshot{
		ID:        f.id,
		Gen:       f.gen,
		N:         len(pts),
		NumEdges:  len(f.scratchEdges),
		MaxDegree: g.MaxDegree(),
		Connected: g.Connected(),
		Points:    f.scratchPts,
		Edges:     f.scratchEdges,
	}
}

// Checkpoint captures pts and g at the feed's generation, together with
// the ring, in freshly allocated slices.
func (f *Feed) Checkpoint(tenant string, theta, rng float64, pts []geom.Point, g *graph.Graph) *Checkpoint {
	var ring []DeltaRecord
	if f.live > 0 {
		ring = f.records(f.gen - int64(f.live))
	}
	return &Checkpoint{
		ID:     f.id,
		Tenant: tenant,
		Theta:  theta,
		Range:  rng,
		Gen:    f.gen,
		Points: appendPoints(make([][2]float64, 0, len(pts)), pts),
		Edges:  appendEdges(nil, g),
		Ring:   ring,
	}
}

// Subscribe registers a watcher that receives every record published
// after this call, in order; buffer < 1 selects 64. The id unsubscribes.
func (f *Feed) Subscribe(buffer int) (<-chan DeltaRecord, int) {
	if buffer < 1 {
		buffer = 64
	}
	ch := make(chan DeltaRecord, buffer)
	f.subSeq++
	f.subs[f.subSeq] = ch
	return ch, f.subSeq
}

// Unsubscribe closes and forgets watcher id; an id already disconnected is
// a no-op.
func (f *Feed) Unsubscribe(id int) {
	if ch, ok := f.subs[id]; ok {
		close(ch)
		delete(f.subs, id)
	}
}

// Close disconnects every watcher.
func (f *Feed) Close() {
	for id := range f.subs {
		f.Unsubscribe(id)
	}
}

func appendPoints(dst [][2]float64, pts []geom.Point) [][2]float64 {
	for _, p := range pts {
		dst = append(dst, [2]float64{p.X, p.Y})
	}
	return dst
}

// appendEdges appends g's edges in lexicographic order. The result is
// never nil, so an edgeless graph encodes as [] rather than null.
func appendEdges(dst [][2]int, g *graph.Graph) [][2]int {
	es := g.Edges()
	if dst == nil {
		dst = make([][2]int, 0, len(es))
	}
	for _, e := range es {
		dst = append(dst, [2]int{e.U, e.V})
	}
	return dst
}
