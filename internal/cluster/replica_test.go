package cluster

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"toporouting/internal/pointset"
	"toporouting/internal/session"
)

// FuzzMirrorReplay decodes the fuzz bytes into a join/leave/move stream
// (one byte per event: the low two bits pick the op, the rest the node;
// positions come from the seed), applies it to a primary, and requires the
// mirror to serve the primary's exact bytes at the snapshot,
// current, one-behind and zero cursors. The mirror's checkpoint must then
// pass Restore, whose rebuild has to reproduce the mirrored edge set.
func FuzzMirrorReplay(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(int64(2), bytes.Repeat([]byte{1, 5, 9}, 8)) // leaves down to the two-node floor
	f.Add(int64(3), bytes.Repeat([]byte{0, 2}, 20))   // joins and moves
	f.Add(int64(4), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		cfg := session.Config{IdleTTL: -1, EventRate: -1, DeltaRing: 16}
		c := testCluster(t, Config{Shards: 2, Replicas: 1, Session: cfg})
		ctx := context.Background()
		n := 8
		s, err := c.Create(ctx, "fuzz", pointset.Generate(pointset.KindUniform, n, seed), session.BuildSpec{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			ev := session.Event{Op: "move", Node: int(op>>2) % n, X: rng.Float64(), Y: rng.Float64()}
			switch op & 3 {
			case 0:
				ev.Op = "join"
			case 1:
				ev.Op = "leave"
			}
			res, err := s.Apply(ctx, ev)
			if err != nil {
				t.Fatal(err)
			}
			n = res.N
		}
		m := firstMirror(t, c, s.ID)
		gen, err := s.Gen(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, since := range []int64{-1, gen, gen - 1, 0} {
			var want, got bytes.Buffer
			wo, wg, err := s.EncodeSince(ctx, since, &want)
			if err != nil {
				t.Fatal(err)
			}
			o, g, ok := m.tryEncodeSince(since, &got)
			if !ok || o != wo || g != wg || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("since=%d: mirror (%v, %d, ok=%v) %s\nprimary (%v, %d) %s", since, o, g, ok, got.Bytes(), wo, wg, want.Bytes())
			}
		}
		raw, err := m.checkpoint().Encode()
		if err != nil {
			t.Fatal(err)
		}
		cp, err := session.DecodeCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		reg := session.NewRegistry(cfg)
		defer reg.Close()
		if _, err := reg.Restore(ctx, cp); err != nil {
			t.Fatalf("restore from the mirror's checkpoint: %v", err)
		}
	})
}

// BenchmarkMirror times a mirror of an n=2000 session: replaying one move
// record (apply), a one-generation delta read (read-delta), and a full
// snapshot read (read-full).
func BenchmarkMirror(b *testing.B) {
	const (
		n       = 2000
		records = 512
	)
	c := New(Config{Shards: 2, Replicas: 1, Session: session.Config{IdleTTL: -1, EventRate: -1}})
	defer c.Close()
	ctx := context.Background()
	s, err := c.Create(ctx, "bench", pointset.Generate(pointset.KindUniform, n, 1), session.BuildSpec{})
	if err != nil {
		b.Fatal(err)
	}
	m := firstMirror(b, c, s.ID)
	seed := m.checkpoint()
	ch, _, cancel, err := s.Subscribe(ctx, records)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	recs := make([]session.DeltaRecord, records)
	for i := range recs {
		if _, err := s.Apply(ctx, session.Event{Op: "move", Node: rng.Intn(n), X: rng.Float64(), Y: rng.Float64()}); err != nil {
			b.Fatal(err)
		}
		recs[i] = <-ch
	}
	cancel()

	b.Run("apply", func(b *testing.B) {
		var r *replica
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%records == 0 {
				// The records replay in order from the seed checkpoint.
				b.StopTimer()
				if r != nil {
					r.close()
				}
				r = newReplica(0, seed, c.ringSize)
				b.StartTimer()
			}
			r.mu.Lock()
			r.applyLocked(recs[i%records])
			r.mu.Unlock()
		}
		b.StopTimer()
		r.close()
	})
	gen := recs[records-1].Gen
	for _, bc := range []struct {
		name  string
		since int64
		want  session.GetOutcome
	}{{"read-delta", gen - 1, session.DeltaServed}, {"read-full", -1, session.FullServed}} {
		b.Run(bc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if out, _, ok := m.tryEncodeSince(bc.since, &buf); !ok || out != bc.want {
					b.Fatalf("read: outcome %v ok=%v, want %v", out, ok, bc.want)
				}
			}
		})
	}
}
