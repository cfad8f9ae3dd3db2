package session

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// churn applies count deterministic events (mostly moves, some joins and
// leaves) drawn from rng to s, failing the test on any rejection. The same
// rng seed against two identical sessions produces identical histories —
// the basis of the round-trip equivalence checks below. n is the session's
// current node count (tracked through join/leave so node draws stay valid).
func churn(t *testing.T, s *Session, rng *rand.Rand, n, count int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < count; i++ {
		var ev Event
		switch k := rng.Intn(10); {
		case k == 0:
			ev = Event{Op: "join", X: rng.Float64(), Y: rng.Float64()}
		case k == 1:
			ev = Event{Op: "leave", Node: rng.Intn(n)}
		default:
			ev = Event{Op: "move", Node: rng.Intn(n), X: rng.Float64(), Y: rng.Float64()}
		}
		res, err := s.Apply(ctx, ev)
		if err != nil {
			t.Fatalf("apply %d (%+v): %v", i, ev, err)
		}
		if res.Err != "" {
			t.Fatalf("apply %d (%+v) rejected: %s", i, ev, res.Err)
		}
		n = res.N
	}
}

// liveN reads the session's current node count.
func liveN(t *testing.T, s *Session) int {
	t.Helper()
	st, err := s.Stats(context.Background())
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	return st.N
}

// readBytes captures one conditional read as (outcome, gen, exact bytes).
func readBytes(t *testing.T, s *Session, since int64) (GetOutcome, int64, []byte) {
	t.Helper()
	var buf bytes.Buffer
	outcome, gen, err := s.EncodeSince(context.Background(), since, &buf)
	if err != nil {
		t.Fatalf("EncodeSince(%d): %v", since, err)
	}
	return outcome, gen, buf.Bytes()
}

// requireSameReads asserts that a and b serve byte-identical responses for
// every probed cursor: current (304), one and several generations behind
// (deltas), the edge of the ring, past the ring (snapshot), and no cursor
// at all.
func requireSameReads(t *testing.T, a, b *Session, label string) {
	t.Helper()
	_, gen, _ := readBytes(t, a, -1)
	probes := []int64{-1, gen, gen - 1, gen - 5, gen - 63, gen - 64, gen - 65, 0}
	for _, since := range probes {
		ao, ag, ab := readBytes(t, a, since)
		bo, bg, bb := readBytes(t, b, since)
		if ao != bo || ag != bg {
			t.Fatalf("%s: since=%d diverged: live (%v, %d) vs restored (%v, %d)", label, since, ao, ag, bo, bg)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("%s: since=%d bodies differ:\nlive:     %s\nrestored: %s", label, since, ab, bb)
		}
	}
	var sa, sb bytes.Buffer
	if _, err := a.EncodeSnapshot(context.Background(), &sa); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EncodeSnapshot(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa.Bytes(), sb.Bytes()) {
		t.Fatalf("%s: snapshots differ", label)
	}
}

// TestCheckpointRoundTripModes pins the rehosting contract: checkpoint →
// wire bytes → decode → Restore on a second registry
// yields a session that is observationally identical to the live one — the
// same generation, the same bytes for every conditional read, and the same
// behavior under further identical churn. This is the PR2 invariant doing
// the heavy lifting: the restore rebuilds from points only and must land on
// the checkpointed edge set exactly.
//
// Checkpoints written before the build strategy became a property of the
// input carry a "mode" key naming it. Each case injects one such value into
// the wire bytes: the decoder must ignore it, and the restore must land on
// the same session, since every strategy built bit-identical tables.
func TestCheckpointRoundTripModes(t *testing.T) {
	for _, mode := range []string{"centralized", "parallel", "tiled"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{DeltaRing: 64}
			src := testRegistry(t, cfg)
			dst := testRegistry(t, cfg)
			live := mustCreate(t, src, "acme", 150, 7, BuildSpec{})
			churn(t, live, rand.New(rand.NewSource(11)), 150, 50)

			cp, err := live.Checkpoint(context.Background())
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			raw, err := cp.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			raw = withKey(t, raw, "mode", mode)
			decoded, err := DecodeCheckpoint(raw)
			if err != nil {
				t.Fatalf("DecodeCheckpoint: %v", err)
			}
			restored, err := dst.Restore(context.Background(), decoded)
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if restored.ID != live.ID || restored.Tenant != live.Tenant {
				t.Fatalf("restored identity (%s, %s) != live (%s, %s)",
					restored.ID, restored.Tenant, live.ID, live.Tenant)
			}
			requireSameReads(t, live, restored, "post-restore")

			// The restored session is not a frozen copy: identical further
			// churn must keep both sides byte-identical, ring edges and all.
			churn(t, live, rand.New(rand.NewSource(23)), liveN(t, live), 30)
			churn(t, restored, rand.New(rand.NewSource(23)), liveN(t, restored), 30)
			requireSameReads(t, live, restored, "post-restore churn")
		})
	}
}

// withKey returns the JSON object raw with key set to the string value.
func withKey(t *testing.T, raw []byte, key, value string) []byte {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	v, err := json.Marshal(value)
	if err != nil {
		t.Fatal(err)
	}
	obj[key] = v
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRejectsCorruptCheckpoints pins the verification side: a
// checkpoint whose edges do not match what the rebuild produces, whose ring
// is not generation-contiguous, or whose id is already hosted must be
// rejected — never silently served diverged.
func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	r := testRegistry(t, Config{DeltaRing: 64})
	s := mustCreate(t, r, "acme", 120, 3, BuildSpec{})
	churn(t, s, rand.New(rand.NewSource(5)), 120, 20)
	cp, err := s.Checkpoint(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	reclone := func() *Checkpoint {
		raw, err := cp.Encode()
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeCheckpoint(raw)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	dst := testRegistry(t, Config{DeltaRing: 64})
	// Tampered edge set: drop one edge. The rebuild from points reproduces
	// the true set, so verification must fail.
	tampered := reclone()
	if len(tampered.Edges) < 2 {
		t.Fatal("test needs at least two edges")
	}
	tampered.Edges = tampered.Edges[1:]
	if _, err := dst.Restore(context.Background(), tampered); err == nil || !strings.Contains(err.Error(), "edge") {
		t.Fatalf("tampered edges: err = %v, want edge mismatch", err)
	}

	// Broken ring contiguity: a generation gap violates the cursor contract.
	gapped := reclone()
	if len(gapped.Ring) < 2 {
		t.Fatal("test needs a populated ring")
	}
	gapped.Ring[0].Gen -= 3
	if _, err := dst.Restore(context.Background(), gapped); err == nil || !strings.Contains(err.Error(), "ring") {
		t.Fatalf("ring gap: err = %v, want ring-gap rejection", err)
	}

	// Duplicate id: restoring into a registry already hosting the id fails
	// without consuming a quota slot.
	if _, err := r.Restore(context.Background(), reclone()); err == nil || !strings.Contains(err.Error(), "already hosted") {
		t.Fatalf("duplicate id: err = %v, want already-hosted rejection", err)
	}

	// The pristine copy still restores fine (the rejections above must not
	// have corrupted shared state or leaked slots).
	if _, err := dst.Restore(context.Background(), reclone()); err != nil {
		t.Fatalf("pristine restore after rejections: %v", err)
	}
}

// TestTokenBucketMonotonicClock pins the satellite bugfix: refill math runs
// on monotonic registry-clock readings, so a reading that runs backwards (a
// stepped wall clock under the old time.Now() arithmetic) neither drains
// accumulated credit nor inflates the advertised wait, and a forward step
// of exactly 1/rate accrues exactly one token.
func TestTokenBucketMonotonicClock(t *testing.T) {
	r := testRegistry(t, Config{EventRate: 10, EventBurst: 1})
	var now time.Duration
	r.now = func() time.Duration { return now }

	// Burst token goes at t=1s.
	now = time.Second
	if wait, err := r.AdmitEvents("t"); err != nil || wait != 0 {
		t.Fatalf("burst take: wait=%v err=%v", wait, err)
	}

	// The clock appears to step back a full second. The empty bucket's wait
	// must still be exactly one token's accrual (100ms at 10/s) — wall-clock
	// arithmetic would have drained 10 tokens of credit here and quoted an
	// inflated retry.
	now = 0
	wait, err := r.AdmitEvents("t")
	if err != nil {
		t.Fatal(err)
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("backwards-clock wait = %v, want (0, 100ms]", wait)
	}

	// The cursor must not have regressed either: 1/rate past the furthest
	// reading yields exactly one token, not eleven.
	now = time.Second + 100*time.Millisecond
	if wait, err := r.AdmitEvents("t"); err != nil || wait != 0 {
		t.Fatalf("accrued take: wait=%v err=%v", wait, err)
	}
	if wait, err := r.AdmitEvents("t"); err != nil || wait <= 0 {
		t.Fatalf("second take must wait: wait=%v err=%v", wait, err)
	}
}
