package cluster

import (
	"fmt"
	"testing"
)

// TestRingRemovalMovesOnlyDeadShardsKeys pins the consistent-hashing
// property the whole rebalance story rests on: removing a shard reassigns
// only the keys that shard owned — every other key keeps its owner — and
// the moved fraction is roughly the dead shard's share (1/N, within vnode
// noise).
func TestRingRemovalMovesOnlyDeadShardsKeys(t *testing.T) {
	const shards = 8
	const keys = 10000
	ids := make([]int, shards)
	for i := range ids {
		ids[i] = i
	}
	before := newRing(ids)
	owner := make([]int, keys)
	for k := 0; k < keys; k++ {
		o := before.owners(fmt.Sprintf("tenant-%d", k), 1)
		if len(o) != 1 {
			t.Fatalf("key %d: owners = %v", k, o)
		}
		owner[k] = o[0]
	}

	const dead = 3
	var survivors []int
	for _, id := range ids {
		if id != dead {
			survivors = append(survivors, id)
		}
	}
	after := newRing(survivors)
	moved := 0
	for k := 0; k < keys; k++ {
		now := after.owners(fmt.Sprintf("tenant-%d", k), 1)[0]
		if owner[k] == dead {
			moved++
			if now == dead {
				t.Fatalf("key %d still owned by the removed shard", k)
			}
			continue
		}
		if now != owner[k] {
			t.Fatalf("key %d moved %d→%d though shard %d was untouched", k, owner[k], now, dead)
		}
	}
	// The dead shard's share should be near 1/8 of the keyspace; with 64
	// vnodes a factor-2 window is loose enough to never flake and tight
	// enough to catch a broken hash.
	if lo, hi := keys/16, keys/4; moved < lo || moved > hi {
		t.Fatalf("moved %d of %d keys, want within [%d, %d] (~1/%d)", moved, keys, lo, hi, shards)
	}
}

// TestRingAdditionMovesKeysOnlyToNewShard pins the other direction: adding
// a shard steals keys only for itself — no key moves between two
// pre-existing shards.
func TestRingAdditionMovesKeysOnlyToNewShard(t *testing.T) {
	const keys = 5000
	small := newRing([]int{0, 1, 2})
	grown := newRing([]int{0, 1, 2, 3})
	moved := 0
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("tenant-%d", k)
		was := small.owners(key, 1)[0]
		now := grown.owners(key, 1)[0]
		if now != was {
			if now != 3 {
				t.Fatalf("key %d moved %d→%d, not to the new shard", k, was, now)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("new shard took no keys")
	}
}

// TestRingBalance pins the load-spreading half of the hashing story,
// which the movement tests above cannot see: per-shard key shares must
// sit near 1/N, and — the regression that motivated the avalanche
// finalizer in ringHash — short keys differing only in a trailing byte
// ("t-0".."t-7", exactly the tenant ids loadgen generates) must not all
// collapse onto one shard. Raw FNV-1a put all eight on a single shard
// and gave one shard 61% of a 10k keyspace.
func TestRingBalance(t *testing.T) {
	const shards = 4
	const keys = 10000
	r := newRing([]int{0, 1, 2, 3})
	counts := make([]int, shards)
	for k := 0; k < keys; k++ {
		counts[r.owners(fmt.Sprintf("t-%d", k), 1)[0]]++
	}
	// 64 vnodes/shard keeps shares within a few percent of 25%; a 15–35%
	// window is loose enough to never flake and catches any return to
	// clumped vnodes.
	for s, got := range counts {
		if lo, hi := keys*15/100, keys*35/100; got < lo || got > hi {
			t.Fatalf("shard %d owns %d of %d keys, want within [%d, %d]: %v", s, got, keys, lo, hi, counts)
		}
	}

	distinct := map[int]bool{}
	for k := 0; k < 8; k++ {
		distinct[r.owners(fmt.Sprintf("t-%d", k), 1)[0]] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("tenants t-0..t-7 all placed on one shard: %v", distinct)
	}
}

// TestRingOwnersDistinct pins the replica-placement contract: owners
// returns distinct shards, primary first, and never more than exist.
func TestRingOwnersDistinct(t *testing.T) {
	r := newRing([]int{0, 1, 2, 3})
	for k := 0; k < 100; k++ {
		key := fmt.Sprintf("t-%d", k)
		o := r.owners(key, 3)
		if len(o) != 3 {
			t.Fatalf("owners(%q, 3) = %v", key, o)
		}
		seen := map[int]bool{}
		for _, s := range o {
			if seen[s] {
				t.Fatalf("owners(%q, 3) repeats shard %d: %v", key, s, o)
			}
			seen[s] = true
		}
		if got := r.owners(key, 10); len(got) != 4 {
			t.Fatalf("owners(%q, 10) = %v, want all 4 shards", key, got)
		}
		if r.owners(key, 1)[0] != o[0] {
			t.Fatalf("primary unstable for %q", key)
		}
		if got, ok := r.owner(key); !ok || got != o[0] {
			t.Fatalf("owner(%q) = %d, %v, want %d", key, got, ok, o[0])
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { r.owner("t-7") }); allocs != 0 {
		t.Fatalf("owner allocates %v times per call, want 0", allocs)
	}
	if _, ok := newRing(nil).owner("t-0"); ok {
		t.Fatal("owner on an empty ring reported a shard")
	}
}
