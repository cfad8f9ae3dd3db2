package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringVnodes is the virtual-node count per shard. Enough to keep the
// per-shard key share within a few percent of 1/N at the shard counts this
// layer targets (single digits to low tens).
const ringVnodes = 64

// hashRing is a consistent-hash ring over the alive shards. Each shard
// contributes ringVnodes points; a key is owned by the first point at or
// after its hash, walking clockwise. Removing a shard removes only that
// shard's points, so only keys it owned change hands — the property the
// rebalance test pins.
type hashRing struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

func newRing(shards []int) *hashRing {
	r := &hashRing{points: make([]ringPoint, 0, len(shards)*ringVnodes)}
	for _, s := range shards {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("shard-%d/%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// ringHash is FNV-1a followed by a 64-bit avalanche finalizer. Raw FNV is
// not enough here: keys differing only in a trailing byte ("t-0".."t-7",
// or one shard's vnode labels) yield hashes within ~2^43 of each other —
// a sliver of the ring — so similar tenants pile onto one shard and each
// shard's vnodes clump instead of interleaving. The finalizer (the
// MurmurHash3 fmix64 constants) spreads that band across the full 64-bit
// space; with it, per-shard key shares sit within a few percent of 1/N.
func ringHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	return s
}

// owners returns up to n distinct shards for key, primary first: the
// clockwise walk from the key's hash, skipping points of shards already
// taken. Fewer than n shards on the ring yields all of them.
func (r *hashRing) owners(key string, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	start := r.search(key)
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}

// owner returns key's primary shard, owners(key, 1)[0], without
// allocating; ok is false on an empty ring.
func (r *hashRing) owner(key string) (shard int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	return r.points[r.search(key)%len(r.points)].shard, true
}

// search returns the index of the first point at or after key's hash;
// len(r.points) means the walk wraps to the first point.
func (r *hashRing) search(key string) int {
	h := ringHash(key)
	return sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
}
