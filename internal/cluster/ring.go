// Package cluster is the sharded serving layer over N oldend replicas: a
// consistent-hash ring that assigns every canonical run-config cache key
// a stable owner (and fallback owners), and an HTTP router that proxies
// requests to the owning shard, probes peer caches for hot keys, retries
// connection failures on the next owner, and — because every replica is
// deterministic — can duplicate any routed request to a second replica
// and demand byte-identical answers.
//
// This is the paper's ⟨processor, address⟩ addressing lifted one level:
// the simulator names heap data by home processor and lets the compiler
// choose between fetching the data and shipping the computation; the
// cluster names *results* by ⟨replica, run-config⟩ and ships the request
// to the shard that owns the result rather than copying cache state
// around. Determinism (PR 3's digest work) is what makes the whole
// scheme sound: any replica asked the same question produces the same
// bytes, so ownership is a performance decision, never a correctness
// one — and cross-replica disagreement is a bug worth failing loudly
// over.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over a static replica list.
// Each replica is expanded into VNodes virtual points; a key is owned by
// the first point clockwise from its hash. Determinism matters here the
// same way it does in the simulator: the ring is a pure function of
// (replicas, vnodes), so every router process — and every restart —
// agrees on ownership without coordination.
type Ring struct {
	replicas []string
	vnodes   int
	points   []ringPoint // sorted by hash, ties broken by replica index
	chains   []string    // per point, every replica once in ring order from it
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// DefaultVNodes is the virtual-node count per replica when the caller
// passes 0: high enough that three replicas split the ten-kernel config
// space within a few percent, low enough that building the ring is
// trivially cheap.
const DefaultVNodes = 128

// NewRing builds a ring over the given replica names (base URLs in the
// router's case). Names must be unique and non-empty; order does not
// affect ownership (points hash by name, not position).
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if r == "" {
			return nil, fmt.Errorf("cluster: empty replica name")
		}
		if seen[r] {
			return nil, fmt.Errorf("cluster: duplicate replica %q", r)
		}
		seen[r] = true
	}
	ring := &Ring{
		replicas: append([]string(nil), replicas...),
		vnodes:   vnodes,
		points:   make([]ringPoint, 0, len(replicas)*vnodes),
	}
	for i, r := range ring.replicas {
		for v := 0; v < vnodes; v++ {
			ring.points = append(ring.points, ringPoint{
				hash:    hashString(r + "#" + strconv.Itoa(v)),
				replica: i,
			})
		}
	}
	sort.Slice(ring.points, func(a, b int) bool {
		if ring.points[a].hash != ring.points[b].hash {
			return ring.points[a].hash < ring.points[b].hash
		}
		return ring.points[a].replica < ring.points[b].replica
	})
	ring.chains = make([]string, 0, len(ring.points)*len(replicas))
	for i := range ring.points {
		taken := make([]bool, len(replicas))
		for j, n := i, 0; n < len(replicas); j = (j + 1) % len(ring.points) {
			if p := ring.points[j].replica; !taken[p] {
				taken[p], n = true, n+1
				ring.chains = append(ring.chains, ring.replicas[p])
			}
		}
	}
	return ring, nil
}

// Replicas returns the replica names the ring was built over, in the
// order given to NewRing.
func (r *Ring) Replicas() []string { return append([]string(nil), r.replicas...) }

// Owner returns the key's primary owner: the first virtual point
// clockwise from the key's hash.
func (r *Ring) Owner(key string) string { return r.Owners(key, 1)[0] }

// Owners returns up to n distinct replicas in ring (preference) order
// starting at the key's primary owner — the retry/replication chain for
// the key. n is clamped to the replica count. The slice is shared: read
// it, never write it.
func (r *Ring) Owners(key string, n int) []string {
	n = min(max(n, 1), len(r.replicas))
	h := hashString(key)
	// First point with hash >= h, wrapping.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h }) % len(r.points)
	at := i * len(r.replicas)
	return r.chains[at : at+n : at+n]
}

// hashString is 64-bit FNV-1a through a splitmix64 finalizer. FNV alone
// is stable and seedless (the same reasons the trace digests use it) but
// mixes too weakly for ring placement: vnode labels differ only in a few
// trailing digits, and their raw FNV values land on correlated arcs —
// measured skew over three replicas was ~1.5x the fair share. The
// finalizer is a fixed bijection, so determinism across processes and
// restarts is unchanged.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
