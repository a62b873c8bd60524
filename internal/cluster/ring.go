// Package cluster is the sharded serving layer over N oldend replicas: a
// consistent-hash ring that assigns every canonical run-config cache key
// a stable owner (and fallback owners), and an HTTP router that proxies
// requests to the owning shard, probes peer caches for hot keys, places a
// batch's runs by bounded load and retries connection failures on the
// next owner.
//
// This is the paper's ⟨processor, address⟩ addressing lifted one level:
// the cluster names results by ⟨replica, run-config⟩ and ships the request
// to the shard that owns the result. Every replica is deterministic, so
// ownership is a performance decision, never a correctness one.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
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
	points   []ringPoint // sorted by hash, ties broken by replica index
	chains   []string    // per point, every replica once in ring order from it
}

type ringPoint struct {
	hash    uint64
	replica int // index into replicas
}

// defaultVNodes is the virtual-node count per replica when the caller
// passes 0: high enough that three replicas split the ten-kernel config
// space within a few percent, low enough that building the ring is
// trivially cheap.
const defaultVNodes = 128

// NewRing builds a ring over the given replica names (base URLs in the
// router's case). Names must be unique and non-empty; order does not
// affect ownership (points hash by name, not position).
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
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

// place groups a batch's keys, in request order, onto replicas by bounded
// load (Mirrokni, Thorup and Zadimoghaddam): each distinct key goes to the
// first replica of its chain that is in live and holds fewer than
// ⌈distinct keys / live replicas⌉ keys, else to its primary owner. A
// repeated key rides with its first occurrence; an empty key is left out.
func (r *Ring) place(keys, live []string) map[string][]int {
	at := make(map[string]string, len(keys)) // distinct key -> its replica
	for _, k := range keys {
		at[k] = ""
	}
	delete(at, "")
	room := (len(at) + len(live) - 1) / max(len(live), 1)
	load, groups := map[string]int{}, map[string][]int{}
	for i, k := range keys {
		if k == "" {
			continue
		}
		if at[k] == "" {
			owners := r.Owners(k, len(r.replicas))
			at[k] = owners[0]
			for _, o := range owners {
				if load[o] < room && slices.Contains(live, o) {
					at[k] = o
					break
				}
			}
			load[at[k]]++
		}
		groups[at[k]] = append(groups[at[k]], i)
	}
	return groups
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
