package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"repro/internal/server"
)

var testReplicas = []string{
	"http://10.0.0.1:8081",
	"http://10.0.0.2:8081",
	"http://10.0.0.3:8081",
}

// configSpaceKeys builds the canonical cache keys of the realistic
// config space: the ten pinned kernels × the three coherence schemes ×
// P ∈ {1,2,4,8} — the same CacheKey string the server memoizes under
// and the router hashes, so the distribution bound below is measured
// over exactly the keys production traffic produces.
func configSpaceKeys() []string {
	benches := []string{"treeadd", "power", "tsp", "mst", "bisort",
		"voronoi", "em3d", "barneshut", "perimeter", "health"}
	schemes := []string{"local", "global", "bilateral"}
	var keys []string
	for _, b := range benches {
		for _, s := range schemes {
			for _, p := range []int{1, 2, 4, 8} {
				keys = append(keys, server.CacheKey(server.RunRequest{
					Benchmark: b, Procs: p, Scale: 64, Scheme: s, Mode: "heuristic",
				}))
			}
		}
	}
	return keys
}

// TestRingDeterministic pins the property the whole cluster rests on:
// ownership is a pure function of (replicas, vnodes) — identical across
// ring rebuilds (process restarts) and across replica list order, with
// no coordination.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(testReplicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(testReplicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed list: same set, different order.
	rev := []string{testReplicas[2], testReplicas[1], testReplicas[0]}
	c, err := NewRing(rev, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range configSpaceKeys() {
		oa, ob, oc := a.Owners(key, 1)[0], b.Owners(key, 1)[0], c.Owners(key, 1)[0]
		if oa != ob {
			t.Fatalf("rebuild moved %q: %s vs %s", key, oa, ob)
		}
		if oa != oc {
			t.Fatalf("replica order moved %q: %s vs %s", key, oa, oc)
		}
		// The full owner chain must agree too (retry/replication order).
		ca, cc := a.Owners(key, 3), c.Owners(key, 3)
		for i := range ca {
			if ca[i] != cc[i] {
				t.Fatalf("owner chain for %q differs at %d: %v vs %v", key, i, ca, cc)
			}
		}
	}
}

// TestRingDistribution bounds the spread of the real config space over
// three replicas (max/mean and min/mean over the 120 production keys)
// and, with a large synthetic key set, the asymptotic uniformity of the
// ring itself.
func TestRingDistribution(t *testing.T) {
	ring, err := NewRing(testReplicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := func(keys []string) map[string]int {
		c := map[string]int{}
		for _, k := range keys {
			c[ring.Owners(k, 1)[0]]++
		}
		return c
	}

	keys := configSpaceKeys()
	counts := count(keys)
	mean := float64(len(keys)) / float64(len(testReplicas))
	for r, n := range counts {
		if f := float64(n) / mean; f > 1.6 || f < 0.4 {
			t.Errorf("config space skewed: %s owns %d of %d keys (%.2f of mean; all=%v)",
				r, n, len(keys), f, counts)
		}
	}
	if len(counts) != len(testReplicas) {
		t.Errorf("only %d of %d replicas own production keys: %v", len(counts), len(testReplicas), counts)
	}

	var synth []string
	for i := 0; i < 30000; i++ {
		synth = append(synth, fmt.Sprintf("bench%d|baseline=false|P=%d|scale=%d|scheme=s|mode=m", i, i%16, i%7))
	}
	sc := count(synth)
	smean := float64(len(synth)) / float64(len(testReplicas))
	for r, n := range sc {
		if f := float64(n) / smean; f > 1.10 || f < 0.90 {
			t.Errorf("synthetic distribution skewed: %s owns %d (%.3f of mean)", r, n, f)
		}
	}
}

// TestRingMinimalMovement removes one replica and requires that only the
// keys it owned move: every other key keeps its owner — the consistent-
// hashing contract that makes shard loss lose one cache shard, not
// reshuffle all of them.
func TestRingMinimalMovement(t *testing.T) {
	four := append(append([]string(nil), testReplicas...), "http://10.0.0.4:8081")
	removed := four[3]
	big, err := NewRing(four, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewRing(testReplicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	keys = append(keys, configSpaceKeys()...)
	for i := 0; i < 5000; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	moved, owned := 0, 0
	for _, key := range keys {
		before, after := big.Owners(key, 1)[0], small.Owners(key, 1)[0]
		if before == removed {
			owned++
			continue // must move; anywhere is legal
		}
		if before != after {
			moved++
			t.Errorf("key %q moved %s -> %s though its owner survived", key, before, after)
			if moved > 5 {
				t.Fatal("... more movement elided")
			}
		}
	}
	if owned == 0 {
		t.Fatal("removed replica owned no keys; test is vacuous")
	}
	// The removed replica's keys must be redistributed, not funneled to
	// one survivor.
	redistributed := map[string]int{}
	for _, key := range keys {
		if big.Owners(key, 1)[0] == removed {
			redistributed[small.Owners(key, 1)[0]]++
		}
	}
	if len(redistributed) < 2 {
		t.Errorf("removed replica's %d keys all funneled to one survivor: %v", owned, redistributed)
	}
}

// TestRingOwners pins the owner-chain contract: distinct replicas,
// primary first, clamped to the replica count.
func TestRingOwners(t *testing.T) {
	ring, err := NewRing(testReplicas, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "treeadd|baseline=false|P=4|scale=64|scheme=local|mode=heuristic"} {
		owners := ring.Owners(key, 10)
		if len(owners) != len(testReplicas) {
			t.Fatalf("Owners(%q, 10) = %v, want all %d replicas", key, owners, len(testReplicas))
		}
		if primary := ring.Owners(key, 1)[0]; owners[0] != primary {
			t.Fatalf("Owners(%q, 10)[0] = %q, Owners(%q, 1)[0] = %q", key, owners[0], key, primary)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("duplicate owner %q in %v", o, owners)
			}
			seen[o] = true
		}
	}
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty replica list must error")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate replicas must error")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty replica name must error")
	}
}

// TestRingPlace checks bounded-load placement over random batches (repeats
// and empty keys included) and random live sets. Placement is
// deterministic; every non-empty key is placed once, in request order
// within its replica, with every repeat on its first occurrence's replica;
// and each distinct key lands on the first replica of its chain that was
// live and held fewer than room = ⌈distinct keys / live replicas⌉ keys
// when its turn came, or on its primary when none is live.
func TestRingPlace(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	for c := 0; c < 2000; c++ {
		replicas := make([]string, 1+rng.IntN(5))
		for i := range replicas {
			replicas[i] = fmt.Sprintf("http://10.0.0.%d:8081", i+1)
		}
		ring, err := NewRing(replicas, 0)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, rng.IntN(24))
		for i := range keys {
			if rng.IntN(8) > 0 {
				keys[i] = fmt.Sprintf("treeadd|P=%d|scale=%d", 1+rng.IntN(4), rng.IntN(6))
			}
		}
		var live []string
		for _, r := range replicas {
			if rng.IntN(4) > 0 {
				live = append(live, r)
			}
		}
		groups := ring.place(keys, live)
		if again := ring.place(keys, live); !reflect.DeepEqual(groups, again) {
			t.Fatalf("case %d: place is not deterministic: %v then %v", c, groups, again)
		}
		at := map[int]string{}
		for r, idxs := range groups {
			if !slices.IsSorted(idxs) {
				t.Fatalf("case %d: %s's indices %v are not in request order", c, r, idxs)
			}
			for _, i := range idxs {
				if _, dup := at[i]; dup {
					t.Fatalf("case %d: key %d placed twice", c, i)
				}
				at[i] = r
			}
		}
		distinct := map[string]bool{}
		for _, k := range keys {
			distinct[k] = k != ""
		}
		delete(distinct, "")
		room := (len(distinct) + len(live) - 1) / max(len(live), 1)
		load, first := map[string]int{}, map[string]string{}
		for i, k := range keys {
			r, placed := at[i]
			if placed != (k != "") {
				t.Fatalf("case %d: key %d (%q) placed=%v", c, i, k, placed)
			}
			if k == "" {
				continue
			}
			if f, seen := first[k]; seen {
				if r != f {
					t.Fatalf("case %d: a repeat of %q went to %s, its first occurrence to %s", c, k, r, f)
				}
				continue
			}
			first[k] = r
			chain := ring.Owners(k, len(replicas))
			if len(live) == 0 {
				if r != chain[0] {
					t.Fatalf("case %d: nothing live, %q went to %s, not its primary %s", c, k, r, chain[0])
				}
				continue
			}
			j := slices.Index(chain, r)
			if !slices.Contains(live, r) || load[r] >= room {
				t.Fatalf("case %d: %q went to %s (live %v, load %d, room %d)", c, k, r, live, load[r], room)
			}
			for _, o := range chain[:j] {
				if slices.Contains(live, o) && load[o] < room {
					t.Fatalf("case %d: %q went to %s, but %s comes first in its chain %v and had room (%d < %d)",
						c, k, r, o, chain, load[o], room)
				}
			}
			load[r]++
		}
	}
}
