package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzRingOwners checks the preference chain over arbitrary replica sets,
// vnode counts and keys: every Owners(key, n) is n distinct replicas and a
// prefix of the full chain, and dropping a replica from the ring only
// filters it out of every key's chain — no other key moves.
func FuzzRingOwners(f *testing.F) {
	f.Add(uint8(3), uint8(0), "treeadd|P=4|local", uint8(1), "")
	f.Add(uint8(1), uint8(1), "", uint8(0), "x")
	f.Add(uint8(8), uint8(200), "health|P=32|bilateral", uint8(7), "http://10.0.0.1:8081")
	f.Fuzz(func(t *testing.T, n, vnodes uint8, key string, drop uint8, salt string) {
		replicas := make([]string, 1+int(n)%8)
		for i := range replicas {
			replicas[i] = fmt.Sprintf("r%d%s", i, salt)
		}
		v := 1 + int(vnodes)%64
		ring, err := NewRing(replicas, v)
		if err != nil {
			t.Fatal(err)
		}
		full := ring.Owners(key, len(replicas))
		if len(full) != len(replicas) {
			t.Fatalf("Owners(%q, %d) = %v: want every replica once", key, len(replicas), full)
		}
		for k := 1; k <= len(replicas); k++ {
			if got := ring.Owners(key, k); !slices.Equal(got, full[:k]) {
				t.Fatalf("Owners(%q, %d) = %v, not a prefix of %v", key, k, got, full)
			}
		}
		seen := map[string]bool{}
		for _, r := range full {
			if seen[r] || !slices.Contains(replicas, r) {
				t.Fatalf("chain %v repeats %q or names a stranger", full, r)
			}
			seen[r] = true
		}
		if len(replicas) == 1 {
			return
		}
		gone := replicas[int(drop)%len(replicas)]
		rest, err := NewRing(slices.DeleteFunc(slices.Clone(replicas), func(r string) bool { return r == gone }), v)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.DeleteFunc(slices.Clone(full), func(r string) bool { return r == gone })
		if got := rest.Owners(key, len(replicas)); !slices.Equal(got, want) {
			t.Fatalf("without %q: chain %v, want %v filtered to %v", gone, got, full, want)
		}
	})
}
