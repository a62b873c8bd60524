// Quickstart: build a distributed linked structure, traverse it with both
// of Olden's mechanisms, and look at what the machine did.
package main

import (
	"fmt"

	"repro/olden"
)

// A list node: value at offset 0, next pointer at offset 8.
const (
	offVal  = 0
	offNext = 8
	nodeSz  = 16
)

func main() {
	const procs = 4
	const items = 32

	r := olden.New(olden.Config{Procs: procs})

	build := &olden.Site{Name: "quickstart.build", Mech: olden.Cache}
	walkM := &olden.Site{Name: "quickstart.migrate", Mech: olden.Migrate}
	walkC := &olden.Site{Name: "quickstart.cache", Mech: olden.Cache}

	makespan := r.Run(0, func(t *olden.Thread) {
		// Build a blocked list: items i live on processor i*procs/items,
		// exactly Figure 2's "blocked distribution".
		nodes := make([]olden.GP, items)
		for i := range nodes {
			nodes[i] = t.Alloc(i*procs/items, nodeSz)
		}
		for i, n := range nodes {
			t.StoreInt(build, n, offVal, int64(i))
			if i+1 < items {
				t.StorePtr(build, n, offNext, nodes[i+1])
			} else {
				t.StoreWord(build, n, offNext, 0)
			}
		}

		// Traverse by computation migration: the thread follows the
		// data, crossing processors only at block boundaries.
		sum := int64(0)
		for g := nodes[0]; !g.IsNil(); g = t.LoadPtr(walkM, g, offNext) {
			sum += t.LoadInt(walkM, g, offVal)
		}
		fmt.Printf("migrating walk: sum=%d (thread ended on processor %d)\n", sum, t.Loc())

		// Traverse again by software caching: the thread stays put and
		// 64-byte lines come to it.
		t.MigrateTo(0)
		sum = 0
		for g := nodes[0]; !g.IsNil(); g = t.LoadPtr(walkC, g, offNext) {
			sum += t.LoadInt(walkC, g, offVal)
		}
		fmt.Printf("caching walk:   sum=%d (thread stayed on processor %d)\n", sum, t.Loc())

		// Futures: sum the four blocks in parallel.
		total := int64(0)
		var fs []interface{ Touch(*olden.Thread) int64 }
		for p := 0; p < procs; p++ {
			head := nodes[p*items/procs]
			end := olden.GP(0)
			if (p+1)*items/procs < items {
				end = nodes[(p+1)*items/procs]
			}
			fs = append(fs, olden.Spawn(t, func(c *olden.Thread) int64 {
				var s int64
				for g := head; g != end && !g.IsNil(); g = c.LoadPtr(walkM, g, offNext) {
					s += c.LoadInt(walkM, g, offVal)
				}
				return s
			}))
		}
		for _, f := range fs {
			total += f.Touch(t)
		}
		fmt.Printf("parallel sum:   %d across %d futures\n", total, procs)
	})

	s := r.M.Stats
	fmt.Printf("\nsimulated makespan: %d cycles\n", makespan)
	fmt.Printf("migrations: %d, cache misses: %d, pointer tests: %d\n",
		s.Migrations, s.Misses, s.PtrTests)
}
