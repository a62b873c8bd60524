// Listdist reproduces the analysis of Figure 2: an N-element list evenly
// divided among P processors. With a blocked layout, computation migration
// needs only P−1 migrations; with a cyclic layout it needs N−1. Caching
// needs N(P−1)/P remote fetches either way. The crossover motivates the
// paper's selection heuristic.
package main

import (
	"flag"
	"fmt"

	"repro/olden"
)

const (
	offVal  = 0
	offNext = 8
	nodeSz  = 16
)

func main() {
	n := flag.Int("n", 1024, "list length")
	procs := flag.Int("procs", 8, "machine size")
	flag.Parse()

	layouts := map[string]func(i int) int{
		"blocked": func(i int) int { return i * *procs / *n },
		"cyclic":  func(i int) int { return i % *procs },
	}
	fmt.Printf("N=%d items over P=%d processors\n\n", *n, *procs)
	fmt.Printf("%-8s %-9s %11s %12s %14s\n", "layout", "mechanism", "migrations", "remote refs", "cycles")

	for _, name := range []string{"blocked", "cyclic"} {
		for _, mech := range []olden.Mechanism{olden.Migrate, olden.Cache} {
			r := olden.New(olden.Config{Procs: *procs})
			site := &olden.Site{Name: "listdist.walk", Mech: mech}

			// The raw heap API charges no cycles and counts nothing, so
			// the walk below is all the machine measures.
			nodes := make([]olden.GP, *n)
			for i := range nodes {
				nodes[i] = r.RawAlloc(layouts[name](i), nodeSz)
			}
			for i, g := range nodes {
				r.RawStore(g, offVal, uint64(i))
				if i+1 < *n {
					r.RawStorePtr(g, offNext, nodes[i+1])
				} else {
					r.RawStore(g, offNext, 0)
				}
			}
			head := nodes[0]
			cycles := r.Run(0, func(t *olden.Thread) {
				for g := head; !g.IsNil(); g = t.LoadPtr(site, g, offNext) {
					t.LoadInt(site, g, offVal)
					t.Work(10)
				}
			})
			s := r.M.Stats
			fmt.Printf("%-8s %-9s %11d %12d %14d\n",
				name, mech, s.Migrations, s.RemoteReads+s.RemoteWrites, cycles)
		}
	}
	fmt.Printf("\nclosed forms: blocked/migrate P-1 = %d; cyclic/migrate N-1 = %d;\n", *procs-1, *n-1)
	fmt.Printf("cached either way ≈ 2·N(P-1)/P = %d remote refs (val+next per remote node)\n",
		2**n*(*procs-1)/(*procs))
}
