// Coherence compares the three cache-coherence schemes of Appendix A —
// local knowledge, global knowledge (eager release), and bilateral — on a
// workload with long-lived read-mostly shared data: worker threads
// repeatedly migrate to their processor and read a shared table, while a
// writer occasionally updates a small part of it.
//
// The local scheme throws the whole cache away on every migration receive,
// so read-mostly data keeps missing; the global and bilateral schemes keep
// unchanged lines valid, at the price of per-write tracking. This is the
// trade-off behind Table 3 (where Health's miss rate drops from 87% to 10%
// with global knowledge, yet local knowledge still wins overall).
package main

import (
	"fmt"

	"repro/olden"
)

func main() {
	const (
		procs     = 8
		tableLen  = 512 // shared words, homed on processor 0
		rounds    = 20
		writesPer = 4 // words the writer touches per round
	)

	for _, scheme := range []olden.SchemeKind{
		olden.LocalKnowledge, olden.GlobalKnowledge, olden.Bilateral,
	} {
		r := olden.New(olden.Config{Procs: procs, Scheme: scheme})
		read := &olden.Site{Name: "table.read", Mech: olden.Cache}
		write := &olden.Site{Name: "table.write", Mech: olden.Cache}

		cycles := r.Run(0, func(t *olden.Thread) {
			table := t.Alloc(0, tableLen*8)
			for i := 0; i < tableLen; i++ {
				t.StoreInt(write, table, uint32(i*8), int64(i))
			}
			for round := 0; round < rounds; round++ {
				// The writer updates a few words.
				for w := 0; w < writesPer; w++ {
					idx := (round*writesPer + w) % tableLen
					t.StoreInt(write, table, uint32(idx*8), int64(round))
				}
				// Each worker migrates home and scans the table.
				var fs []interface{ Touch(*olden.Thread) int64 }
				for p := 1; p < procs; p++ {
					p := p
					fs = append(fs, olden.Spawn(t, func(c *olden.Thread) int64 {
						c.MigrateTo(p)
						var sum int64
						for i := 0; i < tableLen; i++ {
							sum += c.LoadInt(read, table, uint32(i*8))
						}
						return sum
					}))
				}
				for _, f := range fs {
					f.Touch(t)
				}
			}
		})

		s := r.M.Stats
		fmt.Printf("%-9s: makespan %9d cycles, remote reads %7d, misses %6d (%.1f%%), invalidation msgs %d, stamp checks %d\n",
			scheme, cycles, s.RemoteReads, s.Misses, s.MissPct(), s.Invalidations, s.StampChecks)
	}
	fmt.Println("\nRead-mostly sharing favours global/bilateral knowledge; the Olden")
	fmt.Println("benchmarks mostly write shared data between migrations, which is why")
	fmt.Println("the paper ships local knowledge as the default (Appendix A).")
}
