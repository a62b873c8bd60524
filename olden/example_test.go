package olden_test

import (
	"fmt"

	"repro/olden"
)

// Example builds a tiny distributed list and traverses it with computation
// migration: the thread follows the data across processors.
func Example() {
	r := olden.New(olden.Config{Procs: 4})
	site := &olden.Site{Name: "list.next", Mech: olden.Migrate}

	r.Run(0, func(t *olden.Thread) {
		// Four nodes, one per processor: value at 0, next at 8.
		var nodes [4]olden.GP
		for p := range nodes {
			nodes[p] = t.Alloc(p, 16)
		}
		for p, n := range nodes {
			t.StoreInt(site, n, 0, int64(10*(p+1)))
			if p+1 < len(nodes) {
				t.StorePtr(site, n, 8, nodes[p+1])
			}
		}
		sum := int64(0)
		for g := nodes[0]; !g.IsNil(); g = t.LoadPtr(site, g, 8) {
			sum += t.LoadInt(site, g, 0)
		}
		fmt.Printf("sum=%d, thread finished on processor %d\n", sum, t.Loc())
	})
	// Building migrated to processors 1..3, jumping back to node 0 cost
	// one more, and the traversal crossed three block boundaries.
	fmt.Printf("migrations: %d\n", r.M.Stats.Migrations)
	// Output:
	// sum=100, thread finished on processor 3
	// migrations: 7
}

// ExampleAnalyze runs the paper's selection heuristic on a tree traversal:
// the recursive update combines the child affinities above the 90%
// threshold, so the traversal migrates.
func ExampleAnalyze() {
	report, _ := olden.Analyze(`
struct tree { int v; struct tree *left; struct tree *right; };
int Sum(struct tree *t) {
  if (t == NULL) return 0;
  return Sum(t->left) + Sum(t->right) + t->v;
}
`)
	fmt.Print(report)
	// Output:
	// function Sum:
	//   recursion Sum/rec
	//     update t ← t  affinity 91%
	//     choice: migrate t (affinity 91% ≥ threshold)
}

// ExampleSpawn shows futures: the body runs logically in parallel with the
// caller and Touch synchronizes.
func ExampleSpawn() {
	r := olden.New(olden.Config{Procs: 2})
	r.Run(0, func(t *olden.Thread) {
		f := olden.Spawn(t, func(c *olden.Thread) int {
			c.MigrateTo(1)
			c.Work(1000)
			return 21
		})
		t.Work(1000) // overlaps with the future body
		fmt.Println("answer:", 2*f.Touch(t))
	})
	// Output:
	// answer: 42
}
