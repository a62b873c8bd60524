package load

import (
	"math"
	"math/rand"
	"sort"
)

// Walk returns a never-repeat walk over n items: every index exactly once,
// in an order fixed by the seed.
func Walk(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// Zipf returns a request list of length n over a population of pop items
// whose popularity follows Zipf's law with exponent s: item k (0-based
// rank) is requested n·(k+1)^-s / H times, H normalising the shares to
// one. The counts are the law's expectation, rounded by largest remainder
// so they sum to n exactly, and only the order of the list depends on the
// seed. Drawing each request independently would put the same law behind
// every seed but a different number of distinct items in each list, and
// on a cache benchmark that number is the amount of work: two seeds would
// not be two samples of one workload.
func Zipf(seed int64, n, pop int, s float64) []int {
	if n <= 0 || pop <= 0 {
		return nil
	}
	weights := make([]float64, pop)
	var h float64
	for k := range weights {
		weights[k] = math.Pow(float64(k+1), -s)
		h += weights[k]
	}
	counts := make([]int, pop)
	type rem struct {
		k    int
		frac float64
	}
	rems := make([]rem, pop)
	left := n
	for k, w := range weights {
		exact := float64(n) * w / h
		counts[k] = int(exact)
		left -= counts[k]
		rems[k] = rem{k, exact - float64(counts[k])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].k]++
	}
	list := make([]int, 0, n)
	for k, c := range counts {
		for ; c > 0; c-- {
			list = append(list, k)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	return list
}
