// Package load is the request-driving core of the perf benchmark: closed-
// and open-loop drivers that time one opaque operation per request index,
// nearest-rank percentiles that refuse to report a tail they cannot
// support, and the seeded request-order generators. It knows nothing about
// HTTP or Olden, so any load tool can be built on it.
package load

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one completed request.
type Sample struct {
	Index int           // position in the request list
	Lat   time.Duration // closed loop: send → done; open loop: due → done
	Late  time.Duration // open loop only: how long after its due instant it was sent
	OK    bool
}

// Result is what a driver hands back: every sample in completion order
// per client (concatenated), and the wall time from first send to last
// completion.
type Result struct {
	Samples []Sample
	Elapsed time.Duration
}

// Closed runs a closed loop: `clients` goroutines each take the next
// request index from one shared counter, run do(i), and only then take
// another. It stops handing out indices once limit have been issued
// (limit <= 0 means no limit) or window has elapsed (window <= 0 means no
// time bound); requests already in flight complete and are counted. At
// least one of limit and window must be positive.
func Closed(clients, limit int, window time.Duration, do func(i int) bool) Result {
	if limit <= 0 && window <= 0 {
		panic("load: Closed needs a request limit or a time window")
	}
	var next atomic.Int64
	per := make([][]Sample, clients)
	for c := range per {
		// Sized up front so the timed loop does not stop to grow it.
		if limit > 0 {
			per[c] = make([]Sample, 0, limit)
		} else {
			per[c] = make([]Sample, 0, 1<<18)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				t0 := time.Now()
				if window > 0 && t0.Sub(start) >= window {
					return
				}
				ok := do(i)
				per[c] = append(per[c], Sample{Index: i, Lat: time.Since(t0), OK: ok})
			}
		}(c)
	}
	wg.Wait()
	res := Result{Elapsed: time.Since(start)}
	for _, s := range per {
		res.Samples = append(res.Samples, s...)
	}
	return res
}

// Clock is the time source of the open loop; tests inject a fake one to
// stall the generator deterministically.
type Clock struct {
	Now   func() time.Time
	Sleep func(time.Duration)
}

// WallClock is the real time source.
var WallClock = Clock{Now: time.Now, Sleep: time.Sleep}

// Open runs an open loop: request i is due at start + i/rate whatever the
// system under test is doing, each request runs on its own goroutine, and
// n requests are sent in all. Latency is measured from the instant the
// request was due, not from when it was actually sent, so a generator
// stall is charged to the requests it delayed instead of hiding them;
// Sample.Late reports the stall itself.
func Open(clock Clock, rate float64, n int, do func(i int) bool) Result {
	if rate <= 0 || n <= 0 {
		panic("load: Open needs a positive rate and request count")
	}
	samples := make([]Sample, n)
	var wg sync.WaitGroup
	start := clock.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := due.Sub(clock.Now()); d > 0 {
			clock.Sleep(d)
		}
		sent := clock.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok := do(i)
			samples[i] = Sample{Index: i, Lat: clock.Now().Sub(due), Late: sent.Sub(due), OK: ok}
		}(i)
	}
	wg.Wait()
	return Result{Samples: samples, Elapsed: clock.Now().Sub(start)}
}

// MinBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the figure is one or two outliers, not a property of
// the system. It makes a median need 20 samples, p95 200 and p99 1000.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and false when fewer than MinBeyond samples lie beyond it.
// sorted must be in ascending order.
func Percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n-rank < MinBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// Median returns the middle value (mean of the two middle values for an
// even count) with no sample-count requirement: it summarises a handful of
// repeats, where Percentile summarises a latency distribution.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Millis extracts the latencies of the successful samples, in ascending
// order, as milliseconds.
func Millis(samples []Sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if s.OK {
			out = append(out, float64(s.Lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}
