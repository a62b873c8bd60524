package load

import (
	"sort"
	"sync"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestPercentileFixedVectors(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{20, 50, 10, true},    // rank 10, ten samples beyond
		{19, 50, 0, false},    // rank 10, nine beyond
		{200, 95, 190, true},  // rank 190, ten beyond
		{199, 95, 0, false},   // rank 190, nine beyond
		{1000, 99, 990, true}, // rank 990, ten beyond
		{999, 99, 0, false},
		{1000, 50, 500, true},
		{40, 95, 0, false}, // a /batch repeat supports a median and nothing higher
		{0, 50, 0, false},
		{100, 0, 0, false},
		{100, 100, 0, false},
	}
	for _, c := range cases {
		got, ok := Percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("Percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{9, 1, 5}, 5},
	} {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v; want %v", c.in, got, c.want)
		}
	}
}

func TestWalkNeverRepeats(t *testing.T) {
	a, b := Walk(7, 240), Walk(7, 240)
	seen := map[int]bool{}
	for i, v := range a {
		if v != b[i] {
			t.Fatalf("same seed, different walk at %d", i)
		}
		if seen[v] || v < 0 || v >= 240 {
			t.Fatalf("walk repeats or leaves the range at %d: %d", i, v)
		}
		seen[v] = true
	}
	c := Walk(8, 240)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave the same walk")
	}
}

func TestZipfCountsAreTheLawNotADraw(t *testing.T) {
	// 12 requests over 4 items at s=1: shares 12/25, 6/25, 4/25, 3/25 of
	// 12 = 5.76, 2.88, 1.92, 1.44 → floors 5,2,1,1 and the three largest
	// remainders (.92, .88, .76) take the three requests left over.
	want := []int{6, 3, 2, 1}
	for _, seed := range []int64{1, 2, 3} {
		got := make([]int, 4)
		for _, k := range Zipf(seed, 12, 4, 1) {
			got[k]++
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("seed %d: counts %v; want %v", seed, got, want)
			}
		}
	}
	a, b := Zipf(1, 200, 50, 1.1), Zipf(2, 200, 50, 1.1)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("lengths %d, %d; want 200", len(a), len(b))
	}
	same := true
	for i := range a {
		same = same && a[i] == b[i]
	}
	if same {
		t.Fatal("different seeds gave the same order")
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("different seeds gave different request multisets")
		}
	}
}

func TestClosedStopsAtLimitAndCountsEverything(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	res := Closed(3, 50, 0, func(i int) bool {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return i%10 != 0
	})
	if len(res.Samples) != 50 || len(seen) != 50 {
		t.Fatalf("%d samples over %d indices; want 50 and 50", len(res.Samples), len(seen))
	}
	failed := 0
	for _, s := range res.Samples {
		if !s.OK {
			failed++
		}
	}
	if failed != 5 {
		t.Fatalf("%d failed; want 5", failed)
	}
	if got := len(Millis(res.Samples)); got != 45 {
		t.Fatalf("Millis kept %d; want the 45 successful", got)
	}
}

func TestClosedStopsAtWindow(t *testing.T) {
	res := Closed(2, 0, 20*time.Millisecond, func(int) bool {
		time.Sleep(time.Millisecond)
		return true
	})
	if n := len(res.Samples); n < 4 || n > 80 {
		t.Fatalf("%d samples in a 20 ms window of 1 ms requests on 2 clients", n)
	}
	if res.Elapsed < 20*time.Millisecond {
		t.Fatalf("elapsed %v; want at least the window", res.Elapsed)
	}
}

// fakeClock is virtual time: Sleep advances it, and one chosen Sleep
// oversleeps — the generator stall.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	sleeps    int
	stallAt   int
	stallTime time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps++
	if c.sleeps == c.stallAt {
		d += c.stallTime
	}
	c.now = c.now.Add(d)
}

func TestOpenTimesFromTheDueInstantUnderAStall(t *testing.T) {
	// 10 req/s: request i is due at i*100 ms. The sleep before request 2
	// oversleeps by 250 ms, so requests 2, 3 and 4 (due at 200, 300,
	// 400 ms) are sent at 450 ms, and request 5 is on time again. The
	// operation itself takes no virtual time, so a latency is at least the
	// request's lateness (more if the generator slept again before the
	// request's goroutine read the clock).
	fc := &fakeClock{now: time.Unix(0, 0), stallAt: 2, stallTime: 250 * time.Millisecond}
	res := Open(Clock{Now: fc.Now, Sleep: fc.Sleep}, 10, 7, func(int) bool { return true })
	wantLate := []time.Duration{0, 0, 250, 150, 50, 0, 0}
	for i, s := range res.Samples {
		if s.Index != i || !s.OK {
			t.Fatalf("sample %d: %+v", i, s)
		}
		if want := wantLate[i] * time.Millisecond; s.Late != want {
			t.Errorf("request %d sent %v late; want %v", i, s.Late, want)
		}
		if s.Lat < s.Late {
			t.Errorf("request %d: latency %v hides its lateness %v", i, s.Lat, s.Late)
		}
	}
	if res.Elapsed != 600*time.Millisecond {
		t.Errorf("elapsed %v; want 600ms (the schedule, not the stall, sets the length)", res.Elapsed)
	}
}
