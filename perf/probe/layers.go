package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/analysis/phases"
	"repro/internal/bench"
	"repro/internal/bench/record"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/coherence"
	"repro/internal/gaddr"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/perf/memnet"

	_ "repro/internal/bench/barneshut"
	_ "repro/internal/bench/bisort"
	_ "repro/internal/bench/em3d"
	_ "repro/internal/bench/health"
	_ "repro/internal/bench/mst"
	_ "repro/internal/bench/perimeter"
	_ "repro/internal/bench/power"
	_ "repro/internal/bench/treeadd"
	_ "repro/internal/bench/tsp"
	_ "repro/internal/bench/voronoi"
)

// probeScale and probeProcs are the problem size and machine size of every
// probe that runs a real kernel: the wall-clock suite's.
const (
	probeScale = 64
	probeProcs = 4
)

// requests is one normalised run request per kernel and scheme: the key
// population the routing and keying probes walk.
func requests() []server.RunRequest {
	var out []server.RunRequest
	for _, name := range bench.Names() {
		for _, k := range coherence.Kinds() {
			q, err := server.Normalize(server.RunRequest{Benchmark: name, Scheme: k.String(), Scale: probeScale})
			if err != nil {
				panic(err) // the catalog rejected its own entry
			}
			out = append(out, q)
		}
	}
	return out
}

func clusterProbes(opt Options) []Result {
	ring, err := cluster.NewRing([]string{"http://r0", "http://r1"}, 0)
	if err != nil {
		panic(err)
	}
	var keys []string
	for _, q := range requests() {
		keys = append(keys, server.CacheKey(q))
	}
	return []Result{
		perOp(opt, "cluster.ring_owners_ns", "ns", 3000, timed(3000, func(i int) {
			sink += uint64(len(ring.Owners(keys[i%len(keys)], 2)))
		})),
	}
}

func serverProbes(opt Options) []Result {
	reqs := requests()
	for i := range reqs {
		reqs[i].Procs, reqs[i].Scheme, reqs[i].Mode = 0, "", "" // make Normalize fill the defaults again
	}
	return []Result{
		perOp(opt, "server.normalize_key_ns", "ns", 3000, timed(3000, func(i int) {
			q, _ := server.Normalize(reqs[i%len(reqs)])
			sink += uint64(len(server.CacheKey(q)))
		})),
	}
}

func obsProbes(opt Options) []Result {
	request := func(tr *obs.Tracer) func(int) {
		return func(int) {
			sp := tr.StartRequest("POST", "/run", obs.Context{})
			for _, name := range [...]string{"cache_probe", "queue_wait", "execute", "serialize"} {
				sp.StartChild(name).End()
			}
			tr.FinishRequest(sp, obs.ReqInfo{Method: "POST", Path: "/run", Status: 200, Cache: "hit"})
		}
	}
	return []Result{
		perOp(opt, "obs.span_sampled_ns", "ns", 1000, timed(1000, request(obs.New(obs.Config{SampleEvery: 1})))),
		perOp(opt, "obs.span_unsampled_ns", "ns", 1000, timed(1000, request(obs.New(obs.Config{SampleEvery: 0})))),
	}
}

// kernel looks a registered benchmark up.
func kernel(name string) bench.Info {
	info, ok := bench.Get(name)
	if !ok {
		panic("probe: benchmark " + name + " is not registered")
	}
	return info
}

func realRecord() record.RunRecord {
	res, rec := bench.RunRecorded(kernel("treeadd"), bench.Config{Procs: probeProcs, Scale: probeScale})
	if !res.Verified() {
		panic("probe: treeadd did not verify")
	}
	return rec
}

func recordProbes(opt Options) []Result {
	rec := realRecord()
	var size int
	marshal := perOp(opt, "record.marshal_us", "us", 20, timed(20, func(int) {
		b, err := json.MarshalIndent(rec, "", "  ") // the serving layer's canonical body
		if err != nil {
			panic(err)
		}
		size = len(b) + 1
	}))
	return []Result{marshal, {Name: "record.body_kb", Unit: "KiB", Value: float64(size) / 1024, N: 1}}
}

// The rt probes are the smallest Olden programs that isolate one runtime
// path: one thread, hand-tagged sites, no kernel around them.
var (
	siteLocal   = &rt.Site{Name: "perf.local", Mech: rt.Cache}
	siteCached  = &rt.Site{Name: "perf.cached", Mech: rt.Cache}
	siteMiss    = &rt.Site{Name: "perf.miss", Mech: rt.Cache}
	siteMigrate = &rt.Site{Name: "perf.migrate", Mech: rt.Migrate}
)

func rtProbes(opt Options) []Result {
	const ops = 4000
	// inRun times ops calls of fn on the root thread of a fresh
	// two-processor runtime; place says which processor owns the object.
	inRun := func(place int, bytes uint32, fn func(t *rt.Thread, g gaddr.GP, i int)) func() time.Duration {
		return func() time.Duration {
			r := rt.New(rt.Config{Procs: 2})
			g := r.RawAlloc(place, bytes)
			var d time.Duration
			r.Run(0, func(t *rt.Thread) {
				fn(t, g, 0) // first touch: page allocation, site registration
				t0 := time.Now()
				for i := 1; i <= ops; i++ {
					fn(t, g, i)
				}
				d = time.Since(t0)
			})
			return d
		}
	}
	return []Result{
		perOp(opt, "rt.local_load_ns", "ns", ops, inRun(0, 64, func(t *rt.Thread, g gaddr.GP, _ int) {
			sink += t.LoadWord(siteLocal, g, 0)
		})),
		perOp(opt, "rt.cached_hit_ns", "ns", ops, inRun(1, 64, func(t *rt.Thread, g gaddr.GP, _ int) {
			sink += t.LoadWord(siteCached, g, 0)
		})),
		// Every load names a line not touched before: a line fetch each,
		// a page allocation every LinesPerPage-th.
		perOp(opt, "rt.cached_miss_ns", "ns", ops, inRun(1, (ops+1)*gaddr.LineBytes, func(t *rt.Thread, g gaddr.GP, i int) {
			sink += t.LoadWord(siteMiss, g, uint32(i)*gaddr.LineBytes)
		})),
		perOp(opt, "rt.migrate_roundtrip_ns", "ns", ops, inRun(1, 64, func(t *rt.Thread, g gaddr.GP, _ int) {
			rt.CallVoid(t, func() { sink += t.LoadWord(siteMigrate, g, 0) })
		})),
		perOp(opt, "rt.future_spawn_touch_ns", "ns", ops, inRun(0, 64, func(t *rt.Thread, _ gaddr.GP, _ int) {
			f := rt.Spawn(t, func(*rt.Thread) uint64 { return 1 })
			sink += f.Touch(t)
		})),
		// What every served run pays before its kernel starts: machine,
		// caches, coherence engine, scheduler, recorder and registry.
		perOp(opt, "rt.run_setup_us", "us", 20, timed(20, func(int) {
			r := rt.New(rt.Config{Procs: probeProcs, Trace: trace.New(0), Metrics: metrics.NewRegistry()})
			sink += uint64(r.Run(0, func(*rt.Thread) {}))
		})),
	}
}

func machineProbes(opt Options) []Result {
	const ops = 4000
	// Two threads whose clocks leapfrog: every Sync finds the other
	// thread behind and hands the processor over.
	handoff := func() time.Duration {
		s := machine.NewLoopScheduler()
		a, b := s.Register(0), s.Register(1)
		leapfrog := func(e *machine.SchedEntry, clock int64) func() {
			return func() {
				for i := 0; i < ops/2; i++ {
					clock += 2
					s.Sync(e, clock)
				}
				s.Exit(e)
			}
		}
		s.Go(b, leapfrog(b, 1))
		t0 := time.Now()
		s.Main(a, leapfrog(a, 0))
		return time.Since(t0)
	}
	return []Result{
		perOp(opt, "machine.sched_handoff_ns", "ns", ops, handoff),
		perOp(opt, "machine.new_us", "us", 100, timed(100, func(int) {
			sink += uint64(machine.New(machine.Config{Procs: probeProcs}).P())
		})),
	}
}

// residentPages is the software-cache occupancy the cache probes run at.
const residentPages = 256

func cacheProbes(opt Options) []Result {
	// One remote page per allocation; the runtime only lends its heap.
	r := rt.New(rt.Config{Procs: 2})
	type lineAddr struct {
		g    gaddr.GP
		line int
	}
	var lines []lineAddr
	for p := 0; p < residentPages; p++ {
		page := r.RawAlloc(1, gaddr.PageBytes)
		for l := 0; l < gaddr.LinesPerPage; l++ {
			lines = append(lines, lineAddr{rt.FieldPtr(page, uint32(l)*gaddr.LineBytes), l})
		}
	}
	var words [gaddr.WordsPerLine]uint64
	fill := func(c *cache.Cache) {
		for _, a := range lines {
			e, _, _ := c.Probe(a.g)
			c.InstallLine(e, a.line, words[:])
		}
	}
	warm := cache.New()
	fill(warm)
	invalidate := func() time.Duration {
		var d time.Duration
		for i := 0; i < 20; i++ {
			fill(warm)
			t0 := time.Now()
			sink += uint64(warm.InvalidateAll())
			d += time.Since(t0)
		}
		return d
	}
	hit := perOp(opt, "cache.hit_ns", "ns", len(lines), timed(len(lines), func(i int) {
		if _, ok := warm.Hit(lines[i].g); ok {
			sink++
		}
	}))
	return []Result{
		hit,
		perOp(opt, "cache.probe_install_ns", "ns", len(lines), func() time.Duration {
			c := cache.New()
			t0 := time.Now()
			fill(c)
			return time.Since(t0)
		}),
		perOp(opt, "cache.invalidate_all_ns", "ns", 20, invalidate),
	}
}

func coherenceProbes(opt Options) []Result {
	const dirtyPages = 16
	var out []Result
	for _, kind := range coherence.Kinds() {
		// Processor 0 has written one line in each of dirtyPages pages
		// homed on processor 1; processor 2 caches all of them.
		r := rt.New(rt.Config{Procs: probeProcs, Scheme: kind})
		dirty := coherence.DirtySet{}
		var words [gaddr.WordsPerLine]uint64
		for p := 0; p < dirtyPages; p++ {
			g := r.RawAlloc(1, gaddr.PageBytes) // a whole page, so g is its line 0
			dirty.Add(g)
			e, _, _ := r.Caches[2].Probe(g)
			r.Caches[2].InstallLine(e, 0, words[:])
			r.Coh.RegisterSharer(e.Page, 2)
		}
		var now int64
		out = append(out,
			perOp(opt, "coherence.release_ns."+kind.String(), "ns", 200, timed(200, func(int) {
				now = r.Coh.OnRelease(0, now, dirty)
			})),
			perOp(opt, "coherence.acquire_ns."+kind.String(), "ns", 200, timed(200, func(int) {
				now = r.Coh.OnAcquire(2, now, false, 0)
			})))
		sink += uint64(now)
	}
	return out
}

func memProbes(opt Options) []Result {
	info := kernel("treeadd")
	cfg := bench.Config{Procs: probeProcs, Scale: probeScale}
	r := cfg.NewRuntime()
	info.Phased.Build(cfg, r)
	imgs := r.SnapshotHeaps()
	return []Result{
		perOp(opt, "mem.snapshot_us", "us", 20, timed(20, func(int) { sink += uint64(len(r.SnapshotHeaps())) })),
		perOp(opt, "mem.restore_us", "us", 20, timed(20, func(int) { r.RestoreHeaps(imgs) })),
	}
}

// slowdownKernels are the three kernels the with/without probes run: a
// migrate-only kernel, a cache-heavy one and a mixed one.
var slowdownKernels = []string{"treeadd", "em3d", "health"}

// slowdown times the three kernels with and without one observer attached,
// alternating the two, and returns the ratio of the medians.
func slowdown(opt Options, name string, with func(*bench.Config)) Result {
	var on, off []float64
	run := func(attach bool) float64 {
		t0 := time.Now()
		for _, k := range slowdownKernels {
			cfg := bench.Config{Procs: probeProcs, Scale: probeScale}
			if attach {
				with(&cfg)
			}
			if !kernel(k).Run(cfg).Verified() {
				panic("probe: " + k + " did not verify")
			}
		}
		return time.Since(t0).Seconds()
	}
	for i := 0; i < opt.Rounds; i++ {
		off = append(off, run(false))
		on = append(on, run(true))
	}
	return Result{Name: name, Unit: "ratio", Value: median(on) / median(off), N: opt.Rounds * len(slowdownKernels)}
}

func traceProbes(opt Options) []Result {
	const ring = 1 << 16
	full := trace.New(ring)
	ev := trace.Event{Kind: trace.EvCacheHit, T: 1, P: 1, Tid: 1, Site: -1, Line: 3, Page: 4096}
	for i := 0; i < ring; i++ {
		full.Emit(ev)
	}
	return []Result{
		perOp(opt, "trace.emit_ns", "ns", 10000, timed(10000, func(i int) {
			ev.T = int64(i)
			full.Emit(ev)
		})),
		perOp(opt, "trace.digest_us", "us", 1, timed(1, func(int) { sink += uint64(len(full.Digest().String())) })),
		slowdown(opt, "trace.on_slowdown", func(c *bench.Config) { c.Trace = trace.New(0) }),
	}
}

func metricsProbes(opt Options) []Result {
	reg := metrics.NewRegistry()
	_, _ = bench.RunRecorded(kernel("treeadd"), bench.Config{Procs: probeProcs, Scale: probeScale, Metrics: reg})
	c := reg.Counter("perf_probe_total")
	return []Result{
		perOp(opt, "metrics.counter_inc_ns", "ns", 10000, timed(10000, func(int) { c.Inc() })),
		perOp(opt, "metrics.flat_us", "us", 20, timed(20, func(int) { sink += uint64(len(reg.Snapshot().Flat())) })),
		slowdown(opt, "metrics.on_slowdown", func(c *bench.Config) { c.Metrics = metrics.NewRegistry() }),
	}
}

func phasesProbes(opt Options) []Result {
	var sources []string
	for _, name := range bench.Names() {
		if src := kernel(name).Source; src != "" {
			sources = append(sources, src)
		}
	}
	return []Result{
		perOp(opt, "phases.plan_us", "us", len(sources), timed(len(sources), func(i int) {
			if _, err := phases.ComputeSource(sources[i], phases.Options{IncludeBuild: true}); err != nil {
				panic(fmt.Sprintf("probe: phase plan: %v", err))
			}
		})),
	}
}

// harnessProbes prices the benchmark's own plumbing: one client request
// into a handler that makes one exchange over the in-memory transport to a
// handler that does nothing — a routed request with the router's and the
// replica's work taken out.
func harnessProbes(opt Options) []Result {
	net := memnet.New()
	reply := []byte("{}\n")
	net.Handle("r0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(reply)
	}))
	client := &http.Client{Transport: net}
	front := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := client.Post("http://r0/run", "application/json", r.Body)
		if err != nil {
			panic(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		w.Write(b)
	})
	rec := &memnet.Recorder{}
	return []Result{
		perOp(opt, "perf.harness_floor_us", "us", 1000, timed(1000, func(int) {
			req, err := http.NewRequest(http.MethodPost, "http://router/run", strings.NewReader(`{"benchmark":"treeadd"}`))
			if err != nil {
				panic(err)
			}
			rec.Reset()
			front.ServeHTTP(rec, req)
		})),
	}
}
