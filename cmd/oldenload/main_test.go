package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ms := func(ns ...int) []time.Duration {
		out := make([]time.Duration, len(ns))
		for i, n := range ns {
			out[i] = time.Duration(n) * time.Millisecond
		}
		return out
	}
	ten := ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, tc := range []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 50, 0},
		{"n=1 q=0", ms(7), 0, 7 * time.Millisecond},
		{"n=1 q=50", ms(7), 50, 7 * time.Millisecond},
		{"n=1 q=100", ms(7), 100, 7 * time.Millisecond},
		{"q=0 clamps to the first rank", ten, 0, 1 * time.Millisecond},
		{"q=100 is the maximum", ten, 100, 10 * time.Millisecond},
		{"p50 of ten is rank 5", ten, 50, 5 * time.Millisecond},
		{"p95 of ten rounds up to rank 10", ten, 95, 10 * time.Millisecond},
		{"p10 of ten is rank 1", ten, 10, 1 * time.Millisecond},
		{"p11 of ten rounds up to rank 2", ten, 11, 2 * time.Millisecond},
	} {
		if got := percentile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: percentile = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestGate(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rep         Report
		p95         float64
		errRate     float64
		minRequests int64
		want        []string // one substring per expected breach, in order
	}{
		{name: "clean run", rep: Report{Requests: 100, Succeeded: 100}, minRequests: 100},
		{name: "a 5xx always breaches, whatever error rate is allowed",
			rep: Report{Requests: 1000, Failed5xx: 1}, errRate: 1,
			want: []string{"1 responses were 5xx"}},
		{name: "transport errors count toward the error rate only",
			rep: Report{Requests: 10, Transport: 2}, errRate: 0.1,
			want: []string{"error rate 0.2000 > 0.1000"}},
		{name: "shedding never breaches", rep: Report{Requests: 10, Shed: 10}},
		{name: "too few requests", rep: Report{Requests: 9}, minRequests: 10,
			want: []string{"completed 9 requests, need >= 10"}},
		{name: "zero requests: only the minimum can breach", rep: Report{}, minRequests: 1,
			want: []string{"completed 0 requests, need >= 1"}},
		{name: "latency SLO of 0 is off", rep: Report{Requests: 1, Latency: LatencyMS{P95: 1e6}}},
		{name: "latency SLO breached", rep: Report{Requests: 1, Latency: LatencyMS{P95: 12.5}}, p95: 10,
			want: []string{"p95 12.5ms > 10.0ms"}},
	} {
		rep := tc.rep
		gate(&rep, tc.p95, tc.errRate, tc.minRequests)
		if len(rep.Breaches) != len(tc.want) {
			t.Errorf("%s: breaches %q, want %d", tc.name, rep.Breaches, len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if !strings.Contains(rep.Breaches[i], w) {
				t.Errorf("%s: breach %d = %q, want it to contain %q", tc.name, i, rep.Breaches[i], w)
			}
		}
	}
}

func TestGateShards(t *testing.T) {
	shards := func(reqs ...int64) map[string]*ShardStats {
		m := map[string]*ShardStats{}
		for i, n := range reqs {
			m[string(rune('a'+i))] = &ShardStats{Requests: n}
		}
		return m
	}
	for _, tc := range []struct {
		name      string
		shards    map[string]*ShardStats
		expect    int
		maxSpread float64
		want      string // "" = no breach
	}{
		{name: "both gates off", shards: shards(1, 100)},
		{name: "enough shards answered", shards: shards(5, 5, 5), expect: 3},
		{name: "a shard never answered", shards: shards(5, 5), expect: 3, want: "2 distinct shards answered, need >= 3"},
		{name: "spread at the limit passes", shards: shards(10, 40), maxSpread: 4},
		{name: "spread over the limit", shards: shards(10, 41), maxSpread: 4, want: "shard load spread 4.10 (max 41 / min 10 requests) > 4.00"},
		{name: "a listed shard with zero requests", shards: shards(0, 7), maxSpread: 4, want: "zero requests"},
		{name: "no shards reported: spread gate has nothing to judge", shards: nil, maxSpread: 4},
	} {
		rep := Report{Shards: tc.shards}
		gateShards(&rep, tc.expect, tc.maxSpread)
		switch {
		case tc.want == "" && len(rep.Breaches) != 0:
			t.Errorf("%s: unexpected breaches %q", tc.name, rep.Breaches)
		case tc.want != "" && (len(rep.Breaches) != 1 || !strings.Contains(rep.Breaches[0], tc.want)):
			t.Errorf("%s: breaches %q, want one containing %q", tc.name, rep.Breaches, tc.want)
		}
	}
}

func TestParseMix(t *testing.T) {
	type body struct {
		Benchmark  string `json:"benchmark"`
		Procs      int    `json:"procs"`
		Scale      int    `json:"scale"`
		Scheme     string `json:"scheme"`
		Mode       string `json:"mode"`
		NoCache    bool   `json:"no_cache"`
		DeadlineMS int64  `json:"deadline_ms"`
	}
	decode := func(t *testing.T, mix [][]byte) []body {
		t.Helper()
		out := make([]body, len(mix))
		for i, b := range mix {
			if err := json.Unmarshal(b, &out[i]); err != nil {
				t.Fatalf("mix body %d is not JSON: %v: %s", i, err, b)
			}
		}
		return out
	}

	t.Run("empty spec defaults to the first four catalog entries at scale 64", func(t *testing.T) {
		mix, err := parseMix("", []string{"local"}, false)
		if err != nil {
			t.Fatal(err)
		}
		got := decode(t, mix)
		if len(got) != 4 {
			t.Fatalf("%d default entries, want 4", len(got))
		}
		for _, b := range got {
			if b.Scale != 64 || b.Procs < 1 || b.Scheme != "local" || b.Mode != "" || b.DeadlineMS != 0 {
				t.Errorf("default entry %+v", b)
			}
		}
	})
	t.Run("procs and scale default per catalog entry; flags ride on every body", func(t *testing.T) {
		mix, err := parseMix("treeadd, treeadd:2, treeadd:2:32", []string{"global"}, true)
		if err != nil {
			t.Fatal(err)
		}
		got := decode(t, mix)
		if len(got) != 3 || got[1].Procs != 2 || got[2].Scale != 32 || got[1].Scale != got[0].Scale {
			t.Fatalf("entries %+v", got)
		}
		for _, b := range got {
			if b.Benchmark != "treeadd" || !b.NoCache || b.Scheme != "global" {
				t.Errorf("entry %+v lost a flag", b)
			}
		}
	})
	t.Run("-schemes expands every entry, entry-major", func(t *testing.T) {
		mix, err := parseMix("treeadd:2:64,em3d:2:64", []string{"local", " global", "bilateral"}, false)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, b := range decode(t, mix) {
			order = append(order, b.Benchmark+"/"+b.Scheme)
		}
		want := "treeadd/local treeadd/global treeadd/bilateral em3d/local em3d/global em3d/bilateral"
		if strings.Join(order, " ") != want {
			t.Errorf("expansion order %q, want %q", strings.Join(order, " "), want)
		}
		if names := mixNames(mix); len(names) != 6 || names[1] != "treeadd:2:64:global" {
			t.Errorf("mixNames = %q", names)
		}
	})
	for _, tc := range []struct{ name, spec, scheme, want string }{
		{"four fields", "treeadd:2:64:local", "local", "bad mix entry"},
		{"unknown benchmark", "nosuch:2:64", "local", "unknown benchmark"},
		{"procs not a number", "treeadd:two", "local", "bad procs"},
		{"procs zero", "treeadd:0", "local", "bad procs"},
		{"procs beyond the catalog maximum", "treeadd:100000", "local", "bad procs"},
		{"scale zero", "treeadd:2:0", "local", "bad scale"},
		{"scale not a number", "treeadd:2:big", "local", "bad scale"},
		{"empty entry", "treeadd,,em3d", "local", "unknown benchmark"},
		{"scheme outside the catalog", "treeadd", "mesi", `scheme "mesi" not in catalog`},
	} {
		t.Run("malformed: "+tc.name, func(t *testing.T) {
			mix, err := parseMix(tc.spec, []string{tc.scheme}, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("parseMix(%q) = %d bodies, err %v; want an error containing %q", tc.spec, len(mix), err, tc.want)
			}
		})
	}
}
