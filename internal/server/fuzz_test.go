package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/coherence"
	"repro/internal/rt"
)

// runSeeds are the /run bodies the table tests post (TestRequestValidation
// and the cache, deadline and verify tests), valid and not.
var runSeeds = []string{
	`{"benchmark":"treeadd"}`,
	`{"benchmark":"treeadd","procs":2,"scale":32}`,
	`{"benchmark":"em3d","procs":4,"scheme":"bilateral","mode":"cache-only"}`,
	`{"benchmark":"power","baseline":true,"procs":8}`,
	`{"benchmark":"treeadd","no_cache":true,"verify":true,"deadline_ms":50}`,
	`{"benchmark":"nosuch"}`,
	`{}`,
	`{"benchmark":"treeadd","scheme":"mesi"}`,
	`{"benchmark":"treeadd","mode":"warp"}`,
	`{"benchmark":"treeadd","procs":65}`,
	`{"benchmark":"treeadd","procs":-1}`,
	`{"benchmark":"treeadd","scale":-1}`,
	`{"benchmark":"treeadd","deadline_ms":-1}`,
	`not json`,
	`{"benchmark":"treeadd"}{"benchmark":"power"}`,
	`{"benchmark":"treeadd"} garbage`,
	`{"benchmark":"treeadd"}` + "\n",
}

// checkCanonical holds for every configuration a decoder lets through: it
// is a fixed point of Normalize, key is its CacheKey, and each field is
// something the executor can act on.
func checkCanonical(t *testing.T, req RunRequest, key string) {
	t.Helper()
	if again, err := Normalize(req); err != nil || again != req {
		t.Fatalf("Normalize is not idempotent on %+v: %+v, %v", req, again, err)
	}
	if key != CacheKey(req) {
		t.Fatalf("key %q, CacheKey(%+v) = %q", key, req, CacheKey(req))
	}
	if _, err := coherence.Parse(req.Scheme); err != nil {
		t.Fatalf("accepted scheme does not parse: %v", err)
	}
	if _, err := rt.ParseMode(req.Mode); err != nil {
		t.Fatalf("accepted mode does not parse: %v", err)
	}
	if _, ok := bench.Get(req.Benchmark); !ok {
		t.Fatalf("accepted benchmark %q is not registered", req.Benchmark)
	}
	if req.Procs < 1 || req.Procs > bench.CatalogMaxProcs || req.Scale < 1 || req.DeadlineMS < 0 {
		t.Fatalf("accepted out-of-range configuration %+v", req)
	}
}

// FuzzDecodeRun checks the /run prologue never panics and only lets
// canonical configurations through.
func FuzzDecodeRun(f *testing.F) {
	for _, s := range runSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, key, err := DecodeRun(strings.NewReader(body))
		if err != nil {
			if key != "" {
				t.Fatalf("error %v alongside key %q", err, key)
			}
			return
		}
		checkCanonical(t, req, key)
	})
}

// FuzzDecodeBatch checks the /batch prologue never panics and answers an
// accepted batch item for item: each is either an item-local 400 with a
// message or names the canonical configuration left in Runs.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range runSeeds {
		f.Add(`{"runs":[` + s + `]}`)
		f.Add(`{"deadline_ms":250,"runs":[` + s + `,` + runSeeds[1] + `]}`)
	}
	for _, s := range []string{`{}`, `{"runs":[]}`, `not json`, `{"runs":[{"benchmark":"treeadd"}]} garbage`} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		breq, items, err := DecodeBatch(strings.NewReader(body))
		if err != nil {
			if items != nil {
				t.Fatalf("error %v alongside %d items", err, len(items))
			}
			return
		}
		if len(items) == 0 || len(items) != len(breq.Runs) {
			t.Fatalf("%d items for %d runs", len(items), len(breq.Runs))
		}
		for i, it := range items {
			if it.Status == http.StatusBadRequest {
				if it.Error == "" || it.Key != "" {
					t.Fatalf("item %d: a 400 with error %q and key %q", i, it.Error, it.Key)
				}
				continue
			}
			if it.Status != 0 || it.Benchmark != breq.Runs[i].Benchmark {
				t.Fatalf("item %d: %+v for run %+v", i, it, breq.Runs[i])
			}
			checkCanonical(t, breq.Runs[i], it.Key)
		}
	})
}
