package server

import (
	"encoding/json"
	"fmt"
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
	`{"benchmark":"barneshut","scale":1}`,
	`{"benchmark":"barneshut","scale":2}`,
	`{"benchmark":"barneshut","scale":3}`,
	`{"benchmark":"treeadd","deadline_ms":-1}`,
	`not json`,
	`{"benchmark":"treeadd"}{"benchmark":"power"}`,
	`{"benchmark":"treeadd"} garbage`,
	`{"benchmark":"treeadd"}` + "\n",
}

// fmtCacheKey is the fmt rendering CacheKey replaced. Keys are stored
// under and hashed onto the ring, so the strconv one must give the same
// bytes.
func fmtCacheKey(q RunRequest) string {
	return fmt.Sprintf("%s|baseline=%t|P=%d|scale=%d|scheme=%s|mode=%s",
		q.Benchmark, q.Baseline, q.Procs, q.Scale, q.Scheme, q.Mode)
}

// checkCanonical holds for every configuration a decoder lets through: it
// is a fixed point of Normalize, key is its CacheKey (the same bytes fmt
// renders), and each field is something the executor can act on.
func checkCanonical(t *testing.T, req RunRequest, key string) {
	t.Helper()
	if again, err := Normalize(req); err != nil || again != req {
		t.Fatalf("Normalize is not idempotent on %+v: %+v, %v", req, again, err)
	}
	if key != CacheKey(req) || key != fmtCacheKey(req) {
		t.Fatalf("key %q, CacheKey(%+v) = %q, fmt renders %q", key, req, CacheKey(req), fmtCacheKey(req))
	}
	if _, err := coherence.Parse(req.Scheme); err != nil {
		t.Fatalf("accepted scheme does not parse: %v", err)
	}
	if _, err := rt.ParseMode(req.Mode); err != nil {
		t.Fatalf("accepted mode does not parse: %v", err)
	}
	if info, ok := bench.Get(req.Benchmark); !ok || req.Scale < info.MinScale {
		t.Fatalf("accepted benchmark %q at scale %d: not registered, or below its MinScale", req.Benchmark, req.Scale)
	}
	if req.Procs < 1 || req.Procs > bench.CatalogMaxProcs || req.Scale < 1 || req.DeadlineMS < 0 {
		t.Fatalf("accepted out-of-range configuration %+v", req)
	}
}

// TestCacheKeyMatchesFmt renders every configuration the catalog admits
// (each benchmark, baseline or not, P = 1..CatalogMaxProcs, every scheme
// and mode, at the catalog's default scale and two others) both ways, and
// pins CacheKey to one allocation: the returned string.
func TestCacheKeyMatchesFmt(t *testing.T) {
	n := 0
	for _, e := range bench.Catalog() {
		for _, baseline := range []bool{false, true} {
			for p := 1; p <= bench.CatalogMaxProcs; p++ {
				for _, scheme := range e.Schemes {
					for _, mode := range e.Modes {
						for _, scale := range []int{1, e.DefaultScale, 1024} {
							q := RunRequest{Benchmark: e.Name, Baseline: baseline, Procs: p, Scale: scale, Scheme: scheme, Mode: mode}
							if got, want := CacheKey(q), fmtCacheKey(q); got != want {
								t.Fatalf("CacheKey = %q, fmt renders %q", got, want)
							}
							n++
						}
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the catalog is empty")
	}
	q := RunRequest{Benchmark: "barneshut", Procs: 64, Scale: 16, Scheme: "bilateral", Mode: "migrate-only"}
	if allocs := testing.AllocsPerRun(100, func() { CacheKey(q) }); allocs != 1 {
		t.Fatalf("CacheKey: %v allocations, want 1", allocs)
	}
}

// decodeRef is DecodeRun without the memo: the prologue as it reads on a
// memo miss, for the fuzzer to hold both answers against.
func decodeRef(body string) (RunRequest, string, error) {
	var req RunRequest
	if len(body) > maxBody {
		return req, "", fmt.Errorf("request body over the %d-byte limit: %w", maxBody, &http.MaxBytesError{Limit: maxBody})
	}
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return req, "", fmt.Errorf("bad request body: %w", err)
	}
	req, err := Normalize(req)
	if err != nil {
		return req, "", err
	}
	return req, CacheKey(req), nil
}

// FuzzDecodeRun checks the /run prologue never panics, only lets
// canonical configurations through, and answers a body twice — the second
// time from the memo when the first was stored — exactly as the memo-free
// reference does: the same configuration, key and bytes, or the same
// error text.
func FuzzDecodeRun(f *testing.F) {
	for _, s := range runSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		wantReq, wantKey, wantErr := decodeRef(body)
		for i := 0; i < 2; i++ {
			req, key, b, err := DecodeRun(strings.NewReader(body))
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("call %d: error %v, reference %v", i, err, wantErr)
			}
			if err != nil {
				if key != "" {
					t.Fatalf("error %v alongside key %q", err, key)
				}
				continue
			}
			if req != wantReq || key != wantKey || string(b) != body {
				t.Fatalf("call %d: %+v %q %q, reference %+v %q", i, req, key, b, wantReq, wantKey)
			}
			checkCanonical(t, req, key)
		}
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

// TestDecodeMemo pins what the /run prologue memo may hold: an oversize
// body is a 413 every time, a valid body over maxMemoBody decodes without
// being stored, an invalid body is never stored (and so fails again), and
// the memo never grows past memoEntries.
func TestDecodeMemo(t *testing.T) {
	decode := func(body string) (RunRequest, error) {
		t.Helper()
		req, _, _, err := DecodeRun(strings.NewReader(body))
		return req, err
	}
	stored := func(body string) bool {
		_, ok := lruGet(decodeMemo, body)
		return ok
	}

	huge := `{"benchmark":"treeadd"}` + strings.Repeat(" ", maxBody)
	for i := 0; i < 2; i++ {
		if _, err := decode(huge); DecodeStatus(err) != http.StatusRequestEntityTooLarge {
			t.Fatalf("call %d: oversize body answers %d (%v), want 413", i, DecodeStatus(err), err)
		}
	}

	padded := `{"benchmark":"treeadd","procs":2}` + strings.Repeat(" ", 2<<10)
	if req, err := decode(padded); err != nil || req.Procs != 2 {
		t.Fatalf("2 KiB body: %+v, %v", req, err)
	}
	if stored(padded) {
		t.Error("a body over maxMemoBody was stored")
	}

	for _, bad := range []string{`{"benchmark":"treeadd","procs":65}`, `{"benchmark":"nosuch"}`, `{"benchmark":"treeadd"`} {
		for i := 0; i < 2; i++ {
			if _, err := decode(bad); err == nil {
				t.Fatalf("call %d: %s decoded", i, bad)
			}
		}
		if stored(bad) {
			t.Errorf("invalid body %s was stored", bad)
		}
	}

	for i := 0; i < decodeMemo.cap+44; i++ {
		body := fmt.Sprintf(`{"benchmark":"treeadd","deadline_ms":%d}`, i+1)
		if _, err := decode(body); err != nil {
			t.Fatal(err)
		}
		if !stored(body) {
			t.Fatalf("%s was not stored", body)
		}
	}
	if n := decodeMemo.len(); n != decodeMemo.cap {
		t.Errorf("memo holds %d entries, want its %d-entry bound", n, decodeMemo.cap)
	}
}
