package metrics

import (
	"strings"
	"testing"
)

func TestObserveExemplar(t *testing.T) {
	h := &Histogram{}
	h.ObserveExemplar(3, "trace-a")
	h.ObserveExemplar(100, "trace-b")
	h.ObserveExemplar(120, "trace-c") // same bucket as 100: last writer wins
	h.ObserveExemplar(7, "")          // no ref: observation only

	if h.Count() != 4 {
		t.Fatalf("Count() = %d, want 4", h.Count())
	}
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("Exemplars() = %+v, want 2 entries", ex)
	}
	if ex[0].Ref != "trace-a" || ex[0].Value != 3 {
		t.Fatalf("bucket exemplar = %+v, want trace-a/3", ex[0])
	}
	if ex[1].Ref != "trace-c" || ex[1].Value != 120 || ex[1].Le != 127 {
		t.Fatalf("bucket exemplar = %+v, want trace-c/120 le=127", ex[1])
	}

	var nilH *Histogram
	nilH.ObserveExemplar(1, "x")
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram returned exemplars")
	}
}

func TestExemplarsInSnapshotJSONOnly(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_us")
	h.ObserveExemplar(50, "0af7651916cd43dd8448eb211c80319c")
	snap := r.Snapshot()

	sm, ok := snap.Get("latency_us")
	if !ok || sm.Hist == nil || len(sm.Hist.Exemplars) != 1 {
		t.Fatalf("snapshot missing exemplar: %+v", sm)
	}
	if sm.Hist.Exemplars[0].Ref != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("exemplar ref = %q", sm.Hist.Exemplars[0].Ref)
	}
	// The pinned formats must not know exemplars exist.
	flat := snap.Flat()
	for k := range flat {
		if strings.Contains(k, "exemplar") {
			t.Fatalf("Flat() leaked exemplar key %q", k)
		}
	}
	if out := snap.Prometheus(); strings.Contains(out, "0af76519") {
		t.Fatalf("Prometheus() leaked exemplar:\n%s", out)
	}

	// Reset clears exemplars with the distribution.
	r.Reset()
	if ex := h.Exemplars(); ex != nil {
		t.Fatalf("Reset left exemplars: %+v", ex)
	}
}
