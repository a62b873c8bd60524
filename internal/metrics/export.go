package metrics

import (
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Bucket is one non-empty histogram bucket in a snapshot: Le is the
// inclusive upper bound of the bucket's value range and Count the number of
// observations that landed in it (non-cumulative).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistSample is the snapshot of one histogram.
type HistSample struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Sample is the snapshot of one metric. For histograms Value is the
// observation count and Hist carries the distribution.
type Sample struct {
	Name   string      `json:"name"`
	Labels []Label     `json:"labels,omitempty"`
	Kind   string      `json:"kind"`
	Value  int64       `json:"value"`
	Hist   *HistSample `json:"histogram,omitempty"`

	id string // name + canonical labels, for sorting and diffing
}

// ID returns the sample's canonical identity: name plus sorted labels,
// rendered as name{k="v",...}.
func (s Sample) ID() string {
	if s.id != "" {
		return s.id
	}
	return s.Name + labelID(s.Labels)
}

// ContentType is the MIME type of the Prometheus text exposition format
// this package emits; HTTP handlers serving Prometheus() output must set
// it so scrapers negotiate the right parser.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Snapshot is a point-in-time copy of a registry, sorted by metric ID so
// two snapshots of the same registry state render identically.
type Snapshot struct {
	Samples []Sample `json:"samples"`
	// Help maps metric names to their registered help strings; exporters
	// render them as # HELP lines.
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot copies every registered metric. Function-backed metrics are read
// at call time. Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.index))
	for _, e := range r.index {
		entries = append(entries, e)
	}
	help := maps.Clone(r.help)
	r.mu.Unlock()

	snap := Snapshot{Help: help}
	for _, e := range entries {
		s := Sample{Name: e.name, Labels: e.labels, Kind: e.kind.String(), id: e.id}
		switch {
		case e.fn != nil:
			s.Value = e.fn()
		case e.c != nil:
			s.Value = e.c.Load()
		case e.g != nil:
			s.Value = e.g.Load()
		case e.h != nil:
			hs := &HistSample{Count: e.h.Count(), Sum: e.h.Sum()}
			for i := 0; i < NumBuckets; i++ {
				if n := e.h.buckets[i].Load(); n > 0 {
					hs.Buckets = append(hs.Buckets, Bucket{Le: BucketBound(i), Count: n})
				}
			}
			s.Value = hs.Count
			s.Hist = hs
		}
		snap.Samples = append(snap.Samples, s)
	}
	sort.Slice(snap.Samples, func(i, j int) bool { return snap.Samples[i].ID() < snap.Samples[j].ID() })
	return snap
}

// Get returns the sample with the given name and labels, if present.
func (s Snapshot) Get(name string, labels ...Label) (Sample, bool) {
	id := string(appendID(nil, name, sortLabels(nil, labels)))
	for _, sm := range s.Samples {
		if sm.ID() == id {
			return sm, true
		}
	}
	return Sample{}, false
}

// Flat renders the snapshot as a sorted map from metric ID to value —
// the compact form benchmark records embed. Histograms contribute
// <id>:count and <id>:sum entries plus one entry per non-empty bucket.
func (s Snapshot) Flat() map[string]int64 {
	out := make(map[string]int64, len(s.Samples))
	for _, sm := range s.Samples {
		if sm.Hist == nil {
			out[sm.ID()] = sm.Value
			continue
		}
		out[sm.ID()+":count"] = sm.Hist.Count
		out[sm.ID()+":sum"] = sm.Hist.Sum
		for _, b := range sm.Hist.Buckets {
			out[fmt.Sprintf("%s:le=%d", sm.ID(), b.Le)] = b.Count
		}
	}
	return out
}

// Prometheus renders the snapshot in the Prometheus text exposition format
// (version 0.0.4): HELP and TYPE comments, one line per sample, histograms
// with cumulative le buckets, _sum and _count series. Serve it with
// Content-Type ContentType. Label values and help text are escaped per
// the format: the exposition escapes are exactly \\, \" (label values
// only) and \n — richer Go-style escapes like \t are not part of the
// format and would be read back literally, which is why labelID's %q
// rendering is not reused here.
func (s Snapshot) Prometheus() string {
	var sb strings.Builder
	typed := map[string]bool{}
	for _, sm := range s.Samples {
		if !typed[sm.Name] {
			if help, ok := s.Help[sm.Name]; ok {
				fmt.Fprintf(&sb, "# HELP %s %s\n", sm.Name, helpEscaper.Replace(help))
			}
			fmt.Fprintf(&sb, "# TYPE %s %s\n", sm.Name, sm.Kind)
			typed[sm.Name] = true
		}
		if sm.Hist == nil {
			fmt.Fprintf(&sb, "%s%s %d\n", sm.Name, promLabels(sm.Labels), sm.Value)
			continue
		}
		var cum int64
		for _, b := range sm.Hist.Buckets {
			cum += b.Count
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", sm.Name, promLabelsLe(sm.Labels, fmt.Sprintf("%d", b.Le)), cum)
		}
		fmt.Fprintf(&sb, "%s_bucket%s %d\n", sm.Name, promLabelsLe(sm.Labels, "+Inf"), sm.Hist.Count)
		fmt.Fprintf(&sb, "%s_sum%s %d\n", sm.Name, promLabels(sm.Labels), sm.Hist.Sum)
		fmt.Fprintf(&sb, "%s_count%s %d\n", sm.Name, promLabels(sm.Labels), sm.Hist.Count)
	}
	return sb.String()
}

// labelEscaper escapes a label value per the exposition format: backslash,
// double-quote and newline only.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper escapes HELP text per the exposition format: backslash and
// newline only (quotes are legal verbatim in help).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// promLabels renders a label set in exposition syntax. Labels arrive
// already canonically sorted from the registry.
func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// promLabelsLe renders labels plus the histogram le label.
func promLabelsLe(labels []Label, le string) string {
	return promLabels(sortLabels([]Label{{Key: "le", Value: le}}, labels))
}
