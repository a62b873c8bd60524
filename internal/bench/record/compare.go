package record

import "fmt"

// Regression is one gate failure: a candidate configuration got worse than
// its pinned baseline. The simulator is deterministic, so the gate is
// exact: any cycle or miss-rate increase at all fails.
type Regression struct {
	Benchmark string
	Key       string
	Metric    string // "cycles", "miss_pct", or "verified"
	Old, New  float64
	Limit     float64 // the threshold the new value crossed
}

func (r Regression) String() string {
	if r.Metric == "verified" {
		return fmt.Sprintf("%s [%s]: run no longer verifies against the sequential reference",
			r.Benchmark, r.Key)
	}
	return fmt.Sprintf("%s [%s]: %s %.6g -> %.6g (limit %.6g)",
		r.Benchmark, r.Key, r.Metric, r.Old, r.New, r.Limit)
}

// Compare gates candidate against baseline. It returns one Regression per
// configuration-metric that degraded, and an error for
// structural problems (benchmark mismatch, a baseline configuration
// missing from the candidate, or runs at different scales — deltas across
// scales are meaningless).
func Compare(baseline, candidate File) ([]Regression, error) {
	if baseline.Benchmark != candidate.Benchmark {
		return nil, fmt.Errorf("record: comparing %q against %q",
			candidate.Benchmark, baseline.Benchmark)
	}
	var regs []Regression
	for _, base := range baseline.Records {
		key := base.Key()
		cand, ok := candidate.Lookup(key)
		if !ok {
			return nil, fmt.Errorf("record: %s: configuration %q missing from candidate",
				baseline.Benchmark, key)
		}
		if cand.Scale != base.Scale {
			return nil, fmt.Errorf("record: %s [%s]: scale 1/%d vs baseline 1/%d — re-pin or rerun at matching scale",
				baseline.Benchmark, key, cand.Scale, base.Scale)
		}
		if !cand.Verified {
			regs = append(regs, Regression{
				Benchmark: baseline.Benchmark, Key: key, Metric: "verified",
			})
		}
		if cand.Cycles > base.Cycles {
			regs = append(regs, Regression{
				Benchmark: baseline.Benchmark, Key: key, Metric: "cycles",
				Old: float64(base.Cycles), New: float64(cand.Cycles), Limit: float64(base.Cycles),
			})
		}
		if cand.MissPct > base.MissPct {
			regs = append(regs, Regression{
				Benchmark: baseline.Benchmark, Key: key, Metric: "miss_pct",
				Old: base.MissPct, New: cand.MissPct, Limit: base.MissPct,
			})
		}
	}
	return regs, nil
}

// CompareDirs gates a candidate set against a baseline set, matching files
// by benchmark name. Every baseline benchmark must be present in the
// candidate set.
func CompareDirs(baseline, candidate []File) ([]Regression, error) {
	byName := make(map[string]File, len(candidate))
	for _, f := range candidate {
		byName[f.Benchmark] = f
	}
	var regs []Regression
	for _, base := range baseline {
		cand, ok := byName[base.Benchmark]
		if !ok {
			return nil, fmt.Errorf("record: benchmark %q missing from candidate set", base.Benchmark)
		}
		r, err := Compare(base, cand)
		if err != nil {
			return nil, err
		}
		regs = append(regs, r...)
	}
	return regs, nil
}
