package obs

import (
	"errors"
	"io"
	"time"

	"repro/internal/trace"
)

// servicePID is the synthetic Chrome-trace process id service spans render
// under. Simulated processors occupy pids 0..P-1 (see trace.EmitChrome),
// so the service timeline sits in its own clearly-separate track.
const servicePID = 1000

// WriteChrome renders one sampled request as a single merged Chrome
// trace_event file: the service span tree (wall-clock microseconds,
// pid 1000) alongside the simulation events its execution recorded
// (simulated cycles as microseconds, pid = simulated processor). Two
// clock domains in one file is deliberate — the viewer shows them as
// separate process tracks, and the point of the export is seeing both
// attributions for the same request side by side.
func WriteChrome(w io.Writer, root *Span) error {
	if root == nil {
		return errors.New("obs: nil span")
	}
	snap := root.snapshot(root.tracer.now())

	return trace.WriteChromeEnvelope(w, func(emit func(map[string]any) error) error {
		if err := emit(map[string]any{
			"ph": "M", "name": "process_name", "pid": servicePID,
			"args": map[string]any{"name": "oldend service (wall-clock µs)"},
		}); err != nil {
			return err
		}
		if err := emit(map[string]any{
			"ph": "M", "name": "trace_id", "pid": servicePID,
			"args": map[string]any{"trace_id": root.TraceID().String()},
		}); err != nil {
			return err
		}
		if err := emitSpan(emit, snap, snap.start); err != nil {
			return err
		}
		if rec := findSimRec(snap); rec != nil {
			return rec.EmitChrome(emit)
		}
		return nil
	})
}

// emitSpan renders one span (and recursively its children) as a ph:"X"
// complete event, with timestamps as microsecond offsets from the root's
// start so the export is stable under a fake clock.
func emitSpan(emit func(map[string]any) error, sn spanSnap, epoch time.Time) error {
	args := map[string]any{
		"span_id":   sn.spanID.String(),
		"parent_id": sn.parentID.String(),
	}
	for _, a := range sn.attrs {
		args[a.Key] = a.Value
	}
	if sn.simCycles >= 0 {
		args["sim_cycles"] = sn.simCycles
	}
	if sn.dropKids > 0 {
		args["dropped_children"] = sn.dropKids
	}
	if sn.dropAttrs > 0 {
		args["dropped_attrs"] = sn.dropAttrs
	}
	if err := emit(map[string]any{
		"ph": "X", "name": sn.name, "cat": "service",
		"pid": servicePID, "tid": 0,
		"ts": sn.start.Sub(epoch).Microseconds(), "dur": sn.durUS(),
		"args": args,
	}); err != nil {
		return err
	}
	for _, c := range sn.children {
		if err := emitSpan(emit, c, epoch); err != nil {
			return err
		}
	}
	return nil
}

// findSimRec returns the first simulation recorder attached anywhere in
// the snapshot tree (depth-first), nil when the request never reached the
// simulator (pure cache hit, shed, or validation error).
func findSimRec(sn spanSnap) *trace.Recorder {
	if sn.simRec != nil {
		return sn.simRec
	}
	for _, c := range sn.children {
		if rec := findSimRec(c); rec != nil {
			return rec
		}
	}
	return nil
}
