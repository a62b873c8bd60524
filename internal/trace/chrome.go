package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/gaddr"
)

// WriteChrome renders the trace in the Chrome trace_event JSON format, so
// chrome://tracing or Perfetto (ui.perfetto.dev) displays per-processor
// timelines: thread residency spans, miss and stamp-check latencies, line
// fetches, and migration flow arrows between processors.
//
// Mapping: pid = simulated processor, tid = logical thread, ts/dur =
// simulated cycles rendered as microseconds. Cache hits are omitted (they
// are per-event noise at timeline scale; the profile and digest keep
// them); scheduler start/end bookkeeping events are likewise omitted.
func (r *Recorder) WriteChrome(w io.Writer) error {
	return WriteChromeEnvelope(w, r.EmitChrome)
}

// WriteChromeEnvelope writes one Chrome trace_event file: the JSON object
// envelope ValidateChrome accepts, around the event objects body streams
// through emit, one per line. It is the only writer of that envelope —
// the simulation export above and the service export in internal/obs
// differ in the events they emit, not in the file around them.
func WriteChromeEnvelope(w io.Writer, body func(emit func(obj map[string]any) error) error) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(obj map[string]any) error {
		b, err := json.Marshal(obj)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	if err := body(emit); err != nil {
		return err
	}
	if _, err := io.WriteString(bw, "\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// EmitChrome streams the trace's Chrome trace_event objects — metadata
// first, then one object per renderable event — through emit. It is the
// body of WriteChrome without the JSON envelope, so a caller composing a
// merged export (service spans plus simulation events in one file) can
// interleave these objects into its own traceEvents array.
//
// When the recorder's ring wrapped, a final metadata event named
// "trace_dropped" records how many events were lost, so a truncated
// timeline declares itself instead of silently looking complete.
func (r *Recorder) EmitChrome(emit func(obj map[string]any) error) error {
	// Name every processor and thread seen in the trace.
	procs := map[int16]bool{}
	threads := map[[2]int32]bool{} // (pid, tid) pairs
	for run := range r.held {
		for _, ev := range run {
			if ev.P < 0 {
				continue
			}
			procs[ev.P] = true
			if ev.Tid >= 0 {
				threads[[2]int32{int32(ev.P), ev.Tid}] = true
			}
		}
	}
	procList := make([]int, 0, len(procs))
	for p := range procs {
		procList = append(procList, int(p))
	}
	sort.Ints(procList)
	for _, p := range procList {
		if err := emit(map[string]any{
			"ph": "M", "name": "process_name", "pid": p,
			"args": map[string]any{"name": fmt.Sprintf("proc %d", p)},
		}); err != nil {
			return err
		}
	}
	threadList := make([][2]int32, 0, len(threads))
	for t := range threads {
		threadList = append(threadList, t)
	}
	sort.Slice(threadList, func(i, j int) bool {
		if threadList[i][0] != threadList[j][0] {
			return threadList[i][0] < threadList[j][0]
		}
		return threadList[i][1] < threadList[j][1]
	})
	for _, t := range threadList {
		if err := emit(map[string]any{
			"ph": "M", "name": "thread_name", "pid": t[0], "tid": t[1],
			"args": map[string]any{"name": fmt.Sprintf("thread %d", t[1])},
		}); err != nil {
			return err
		}
	}
	if r.Dropped() > 0 {
		if err := emit(map[string]any{
			"ph": "M", "name": "trace_dropped", "pid": 0,
			"args": map[string]any{"dropped_events": r.Dropped()},
		}); err != nil {
			return err
		}
	}

	siteName := func(id int32) string {
		if id >= 0 && int(id) < len(r.sites) {
			return r.sites[id]
		}
		return ""
	}
	pageStr := func(p uint32) string { return gaddr.PageID(p).String() }

	flowID := 0
	for run := range r.held {
		for _, ev := range run {
			var err error
			switch ev.Kind {
			case EvResidency:
				err = emit(map[string]any{
					"ph": "X", "name": "resident", "cat": "thread",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "dur": ev.Dur,
				})
			case EvMigrate, EvReturn:
				flowID++
				name, cat := "migrate", "migration"
				if ev.Kind == EvReturn {
					name = "return"
				}
				args := map[string]any{"dst": ev.Arg}
				if s := siteName(ev.Site); s != "" {
					args["site"] = s
				}
				if err = emit(map[string]any{
					"ph": "s", "id": flowID, "name": name, "cat": cat,
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "args": args,
				}); err == nil {
					err = emit(map[string]any{
						"ph": "f", "bp": "e", "id": flowID, "name": name, "cat": cat,
						"pid": ev.Arg, "tid": ev.Tid, "ts": ev.T + ev.Dur,
					})
				}
			case EvCacheMiss:
				err = emit(map[string]any{
					"ph": "X", "name": "miss " + siteName(ev.Site), "cat": "cache",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "dur": ev.Dur,
					"args": map[string]any{"page": pageStr(ev.Page), "line": ev.Line},
				})
			case EvLineFetch:
				err = emit(map[string]any{
					"ph": "X", "name": "line fetch", "cat": "cache",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "dur": ev.Dur,
					"args": map[string]any{"page": pageStr(ev.Page), "line": ev.Line, "home": ev.Arg},
				})
			case EvStampCheck:
				err = emit(map[string]any{
					"ph": "X", "name": "stamp check", "cat": "coherence",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "dur": ev.Dur,
					"args": map[string]any{"page": pageStr(ev.Page)},
				})
			case EvInvalAck:
				err = emit(map[string]any{
					"ph": "X", "name": "inval ack", "cat": "coherence",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "dur": ev.Dur,
					"args": map[string]any{"page": pageStr(ev.Page)},
				})
			case EvLineInval:
				err = emit(map[string]any{
					"ph": "i", "s": "t", "name": "invalidate", "cat": "coherence",
					"pid": ev.P, "tid": 0, "ts": ev.T,
					"args": map[string]any{"page": pageStr(ev.Page), "cleared": ev.Arg},
				})
			case EvFullFlush, EvHomeFlush, EvMarkStale:
				err = emit(map[string]any{
					"ph": "i", "s": "t", "name": ev.Kind.String(), "cat": "coherence",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T,
					"args": map[string]any{"arg": ev.Arg},
				})
			case EvFutureSpawn:
				err = emit(map[string]any{
					"ph": "i", "s": "t", "name": "spawn", "cat": "future",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T,
					"args": map[string]any{"child": ev.Arg},
				})
			case EvFutureTouch:
				err = emit(map[string]any{
					"ph": "X", "name": "touch", "cat": "future",
					"pid": ev.P, "tid": ev.Tid, "ts": ev.T, "dur": ev.Dur,
				})
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
