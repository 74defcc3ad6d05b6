package report

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sim"
)

// Perfetto / Chrome trace-event export: one traced simulation run rendered
// as trace-event JSON (the "JSON Array Format" both chrome://tracing and
// ui.perfetto.dev load). The mapping is:
//
//   - one process (pid 0) named after the run;
//   - one "exec" thread lane per processor (tid = proc) carrying complete
//     ("X") slices for task executions, and one "commit" lane per processor
//     (tid = commitLaneBase + proc) carrying commit slices — separate lanes
//     because commit merging overlaps the next task's execution;
//   - squashes as instant ("i") events on the victim's exec lane plus a
//     flow arrow ("s"/"f") from the violating writer's lane to the victim,
//     so dependence chains render as arrows;
//   - the obs gauge series as counter ("C") tracks.
//
// Timestamps are simulated cycles emitted as microseconds (the format's ts
// unit); durations likewise. The export is deterministic: events are
// emitted in a fixed order derived from the trace and series alone.

// commitLaneBase offsets commit-lane thread IDs away from exec-lane ones.
const commitLaneBase = 1000

// ExportPerfetto writes run r (traced via EnableTrace) and the optional obs
// gauge series as Chrome trace-event JSON.
func ExportPerfetto(w io.Writer, r sim.Result, series obs.Series) error {
	nprocs := len(r.PerProc)
	label := fmt.Sprintf("%s/%s/%v", r.Machine, r.App, r.Scheme)
	var evs []trace.Event

	// Metadata: process and per-processor lane names.
	evs = append(evs, trace.Event{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": label},
	})
	for p := 0; p < nprocs; p++ {
		evs = append(evs,
			trace.Event{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: p,
				Args: map[string]any{"name": fmt.Sprintf("proc %d exec", p)},
			},
			trace.Event{
				Name: "thread_name", Ph: "M", Pid: 0, Tid: commitLaneBase + p,
				Args: map[string]any{"name": fmt.Sprintf("proc %d commit", p)},
			},
		)
	}

	// Task execution and commit slices. The trace is scanned in order; an
	// open start per task is closed by the matching finish/squash (exec) or
	// commit-end (commit). Squashes additionally emit an instant on the
	// victim lane and a flow arrow from the writer's lane when attributed.
	openExec := map[ids.TaskID]sim.TraceEvent{}
	openCommit := map[ids.TaskID]sim.TraceEvent{}
	procOf := map[ids.TaskID]ids.ProcID{}
	flowID := 0
	for _, e := range r.Trace {
		switch e.Kind {
		case sim.TraceStart:
			openExec[e.Task] = e
			procOf[e.Task] = e.Proc
		case sim.TraceFinish, sim.TraceSquash:
			if st, ok := openExec[e.Task]; ok {
				delete(openExec, e.Task)
				name := "task " + e.Task.String()
				cat := "exec"
				if e.Kind == sim.TraceSquash {
					cat = "squashed"
				}
				evs = append(evs, trace.Event{
					Name: name, Cat: cat, Ph: "X",
					Ts: float64(st.When), Dur: float64(e.When - st.When),
					Pid: 0, Tid: int(e.Proc),
				})
			}
			if e.Kind == sim.TraceSquash {
				evs = append(evs, trace.Event{
					Name: "squash " + e.Task.String(), Cat: "squash", Ph: "i",
					Ts: float64(e.When), Pid: 0, Tid: int(e.Proc), S: "t",
					Args: map[string]any{
						"word":   uint64(e.Word),
						"writer": e.Writer.String(),
						"wasted": uint64(e.Wasted),
					},
				})
				if wp, ok := procOf[e.Writer]; ok && e.Writer != ids.None {
					flowID++
					id := strconv.Itoa(flowID)
					evs = append(evs,
						trace.Event{
							Name: "raw", Cat: "squash", Ph: "s", ID: id,
							Ts: float64(e.When), Pid: 0, Tid: int(wp),
						},
						trace.Event{
							Name: "raw", Cat: "squash", Ph: "f", ID: id, BP: "e",
							Ts: float64(e.When), Pid: 0, Tid: int(e.Proc),
						},
					)
				}
			}
		case sim.TraceCommitStart:
			openCommit[e.Task] = e
		case sim.TraceCommitEnd:
			if st, ok := openCommit[e.Task]; ok {
				delete(openCommit, e.Task)
				evs = append(evs, trace.Event{
					Name: "commit " + e.Task.String(), Cat: "commit", Ph: "X",
					Ts: float64(st.When), Dur: float64(e.When - st.When),
					Pid: 0, Tid: commitLaneBase + int(e.Proc),
				})
			}
		}
	}

	// Counter tracks from the gauge series: one track per source, one "C"
	// event per sample.
	for col, name := range series.Names {
		for _, row := range series.Samples {
			evs = append(evs, trace.Event{
				Name: name, Cat: "gauge", Ph: "C", Ts: float64(row.Cycle), Pid: 0, Tid: 0,
				Args: map[string]any{"value": row.Values[col]},
			})
		}
	}

	return trace.WriteEvents(w, evs)
}

// PerfettoStats summarizes a validated trace-event file.
type PerfettoStats struct {
	Events        int
	Slices        int // complete "X" events
	Instants      int
	FlowStarts    int
	FlowEnds      int
	CounterEvents int
	CounterTracks int // distinct counter names
	ExecLanes     int // distinct exec lanes (pid, tid) carrying slices
	Metadata      int
	Processes     int // distinct pids (1 for a sim export, one per fleet process)
	SpanIDs       int // distinct args.span correlation IDs
}

// ValidatePerfetto parses trace-event JSON produced by ExportPerfetto, the
// fleet exporter (trace.ExportPerfetto), or any conforming producer and
// checks its schema: a traceEvents array whose records carry a known phase,
// with paired flow arrows and non-negative times. It understands both the
// single-process sim layout (pid 0, commit lanes offset by commitLaneBase)
// and the multi-process fleet layout (one pid per coordinator/worker):
// exec lanes are keyed by (pid, tid), and span correlation IDs stamped in
// args.span must be unique across the whole file — a duplicate means two
// processes minted colliding IDs and the merged trace is untrustworthy. It
// returns per-phase statistics for further assertions.
func ValidatePerfetto(r io.Reader) (PerfettoStats, error) {
	var st PerfettoStats
	var f struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return st, fmt.Errorf("report: perfetto: parsing: %w", err)
	}
	if f.TraceEvents == nil {
		return st, fmt.Errorf("report: perfetto: no traceEvents array")
	}
	counters := map[string]bool{}
	type lane struct{ pid, tid int }
	execLanes := map[lane]bool{}
	pids := map[int]bool{}
	spans := map[string]int{} // span ID -> first event index
	for i, ev := range f.TraceEvents {
		var ph string
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil {
			return st, fmt.Errorf("report: perfetto: event %d: missing phase", i)
		}
		name := ""
		if raw, ok := ev["name"]; ok {
			if err := json.Unmarshal(raw, &name); err != nil {
				return st, fmt.Errorf("report: perfetto: event %d: bad name: %v", i, err)
			}
		}
		pid := 0
		if raw, ok := ev["pid"]; ok {
			if err := json.Unmarshal(raw, &pid); err != nil {
				return st, fmt.Errorf("report: perfetto: event %d: bad pid: %v", i, err)
			}
		}
		pids[pid] = true
		if ph != "M" { // metadata events carry no timestamp requirement
			var ts float64
			if raw, ok := ev["ts"]; !ok || json.Unmarshal(raw, &ts) != nil {
				return st, fmt.Errorf("report: perfetto: event %d (%s): missing ts", i, ph)
			} else if ts < 0 {
				return st, fmt.Errorf("report: perfetto: event %d (%s): negative ts", i, ph)
			}
		}
		if raw, ok := ev["args"]; ok {
			var args struct {
				Span string `json:"span"`
			}
			if json.Unmarshal(raw, &args) == nil && args.Span != "" {
				if first, dup := spans[args.Span]; dup {
					return st, fmt.Errorf("report: perfetto: event %d: span ID %s duplicates event %d — cross-process ID collision", i, args.Span, first)
				}
				spans[args.Span] = i
			}
		}
		st.Events++
		switch ph {
		case "X":
			st.Slices++
			var tid int
			if raw, ok := ev["tid"]; ok && json.Unmarshal(raw, &tid) == nil && tid < commitLaneBase {
				execLanes[lane{pid, tid}] = true
			}
		case "i", "I":
			st.Instants++
		case "s":
			st.FlowStarts++
		case "f":
			st.FlowEnds++
		case "C":
			st.CounterEvents++
			counters[name] = true
		case "M":
			st.Metadata++
		case "B", "E", "b", "e", "n", "t":
			// Legal phases we don't emit; accept them.
		default:
			return st, fmt.Errorf("report: perfetto: event %d: unknown phase %q", i, ph)
		}
	}
	if st.FlowStarts != st.FlowEnds {
		return st, fmt.Errorf("report: perfetto: %d flow starts, %d flow ends", st.FlowStarts, st.FlowEnds)
	}
	st.CounterTracks = len(counters)
	st.ExecLanes = len(execLanes)
	st.Processes = len(pids)
	st.SpanIDs = len(spans)
	return st, nil
}
