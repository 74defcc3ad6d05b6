package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// This file renders a merged fleet span set as a Chrome/Perfetto
// trace-event JSON file: one Perfetto process (pid) per fleet process lane
// (the coordinator plus each worker), one thread (tid) per span kind inside
// it, and flow arrows stitching lease→attempt→complete chains across
// processes wherever spans share a Flow tag (the lease ID).
//
// The layout deliberately differs from report.ExportPerfetto (which renders
// one simulation's cycle domain into a single pid): here each fleet process
// gets its own pid so ui.perfetto.dev shows the coordinator's decision lanes
// above a stack of worker lanes, all on one shared wall-clock axis.

// Event is one Chrome/Perfetto trace-event record. Field names follow the
// format. The fleet exporter below and the per-run simulation exporter
// (report.ExportPerfetto) both emit it through WriteEvents.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"`  // instant scope
	BP   string         `json:"bp,omitempty"` // flow binding point
	Args map[string]any `json:"args,omitempty"`
}

// WriteEvents encodes events as one trace-event JSON file (the object form
// both chrome://tracing and ui.perfetto.dev load), displayed in ms.
func WriteEvents(w io.Writer, events []Event) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []Event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{events, "ms"})
}

// flowCat is the category carried by every cross-process flow arrow; start
// and finish events must agree on cat+id for Perfetto to draw the arrow.
const flowCat = "fleet-flow"

// ExportPerfetto writes the merged fleet trace for spans collected from any
// number of fleet processes. Spans are grouped into one Perfetto process per
// Span.Proc (the coordinator lane sorts first when its name is coordProc;
// pass "" to sort all lanes alphabetically), one named thread per span kind,
// and flow arrows connect spans sharing a nonzero Flow tag in start-time
// order. Timestamps are normalized so the earliest span starts at 0.
func ExportPerfetto(w io.Writer, coordProc string, spans []Span) error {
	if len(spans) == 0 {
		return fmt.Errorf("trace: no spans to export")
	}

	// Deterministic process lanes: coordinator first, workers alphabetical.
	procSet := make(map[string]bool)
	for _, sp := range spans {
		procSet[sp.Proc] = true
	}
	procs := make([]string, 0, len(procSet))
	for p := range procSet {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool {
		if (procs[i] == coordProc) != (procs[j] == coordProc) {
			return procs[i] == coordProc
		}
		return procs[i] < procs[j]
	})
	pidOf := make(map[string]int, len(procs))
	for i, p := range procs {
		pidOf[p] = i
	}

	// One thread per (proc, kind), numbered in a stable order so the lane
	// layout survives re-export.
	kindSet := make(map[string]map[string]bool)
	for _, sp := range spans {
		if kindSet[sp.Proc] == nil {
			kindSet[sp.Proc] = make(map[string]bool)
		}
		kindSet[sp.Proc][kindLane(sp.Kind)] = true
	}
	type lane struct{ proc, kind string }
	tidOf := make(map[lane]int)
	var events []Event
	for _, p := range procs {
		kinds := make([]string, 0, len(kindSet[p]))
		for k := range kindSet[p] {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool {
			return laneOrder(kinds[i]) < laneOrder(kinds[j])
		})
		events = append(events, Event{
			Name: "process_name", Ph: "M", Pid: pidOf[p], Tid: 0,
			Args: map[string]any{"name": p},
		})
		for i, k := range kinds {
			tidOf[lane{p, k}] = i
			events = append(events, Event{
				Name: "thread_name", Ph: "M", Pid: pidOf[p], Tid: i,
				Args: map[string]any{"name": k},
			})
		}
	}

	// Normalize the time axis: fleet spans carry µs-since-epoch stamps that
	// dwarf the trace's extent; shift so the first span starts at 0.
	base := spans[0].Start
	for _, sp := range spans {
		if sp.Start < base {
			base = sp.Start
		}
	}

	// Render spans in a deterministic order (start, then ID) regardless of
	// the merge order the coordinator collected them in.
	ordered := append([]Span(nil), spans...)
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].Start != ordered[j].Start {
			return ordered[i].Start < ordered[j].Start
		}
		return ordered[i].ID < ordered[j].ID
	})

	flows := make(map[uint64][]Span)
	for _, sp := range ordered {
		pid := pidOf[sp.Proc]
		tid := tidOf[lane{sp.Proc, kindLane(sp.Kind)}]
		args := map[string]any{"span": strconv.FormatUint(sp.ID, 10)}
		if sp.Campaign != "" {
			args["campaign"] = sp.Campaign
		}
		if sp.Key != "" {
			args["key"] = sp.Key
		}
		if sp.Attempt != 0 {
			args["attempt"] = sp.Attempt
		}
		if sp.Flow != 0 {
			args["flow"] = strconv.FormatUint(sp.Flow, 10)
		}
		if sp.Err != "" {
			args["err"] = sp.Err
		}
		if sp.Note != "" {
			args["note"] = sp.Note
		}
		ev := Event{
			Name: sp.Name, Cat: sp.Kind, Ts: float64(sp.Start - base),
			Pid: pid, Tid: tid, Args: args,
		}
		if sp.Dur > 0 {
			ev.Ph = "X"
			ev.Dur = float64(sp.Dur)
		} else {
			ev.Ph = "i"
			ev.S = "t"
		}
		events = append(events, ev)
		if sp.Flow != 0 {
			flows[sp.Flow] = append(flows[sp.Flow], sp)
		}
	}

	// Flow arrows: each Flow tag's spans, in time order, become one chain of
	// s → t... → f events. A chain needs at least two spans to draw.
	flowIDs := make([]uint64, 0, len(flows))
	for id := range flows {
		if len(flows[id]) >= 2 {
			flowIDs = append(flowIDs, id)
		}
	}
	sort.Slice(flowIDs, func(i, j int) bool { return flowIDs[i] < flowIDs[j] })
	for _, id := range flowIDs {
		chain := flows[id]
		sort.Slice(chain, func(i, j int) bool {
			if chain[i].Start != chain[j].Start {
				return chain[i].Start < chain[j].Start
			}
			return chain[i].ID < chain[j].ID
		})
		fid := strconv.FormatUint(id, 10)
		for i, sp := range chain {
			ev := Event{
				Name: "lease-flow", Cat: flowCat, ID: fid,
				Pid: pidOf[sp.Proc], Tid: tidOf[lane{sp.Proc, kindLane(sp.Kind)}],
			}
			switch {
			case i == 0:
				ev.Ph = "s"
				ev.Ts = float64(sp.Start - base)
			case i == len(chain)-1:
				ev.Ph = "f"
				ev.BP = "e"
				ev.Ts = float64(sp.End() - base)
			default:
				ev.Ph = "t"
				ev.Ts = float64(sp.Start - base)
			}
			events = append(events, ev)
		}
	}

	return WriteEvents(w, events)
}

// kindLane maps a span kind to its thread lane name; unknown kinds share an
// "events" lane rather than spawning one lane each.
func kindLane(kind string) string {
	switch kind {
	case KindQueue, KindLease, KindStraggler, KindSteal, KindComplete,
		KindAttempt, KindRetry, KindCheckpoint, KindQuarantine, KindCacheHit:
		return kind
	default:
		return "events"
	}
}

// laneOrder fixes the top-to-bottom lane layout inside each process: the
// coordinator's decision lanes first, then the runner's execution lanes.
func laneOrder(kind string) int {
	switch kind {
	case KindQueue:
		return 0
	case KindLease:
		return 1
	case KindStraggler:
		return 2
	case KindSteal:
		return 3
	case KindComplete:
		return 4
	case KindAttempt:
		return 5
	case KindRetry:
		return 6
	case KindCheckpoint:
		return 7
	case KindCacheHit:
		return 8
	case KindQuarantine:
		return 9
	default:
		return 10
	}
}
