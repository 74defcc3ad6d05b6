package sim

import (
	"sort"

	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
)

// TraceKind labels one execution-trace event.
type TraceKind uint8

const (
	// TraceStart — a task began (or re-began) executing.
	TraceStart TraceKind = iota
	// TraceFinish — a task finished executing (still speculative).
	TraceFinish
	// TraceCommitStart — the commit token reached the task.
	TraceCommitStart
	// TraceCommitEnd — the task's state finished merging; the token moves on.
	TraceCommitEnd
	// TraceSquash — the task was squashed and will re-execute.
	TraceSquash
)

func (k TraceKind) String() string {
	switch k {
	case TraceStart:
		return "start"
	case TraceFinish:
		return "finish"
	case TraceCommitStart:
		return "commit-start"
	case TraceCommitEnd:
		return "commit-end"
	case TraceSquash:
		return "squash"
	default:
		return "trace(?)"
	}
}

// TraceEvent is one timeline record. The execution and commit wavefronts of
// Figures 5 and 6 are renderings of these events.
//
// TraceSquash events additionally carry their cause — the out-of-order RAW
// that triggered the squash — so dependence chains are attributable: Word is
// the violated word, Writer the task whose write exposed the violation, and
// Wasted the execution cycles this victim discards (zero for a victim that
// was already sitting squashed in the redo queue). The cause fields are zero
// on every other kind.
type TraceEvent struct {
	When event.Time
	Kind TraceKind
	Task ids.TaskID
	Proc ids.ProcID

	Word   memsys.Addr
	Writer ids.TaskID
	Wasted event.Time
}

// Distance returns the task distance of a squash's RAW (reader − writer),
// 0 for non-squash events.
func (e TraceEvent) Distance() int {
	if e.Kind != TraceSquash || e.Writer == ids.None {
		return 0
	}
	return int(e.Task) - int(e.Writer)
}

// EnableTrace turns on timeline recording; call before Run.
func (s *Simulator) EnableTrace() { s.tracing = true }

// FlightEntry is one record of the simulator's always-on flight recorder: a
// fixed ring of the last flightRingSize trace events, recorded whether or
// not full tracing is enabled. When a run hangs or violates an invariant,
// the ring is the post-mortem — what the simulator was doing right before it
// died — dumped into .progress.json reports and quarantine manifests.
//
// Recording is a value write into a preallocated array (no allocation, no
// locking — the event loop is single-goroutine even in parallel mode, whose
// workers only generate workload streams), and it never feeds back into
// simulation state, preserving the no-observer-effect guarantee.
type FlightEntry struct {
	When event.Time `json:"when"`
	Kind string     `json:"kind"`
	Task ids.TaskID `json:"task"`
	Proc ids.ProcID `json:"proc"`
}

// flightRingSize is the sim flight recorder depth: the last few scheduling
// rounds' worth of events, enough to see the pattern a hang froze in.
const flightRingSize = 64

func (s *Simulator) flightRecord(when event.Time, kind TraceKind, t *task) {
	s.flight[s.flightNext] = FlightEntry{When: when, Kind: kind.String(), Task: t.id, Proc: t.proc}
	s.flightNext = (s.flightNext + 1) % flightRingSize
	s.flightSeen++
}

// FlightRecorder returns the flight recorder's contents, oldest first.
func (s *Simulator) FlightRecorder() []FlightEntry {
	n := uint64(flightRingSize)
	if s.flightSeen < n {
		out := make([]FlightEntry, s.flightSeen)
		copy(out, s.flight[:s.flightSeen])
		return out
	}
	out := make([]FlightEntry, 0, flightRingSize)
	out = append(out, s.flight[s.flightNext:]...)
	out = append(out, s.flight[:s.flightNext]...)
	return out
}

func (s *Simulator) trace(when event.Time, kind TraceKind, t *task) {
	s.flightRecord(when, kind, t)
	if !s.tracing {
		return
	}
	s.traceLog = append(s.traceLog, TraceEvent{When: when, Kind: kind, Task: t.id, Proc: t.proc})
}

// traceSquash records a squash with its cause attribution.
func (s *Simulator) traceSquash(when event.Time, t *task, word memsys.Addr, writer ids.TaskID, wasted event.Time) {
	s.flightRecord(when, TraceSquash, t)
	if !s.tracing {
		return
	}
	s.traceLog = append(s.traceLog, TraceEvent{
		When: when, Kind: TraceSquash, Task: t.id, Proc: t.proc,
		Word: word, Writer: writer, Wasted: wasted,
	})
}

// SquashHotspot aggregates every squash a single word caused: the per-word
// row of the "which dependence chains squash this application" table.
type SquashHotspot struct {
	Word         memsys.Addr
	Squashes     int        // victim squashes attributed to the word
	WastedCycles event.Time // total discarded execution cycles
	MaxDistance  int        // largest reader−writer task distance observed
	// SampleWriter/SampleReader name one offending pair (the first seen),
	// anchoring the hotspot to concrete tasks.
	SampleWriter ids.TaskID
	SampleReader ids.TaskID
}

// SquashHotspots aggregates a trace's squash events into per-word hotspots,
// sorted by wasted cycles descending (ties: more squashes first, then lower
// word address — a total, deterministic order).
func SquashHotspots(trace []TraceEvent) []SquashHotspot {
	byWord := map[memsys.Addr]*SquashHotspot{}
	var order []memsys.Addr
	for _, e := range trace {
		if e.Kind != TraceSquash {
			continue
		}
		h, ok := byWord[e.Word]
		if !ok {
			h = &SquashHotspot{Word: e.Word, SampleWriter: e.Writer, SampleReader: e.Task}
			byWord[e.Word] = h
			order = append(order, e.Word)
		}
		h.Squashes++
		h.WastedCycles += e.Wasted
		if d := e.Distance(); d > h.MaxDistance {
			h.MaxDistance = d
		}
	}
	out := make([]SquashHotspot, 0, len(order))
	for _, w := range order {
		out = append(out, *byWord[w])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WastedCycles != out[j].WastedCycles {
			return out[i].WastedCycles > out[j].WastedCycles
		}
		if out[i].Squashes != out[j].Squashes {
			return out[i].Squashes > out[j].Squashes
		}
		return out[i].Word < out[j].Word
	})
	return out
}
