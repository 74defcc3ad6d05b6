package main

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/memsys"
	"repro/internal/obs/trace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// taskTimer is the traced run's transparent sim.Workload wrapper: it times
// every Task call in place and counts the calls and the ops they return.
// The prefetcher calls Task from worker goroutines, so every counter is
// atomic and the tracer is safe for concurrent use.
type taskTimer struct {
	sim.Workload

	calls  atomic.Int64
	ops    atomic.Int64
	memOps atomic.Int64
	busyNs atomic.Int64

	tr *trace.Tracer
	// parent is the span ID of the Simulator.Run that issues the calls.
	parent atomic.Uint64
}

// Task forwards to the wrapped workload and accounts for the call.
func (t *taskTimer) Task(index int, buf []workload.Op) ([]workload.Op, int) {
	start := time.Now()
	ops, instr := t.Workload.Task(index, buf)
	d := time.Since(start)
	t.calls.Add(1)
	t.ops.Add(int64(len(ops)))
	t.busyNs.Add(int64(d))
	mem := 0
	for _, op := range ops {
		if op.Kind != workload.OpCompute {
			mem++
		}
	}
	t.memOps.Add(int64(mem))
	if t.tr != nil {
		t.tr.Emit(trace.Span{
			Name: "Workload.Task", Kind: "task", Parent: t.parent.Load(),
			Start: start.UnixMicro(), Dur: d.Microseconds(), Note: "index " + strconv.Itoa(index),
		})
	}
	return ops, instr
}

// wrapWorkload returns w behind a taskTimer. The simulator switches on the
// order oracle only when its workload implements sim.OrderOracle, and on the
// prefetcher only when it implements sim.ConcurrentWorkload, so the wrapper
// has exactly the optional methods w has and forwards them.
func wrapWorkload(w sim.Workload, tr *trace.Tracer) (sim.Workload, *taskTimer) {
	t := &taskTimer{Workload: w, tr: tr}
	oracle, hasOracle := w.(sim.OrderOracle)
	conc, hasConc := w.(sim.ConcurrentWorkload)
	switch {
	case hasOracle && hasConc:
		return struct {
			*taskTimer
			sim.OrderOracle
			sim.ConcurrentWorkload
		}{t, oracle, conc}, t
	case hasOracle:
		return struct {
			*taskTimer
			sim.OrderOracle
		}{t, oracle}, t
	case hasConc:
		return struct {
			*taskTimer
			sim.ConcurrentWorkload
		}{t, conc}, t
	default:
		return t, t
	}
}

// replayWorkload is euler-replay's input: a pre-recorded workload.Trace
// with the generator's sequential-order oracle still attached, so the
// simulator verifies committed reads exactly as on the generator-fed run.
type replayWorkload struct {
	*workload.Trace
	oracle *workload.Generator
}

// SequentialOrderOracle forwards to the generator the trace was recorded
// from.
func (r replayWorkload) SequentialOrderOracle(addr memsys.Addr, index int) int {
	return r.oracle.SequentialOrderOracle(addr, index)
}

// record generates every task stream of g once, as the replay's input.
func record(g *workload.Generator) replayWorkload {
	tasks := make([][]workload.Op, g.NumTasks())
	for i := range tasks {
		tasks[i], _ = g.Task(i, nil)
	}
	return replayWorkload{Trace: workload.NewTrace(g.Name(), tasks, g.TasksPerInvocation()), oracle: g}
}
