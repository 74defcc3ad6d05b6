package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/coherence"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The traced run's layer replays: each drives one layer through its public
// functions with the workload's own recorded op streams, and yields the
// layer's host cost per operation. The cost model multiplies it by the
// run's deterministic operation counts; sim.explained_frac is how much of
// the simulations' host time that, plus the generator's in-situ time,
// accounts for.

// replayOpCap bounds the ops one replay feeds a layer.
const replayOpCap = 300_000

// replayMin is the least host time a layer's cost is measured over.
const replayMin = 30 * time.Millisecond

// explainedFloor is the share of run time below which the suite is missing
// a layer.
const explainedFloor = 0.85

// costs are host nanoseconds per layer operation.
type costs struct {
	dir, cache, overflow, mhb, net, event float64
}

// counts are the deterministic operation counts of a set of simulations.
type counts struct {
	dirReads, dirWrites, violations   uint64
	memOps                            uint64
	spills, retrievals                uint64
	mhbAppends, mhbRestored           uint64
	writebacks, rejected              uint64
	messages, bankQueue, ifQueue      uint64
	events                            uint64
	commits, squashEvents, squashed   uint64
	oracleChecks, exec                uint64
	windows, stalls, pfHits, pfMisses uint64
}

func (c *counts) add(r sim.Result) {
	c.dirReads += r.DirReads
	c.dirWrites += r.DirWrites
	c.violations += r.Violations
	c.spills += r.OverflowSpills
	c.retrievals += r.OverflowRetrievals
	c.mhbAppends += r.MHBAppends
	c.mhbRestored += r.MHBRestored
	c.writebacks += r.MemWritebacks
	c.rejected += r.MemRejected
	c.bankQueue += uint64(r.BankQueueCycles)
	c.ifQueue += uint64(r.IfQueueCycles)
	c.events += r.Events
	c.commits += uint64(r.Commits)
	c.squashEvents += uint64(r.SquashEvents)
	c.squashed += uint64(r.TasksSquashed)
	c.oracleChecks += uint64(r.OracleChecks)
	c.exec += uint64(r.ExecCycles)
}

func (c *counts) addParallel(st sim.ParallelStats) {
	c.windows += st.Windows
	c.stalls += st.StallWindows
	c.pfHits += st.PrefetchHits
	c.pfMisses += st.PrefetchMisses
}

// estimates are per-layer host seconds: ns/op times the op counts.
type estimates struct {
	dir, cache, overflow, mhb, net, event float64
}

func estimate(c counts, k costs) estimates {
	s := func(ns float64, n uint64) float64 { return ns * float64(n) / 1e9 }
	return estimates{
		dir:      s(k.dir, c.dirReads+c.dirWrites),
		cache:    s(k.cache, c.memOps),
		overflow: s(k.overflow, c.spills+c.retrievals),
		mhb:      s(k.mhb, c.mhbAppends+c.mhbRestored),
		net:      s(k.net, c.messages),
		event:    s(k.event, c.events),
	}
}

func (e *estimates) add(o estimates) {
	e.dir += o.dir
	e.cache += o.cache
	e.overflow += o.overflow
	e.mhb += o.mhb
	e.net += o.net
	e.event += o.event
}

func (e estimates) total() float64 {
	return e.dir + e.cache + e.overflow + e.mhb + e.net + e.event
}

// replayStreams returns the leading task streams of w, about replayOpCap
// ops in all.
func replayStreams(w sim.Workload) [][]workload.Op {
	var out [][]workload.Op
	for i, n := 0, 0; i < w.NumTasks() && n < replayOpCap; i++ {
		ops, _ := w.Task(i, nil)
		out = append(out, ops)
		n += len(ops)
	}
	return out
}

// measure repeats a replay until it has run for replayMin and returns
// ns/op. Each replay builds its own state and times only the layer calls.
func measure(replay func() (ops int, d time.Duration)) float64 {
	var ops int
	var d time.Duration
	for d < replayMin {
		n, e := replay()
		if n == 0 {
			return 0
		}
		ops += n
		d += e
	}
	return float64(d.Nanoseconds()) / float64(ops)
}

// replayCosts measures every layer on the streams, on machine cfg; sharded
// selects the parallel core's event queue.
func replayCosts(streams [][]workload.Op, cfg *machine.Config, sharded bool) costs {
	written := writtenLines(streams)
	return costs{
		dir:      measure(func() (int, time.Duration) { return replayDirectory(streams, cfg.Procs) }),
		cache:    measure(func() (int, time.Duration) { return replayCache(streams, cfg) }),
		overflow: measure(func() (int, time.Duration) { return replayOverflow(written, cfg.Procs) }),
		mhb:      measure(func() (int, time.Duration) { return replayMHB(written, cfg.Procs) }),
		net:      measure(func() (int, time.Duration) { return replayNetwork(streams, cfg) }),
		event:    measure(func() (int, time.Duration) { return replayEvents(streams, cfg, sharded) }),
	}
}

// replayDirectory records every read and write of the streams in task
// order, with at most window tasks uncommitted.
func replayDirectory(streams [][]workload.Op, window int) (int, time.Duration) {
	d := coherence.NewDirectory()
	n, next := 0, 1
	start := time.Now()
	for i, ops := range streams {
		id := ids.TaskID(i + 1)
		for _, op := range ops {
			switch op.Kind {
			case workload.OpRead:
				d.RecordRead(op.Addr, id)
				n++
			case workload.OpWrite:
				d.RecordWrite(op.Addr, id)
				n++
			}
		}
		for i+2-next > window {
			d.Commit(ids.TaskID(next))
			next++
		}
	}
	for ; next <= len(streams); next++ {
		d.Commit(ids.TaskID(next))
	}
	return n, time.Since(start)
}

// replayCache probes each memory op in the L1 and L2 of the processor the
// task runs on, filling both on a miss.
func replayCache(streams [][]workload.Op, cfg *machine.Config) (int, time.Duration) {
	l1 := make([]*memsys.Cache, cfg.Procs)
	l2 := make([]*memsys.Cache, cfg.Procs)
	for p := range l1 {
		l1[p], l2[p] = memsys.NewCache(cfg.L1), memsys.NewCache(cfg.L2)
	}
	n := 0
	start := time.Now()
	for i, ops := range streams {
		p := i % cfg.Procs
		for _, op := range ops {
			if op.Kind == workload.OpCompute {
				continue
			}
			producer, kind := ids.None, memsys.KindCopy
			if op.Kind == workload.OpWrite {
				producer, kind = ids.TaskID(i+1), memsys.KindOwnVersion
			}
			line := op.Addr.Line()
			n++
			if _, ok := l1[p].Probe(line, producer); ok {
				continue
			}
			if _, ok := l2[p].Probe(line, producer); !ok {
				l2[p].Insert(line, producer, kind)
			}
			l1[p].Insert(line, producer, kind)
		}
	}
	return n, time.Since(start)
}

// written is one task's distinct written lines, in first-write order, with
// their word masks and the previous task that wrote each line.
type written struct {
	lines []memsys.LineAddr
	masks []memsys.WordMask
	prev  []ids.TaskID
}

func writtenLines(streams [][]workload.Op) []written {
	last := make(map[memsys.LineAddr]ids.TaskID)
	out := make([]written, len(streams))
	for i, ops := range streams {
		id := ids.TaskID(i + 1)
		at := make(map[memsys.LineAddr]int)
		w := &out[i]
		for _, op := range ops {
			if op.Kind != workload.OpWrite {
				continue
			}
			line := op.Addr.Line()
			j, ok := at[line]
			if !ok {
				j = len(w.lines)
				at[line] = j
				w.lines = append(w.lines, line)
				w.masks = append(w.masks, 0)
				w.prev = append(w.prev, last[line])
				last[line] = id
			}
			w.masks[j] = w.masks[j].Set(op.Addr.Offset())
		}
	}
	return out
}

// replayOverflow spills every written line of a task, retrieves each, and
// drains the task when it leaves the window.
func replayOverflow(tasks []written, window int) (int, time.Duration) {
	o := memsys.NewOverflow()
	n := 0
	start := time.Now()
	for i, w := range tasks {
		id := ids.TaskID(i + 1)
		for j, line := range w.lines {
			o.Spill(line, id, w.masks[j])
		}
		for _, line := range w.lines {
			o.Retrieve(line, id)
		}
		n += 2 * len(w.lines)
		if i+1 > window {
			o.DrainTask(ids.TaskID(i+1-window), func(memsys.LineAddr, memsys.WordMask) {})
		}
	}
	return n, time.Since(start)
}

// replayMHB logs every line a task overwrites in its processor's undo log
// and releases the log as tasks leave the window.
func replayMHB(tasks []written, window int) (int, time.Duration) {
	logs := make([]*memsys.MHB, window)
	for p := range logs {
		logs[p] = memsys.NewMHB()
	}
	n := 0
	start := time.Now()
	for i, w := range tasks {
		id := ids.TaskID(i + 1)
		m := logs[i%window]
		for j, line := range w.lines {
			m.Append(line, w.prev[j], id)
		}
		n += len(w.lines)
		if i+1 > window {
			m.ReleaseCommitted(ids.TaskID(i + 1 - window))
		}
	}
	return n, time.Since(start)
}

// replayNetwork sends one transfer per memory op from the task's node to
// the line's bank, advancing the node's clock by the compute between.
func replayNetwork(streams [][]workload.Op, cfg *machine.Config) (int, time.Duration) {
	net := cfg.NewNetwork()
	now := make([]event.Time, cfg.Procs)
	n := 0
	start := time.Now()
	for i, ops := range streams {
		p := i % cfg.Procs
		for _, op := range ops {
			if op.Kind == workload.OpCompute {
				now[p] += event.Time(op.Instr)
				continue
			}
			now[p] = net.Transfer(ids.ProcID(p), uint64(op.Addr.Line()), now[p], cfg.LatMemLocal)
			n++
		}
	}
	return n, time.Since(start)
}

// replayEvents runs one continuation per processor that steps through its
// tasks' ops, one event per op, on the serial queue or (sharded) on the
// parallel core's lanes in lookahead windows.
func replayEvents(streams [][]workload.Op, cfg *machine.Config, sharded bool) (int, time.Duration) {
	lists := make([][]workload.Op, cfg.Procs)
	for i, ops := range streams {
		lists[i%cfg.Procs] = append(lists[i%cfg.Procs], ops...)
	}
	var q event.Queue
	sq := event.NewSharded(cfg.Procs)
	at := func(p int, when event.Time, fn func(event.Time)) {
		if sharded {
			sq.At(p, when, fn)
		} else {
			q.At(when, fn)
		}
	}
	for p := range lists {
		p, pc := p, 0
		var step func(now event.Time)
		step = func(now event.Time) {
			if pc >= len(lists[p]) {
				return
			}
			op := lists[p][pc]
			pc++
			dt := event.Time(1)
			if op.Kind == workload.OpCompute {
				dt += event.Time(op.Instr)
			}
			at(p, now+dt, step)
		}
		at(p, 0, step)
	}
	start := time.Now()
	var fired uint64
	if sharded {
		window := cfg.Lookahead()
		for {
			head, ok := sq.MinFrontier()
			if !ok {
				break
			}
			fired += sq.RunWindow(head+window, 1<<62)
		}
	} else {
		fired = q.Run(1 << 62)
	}
	return int(fired), time.Since(start)
}

// allocPerCall is the heap bytes one Task call of w allocates, over one
// call per task (reusing the stream buffer as the serial core does, or not,
// as the prefetcher does).
func allocPerCall(w sim.Workload, reuse bool) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var buf []workload.Op
	for i := 0; i < w.NumTasks(); i++ {
		ops, _ := w.Task(i, buf)
		if reuse {
			buf = ops[:0]
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(w.NumTasks())
}

// rtStats is a snapshot of the Go runtime's cumulative costs.
type rtStats struct {
	allocMB, gcCPUs, gcCycles float64
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	gc := 0.0
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return rtStats{allocMB: float64(ms.TotalAlloc) / (1 << 20), gcCPUs: gc, gcCycles: float64(ms.NumGC)}
}

func (s rtStats) since(before rtStats) rtStats {
	return rtStats{s.allocMB - before.allocMB, s.gcCPUs - before.gcCPUs, s.gcCycles - before.gcCycles}
}
