package sim

import (
	"fmt"
	"sync/atomic"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/interconnect"
	"repro/internal/machine"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/workload"
)

// quantum bounds how far a processor's local time may run ahead of the
// global event queue within one continuation; cross-processor interleaving
// skew is bounded by this many cycles.
const quantum = 256

// eventLimit is a runaway backstop: a run firing more events than this is
// assumed deadlocked or livelocked and panics with diagnostics.
const eventLimit = 500_000_000

// Workload supplies the tasks of a speculative section. The standard
// implementation is workload.Generator (the synthetic application models);
// workload.Trace lets a caller supply explicit per-task operation streams.
// Task must be deterministic: a squashed task re-executes the identical
// stream.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// NumTasks returns the section length.
	NumTasks() int
	// TasksPerInvocation returns the dispatch-barrier granularity
	// (0 = a single invocation).
	TasksPerInvocation() int
	// Task returns task index's operation stream (appending into buf) and
	// its total instruction count.
	Task(index int, buf []workload.Op) (ops []workload.Op, instr int)
}

// OrderOracle is optionally implemented by workloads that can state which
// producer a cross-task read must observe under sequential semantics; the
// simulator then verifies every committed communication-region read
// against it.
type OrderOracle interface {
	SequentialOrderOracle(addr memsys.Addr, index int) int
}

// Simulator runs one speculative section on one machine under one scheme.
type Simulator struct {
	cfg    *machine.Config
	scheme core.Scheme
	gen    Workload

	q event.Queue

	// Parallel mode (see parallel.go): parN is the prefetch worker count
	// (0 = serial); pf, which Run creates and closes, pregenerates workload
	// streams on those workers and keeps its counters for ParallelStats.
	pf   *prefetcher
	parN int

	dir   *coherence.Directory
	mem   *memsys.Memory
	net   *interconnect.Network
	order *ids.CommitOrder
	procs []*processor

	// l3 models the CMP's shared 16-MB L3 as a touched-lines filter: lines
	// seen before are served at L3 latency instead of memory latency.
	l3 map[memsys.LineAddr]bool

	tasks    map[ids.TaskID]*task
	taskProc []ids.ProcID // index -> processor that owns/owned the task
	next     int          // next workload index to dispatch
	total    int

	committing   *task
	commitDone   func(done event.Time)
	commitHandle event.Handle // pending commit-done occurrence, for checkpoints
	tokenFreeAt  event.Time
	lastCommitBy ids.ProcID
	waiters      map[ids.TaskID][]*processor

	done    bool
	endTime event.Time

	// Checkpoint/interrupt plumbing (see checkpoint.go). started guards
	// against double Run and marks a restored simulator; halted is set when
	// an Interrupt stopped the run at a commit boundary.
	started   bool
	halted    bool
	interrupt atomic.Bool
	ckptEvery int
	ckptSink  func(*Checkpoint)

	// Verification: committed communication reads checked against the
	// sequential-order oracle.
	oracleChecks     int
	oracleViolations int

	// Statistics.
	liveSpec      int
	specSampler   stats.Sampler
	execPerTask   stats.Mean
	commitPerTask stats.Mean
	footBytes     stats.Mean
	footPrivFrac  stats.Mean
	squashEvents  int
	tasksSquashed int
	commits       int

	// obs, when non-nil, is the observability layer (see observe.go): pure
	// reads of simulation state, never on the timing path.
	obs *simObs

	tracing         bool
	traceLog        []TraceEvent
	flight          [flightRingSize]FlightEntry
	flightNext      int
	flightSeen      uint64
	lineGranularity bool
	orbCommit       bool
	forceMTID       bool

	// coarseViolated records that the end-of-section dependence test of a
	// coarse-recovery scheme will fail.
	coarseViolated bool
	vclMerges      uint64
	fmmWritebacks  uint64

	// inject, when non-nil, perturbs the run at the fault hook points; inv,
	// when non-nil, validates the protocol invariants at every commit,
	// squash, and merge event. Both default to off and cost nothing then.
	inject FaultInjector
	inv    *invariantChecker

	// Reused hot-path scratch: per-processor squash victim lists and the
	// stale-version buffer of the VCL merge.
	squashScratch [][]*task
	vclStale      []ids.TaskID
}

// New builds a simulator. It panics on an invalid scheme: callers pass
// compile-time scheme constants.
func New(cfg *machine.Config, scheme core.Scheme, gen Workload) *Simulator {
	if !scheme.Valid() || !scheme.Interesting() {
		panic(fmt.Sprintf("sim: scheme %v is not modelled", scheme))
	}
	s := &Simulator{
		cfg:          cfg,
		scheme:       scheme,
		gen:          gen,
		dir:          coherence.NewDirectory(),
		mem:          memsys.NewMemory(scheme.MemoryNeedsMTID()),
		net:          cfg.NewNetwork(),
		total:        gen.NumTasks(),
		tasks:        make(map[ids.TaskID]*task),
		taskProc:     make([]ids.ProcID, gen.NumTasks()),
		waiters:      make(map[ids.TaskID][]*processor),
		lastCommitBy: ids.NoProc,
	}
	s.order = ids.NewCommitOrder(ids.TaskID(s.total))
	if cfg.Kind == machine.CMP {
		s.l3 = make(map[memsys.LineAddr]bool)
	}
	for i := 0; i < cfg.Procs; i++ {
		p := &processor{
			id:  ids.ProcID(i),
			l1:  memsys.NewCache(cfg.L1),
			l2:  memsys.NewCache(cfg.L2),
			ovf: memsys.NewOverflow(),
			mhb: memsys.NewMHB(),
		}
		// One continuation closure per processor for the whole run: schedule
		// is the hottest event producer and must not allocate per event.
		p.cont = func(now event.Time) {
			p.scheduled = false
			s.step(p, now)
		}
		s.procs = append(s.procs, p)
	}
	s.squashScratch = make([][]*task, cfg.Procs)
	return s
}

// schedule queues a continuation for p at time at (no-op when one is
// already pending).
func (s *Simulator) schedule(p *processor, at event.Time) {
	if p.scheduled || s.done {
		return
	}
	p.scheduled = true
	p.contHandle = s.q.At(at, p.cont)
}

// Run executes the section to completion and returns the results. On a
// simulator primed by Restore it continues from the checkpoint instead of
// starting fresh. When an Interrupt halts the run, Run returns a zero
// Result; check Halted().
func (s *Simulator) Run() Result {
	if !s.started {
		s.started = true
		s.specSampler.Observe(0, 0)
		for _, p := range s.procs {
			s.schedule(p, 0)
		}
	}
	if s.startPrefetch() {
		defer s.pf.close()
	}
	// Run(limit) with limit > 0 is a budget: a return value equal to the
	// limit means the budget was exhausted, not that the queue drained.
	fired := s.q.Run(eventLimit)
	if s.halted {
		return Result{}
	}
	if !s.done {
		reason := "deadlocked"
		if fired >= eventLimit {
			reason = "hit the event limit (livelock?)"
		}
		panic(fmt.Sprintf("sim: %s/%v/%s %s: %d tasks committed of %d, %d events fired",
			s.cfg.Name, s.scheme, s.gen.Name(), reason, s.commits, s.total, s.q.Fired()))
	}
	return s.collect()
}

// step runs processor p from time now for up to one quantum.
func (s *Simulator) step(p *processor, now event.Time) {
	if s.done {
		return // breakdowns were closed at endTime by finishSection
	}
	if now < p.blockedUntil {
		p.wait = waitRecovery
		s.schedule(p, p.blockedUntil)
		return
	}
	s.obs.poll(now)
	p.account(now)
	p.wait = waitNone
	deadline := p.lastTime + quantum

	for p.lastTime < deadline {
		if p.cur == nil || p.cur.state != taskRunning {
			if !s.nextTask(p) {
				return // stalled or idle; wait kind already set
			}
		}
		t := p.cur
		if t.pc >= len(t.ops) {
			s.finishTask(p, t)
			continue
		}
		op := t.ops[t.pc]
		switch op.Kind {
		case workload.OpCompute:
			p.spend(s.cycles(op.Instr), &p.bd.Busy)
			t.pc++
		case workload.OpRead:
			dt := s.read(p, t, op.Addr)
			s.chargeMemory(p, dt)
			t.pc++
		case workload.OpWrite:
			dt, stalled := s.write(p, t, op.Addr)
			if stalled {
				p.wait = waitVersion
				return // op not consumed; retried after wake
			}
			s.chargeMemory(p, dt)
			t.pc++
			if s.inject != nil {
				s.maybeFlipTag(p)
			}
		}
		if s.done {
			return
		}
		// The current task may have been squashed by a violation triggered
		// by its own write's consequences elsewhere; loop re-checks state.
	}
	s.schedule(p, p.lastTime)
}

// cycles converts an instruction count to core cycles.
func (s *Simulator) cycles(instr int) event.Time {
	return event.Time(float64(instr)*s.cfg.CPI + 0.5)
}

// chargeMemory attributes a memory access: a 4-issue dynamic superscalar
// with 8 pending loads overlaps latency up to about an L2 hit with useful
// work (counted busy); the remainder is memory stall.
func (s *Simulator) chargeMemory(p *processor, dt event.Time) {
	hidden := s.cfg.LatL2
	if dt < hidden {
		hidden = dt
	}
	p.spend(hidden, &p.bd.Busy)
	p.spend(dt-hidden, &p.bd.StallMem)
}

// nextTask gives p something to run: a squashed local task first, then — if
// the separation policy allows — a new task from the dispatcher. It returns
// false if p must wait (wait kind set).
func (s *Simulator) nextTask(p *processor) bool {
	if rt := p.popRedo(); rt != nil {
		s.startTask(p, rt, true)
		return true
	}
	if !s.scheme.MultipleTasksPerProc() && len(p.local) > 0 {
		// SingleT: the previous task must commit before a new one starts.
		p.wait = waitToken
		return false
	}
	if s.next >= s.total {
		p.wait = waitIdle
		return false
	}
	// Speculation does not cross invocation boundaries: a task of the next
	// loop invocation cannot start until the current invocation has fully
	// committed (the barrier between non-analyzable sections).
	if inv := s.gen.TasksPerInvocation(); inv > 0 {
		headIdx := int(s.order.Head()) - 1
		if s.next/inv > headIdx/inv {
			p.wait = waitIdle
			return false
		}
	}
	idx := s.next
	s.next++
	if s.pf != nil {
		s.pf.aim(s.next)
	}
	t := &task{id: ids.TaskID(idx + 1), index: idx, proc: p.id}
	s.taskProc[idx] = p.id
	s.tasks[t.id] = t
	p.local = append(p.local, t)
	s.liveSpec++
	s.specSampler.Observe(p.lastTime, s.liveSpec)
	s.startTask(p, t, false)
	return true
}

// startTask (re)generates the task's operation stream and begins running
// it, charging the dynamic scheduling overhead.
func (s *Simulator) startTask(p *processor, t *task, redo bool) {
	t.reset()
	if s.pf != nil {
		// Parallel mode: the stream was pregenerated by a prefetch worker (or
		// is computed inline on a miss). Per-processor buffer reuse is off —
		// the streams live in worker-owned allocations.
		t.ops = s.pf.take(t.index)
	} else {
		t.ops, _ = s.gen.Task(t.index, p.opBuf)
		p.opBuf = t.ops[:0]
	}
	t.startedAt = p.lastTime
	p.cur = t
	if !redo {
		p.spend(s.cfg.DispatchOverhead, &p.bd.Busy)
	}
	s.trace(t.startedAt, TraceStart, t)
	s.obs.taskStarted()
}

// finishTask marks t finished and tries to commit.
func (s *Simulator) finishTask(p *processor, t *task) {
	t.state = taskFinished
	t.finishedAt = p.lastTime
	s.execPerTask.Observe(float64(t.finishedAt - t.startedAt))
	t.ops = nil
	p.cur = nil
	s.trace(t.finishedAt, TraceFinish, t)
	s.obs.taskFinished(t.finishedAt - t.startedAt)
	s.maybeCommit(p.lastTime)
}

// wake reschedules a stalled processor at time at.
func (s *Simulator) wake(p *processor, at event.Time) {
	s.schedule(p, at)
}
