package sim

import (
	"repro/internal/event"
	"repro/internal/ids"
	"repro/internal/memsys"
)

// maybeCommit starts the commit of the token-holder task if it has finished
// executing and no commit is in flight. Commits are strictly serialized:
// that serialization is the commit wavefront of Figure 6.
func (s *Simulator) maybeCommit(now event.Time) {
	if s.committing != nil || s.done {
		return
	}
	head := s.order.Head()
	t := s.tasks[head]
	if t == nil || t.state != taskFinished {
		return
	}
	p := s.procs[t.proc]

	start := now
	if s.tokenFreeAt > start {
		start = s.tokenFreeAt
	}
	if s.lastCommitBy != t.proc {
		start += s.cfg.TokenPass
	}
	dur := s.commitDuration(p, t)
	t.commitStart = start
	s.committing = t
	s.trace(start, TraceCommitStart, t)

	if s.commitDone == nil {
		// One closure for every commit of the run: commits are serialized, so
		// the committing task is always s.committing when the event fires.
		s.commitDone = func(done event.Time) { s.finishCommit(s.committing, done) }
	}
	s.commitHandle = s.q.At(start+dur, s.commitDone)
}

// commitDuration is the time the task holds the commit token.
//
//   - Eager AMM writes back every dirty line of the task — cached lines at
//     the pipelined per-line cost, overflowed lines with an overflow-area
//     retrieval each ("an overflow area is slow when asked to return
//     versions, which especially hurts when committing a task").
//   - Lazy AMM only passes the token — except for overflowed speculative
//     lines, which cannot linger (the overflow area holds speculative state
//     only) and must merge now.
//   - FMM just commits: the versions already live in the future memory
//     image.
func (s *Simulator) commitDuration(p *processor, t *task) event.Time {
	dur := s.cfg.CommitFixed
	ovf := p.ovf.TaskCount(t.id)
	// Overflow-area retrievals do not pipeline: the area is a sequentially
	// accessed region of local memory, "slow when asked to return versions,
	// which especially hurts when committing a task".
	ovfLine := s.cfg.LatOverflow + s.cfg.CommitPerLine
	switch {
	case s.scheme.MergesAtCommit():
		cached := p.l2.CountWhere(func(l *memsys.Line) bool {
			return l.Producer == t.id && l.Kind == memsys.KindOwnVersion
		})
		perLine := s.cfg.CommitPerLine
		if s.orbCommit {
			// ORB-style merge: ownership requests instead of write-backs.
			perLine = s.cfg.ORBPerLine
		}
		dur += event.Time(cached) * perLine
		dur += event.Time(ovf) * ovfLine
	case s.scheme.KeepsCommittedVersionsInCache():
		dur += event.Time(ovf) * ovfLine
	default: // FMM
	}
	if s.inject != nil {
		dur += s.inject.CommitStall()
	}
	return dur
}

// finishCommit completes the commit of t: merges or re-labels its versions,
// finalizes statistics, advances the token, and wakes whoever was waiting.
func (s *Simulator) finishCommit(t *task, now event.Time) {
	p := s.procs[t.proc]
	s.checkCommitStart(t, now)
	s.tokenFreeAt = now
	s.lastCommitBy = t.proc
	s.commitPerTask.Observe(float64(now - t.commitStart))
	s.trace(now, TraceCommitEnd, t)
	s.obs.commitDone(now - t.commitStart)
	s.obs.poll(now)

	if !s.scheme.MultipleTasksPerProc() {
		// The SingleT processor performed the merge itself: the wait until
		// the token arrived is task stall (already the processor's wait
		// kind); the merge itself is commit work.
		p.account(t.commitStart)
		p.wait = waitCommit
	}

	// Dispose of the task's versions according to the merging policy. An
	// overflowed version merged at commit goes through the VCL when
	// committed versions may linger in caches (Lazy, ORB): the merge must
	// also invalidate the now-superseded older committed versions, or a
	// later displacement of one of them would overwrite memory backwards.
	switch {
	case s.scheme.MergesAtCommit():
		p.l2.ForEach(func(l *memsys.Line) {
			if l.Producer == t.id && l.Kind == memsys.KindOwnVersion {
				if s.orbCommit {
					// Ownership acquired; the data merges on displacement.
					l.Kind = memsys.KindCommitted
				} else {
					s.memWriteBack(l.Tag, t.id, now)
					l.Kind = memsys.KindCopy // now a clean copy of architectural data
				}
			}
		})
		p.ovf.DrainTask(t.id, func(line memsys.LineAddr, _ memsys.WordMask) {
			if s.orbCommit {
				s.vclWriteBack(p, line, t.id)
			} else {
				s.memWriteBack(line, t.id, now)
			}
		})
	case s.scheme.KeepsCommittedVersionsInCache():
		p.l2.ForEach(func(l *memsys.Line) {
			if l.Producer == t.id && l.Kind == memsys.KindOwnVersion {
				l.Kind = memsys.KindCommitted
			}
		})
		p.ovf.DrainTask(t.id, func(line memsys.LineAddr, _ memsys.WordMask) {
			if s.forceMTID {
				s.memWriteBack(line, t.id, now)
			} else {
				s.vclWriteBack(p, line, t.id)
			}
		})
	default: // FMM
		p.l2.ForEach(func(l *memsys.Line) {
			if l.Producer == t.id && l.Kind == memsys.KindOwnVersion {
				l.Kind = memsys.KindCommitted
			}
		})
		p.mhb.ReleaseCommitted(t.id)
	}
	// Cleared only after the merges: checkWriteBack treats the committing
	// task's own write-backs as legitimate.
	s.committing = nil
	s.checkCommitEnd(p, t, now)

	// Verify the sequential-semantics invariant on the task's cross-task
	// reads: at commit, every communication read must have observed the
	// producer the sequential order dictates. Coarse-recovery schemes are
	// exempt mid-run — their stale reads are what the end-of-section test
	// catches and the serial re-execution repairs.
	if oracle, ok := s.gen.(OrderOracle); ok && !s.scheme.Coarse {
		for _, cr := range t.consumed {
			s.oracleChecks++
			wantIdx := oracle.SequentialOrderOracle(cr.addr, t.index)
			want := ids.None
			if wantIdx >= 0 {
				want = ids.TaskID(wantIdx + 1)
			}
			if cr.producer != want {
				s.oracleViolations++
			}
		}
	}

	// Footprint statistics (Figure 1).
	s.footBytes.Observe(float64(t.wordsWritten * memsys.WordBytes))
	if t.wordsWritten > 0 {
		s.footPrivFrac.Observe(float64(t.privWords) / float64(t.wordsWritten))
	}

	s.dir.Commit(t.id)
	s.order.Advance(t.id)
	t.state = taskCommitted
	s.commits++
	delete(s.tasks, t.id)
	p.removeLocal(t)
	s.liveSpec--
	s.specSampler.Observe(now, s.liveSpec)

	// Wake MultiT&SV writers stalled on this task's version.
	for _, wp := range s.waiters[t.id] {
		s.wake(wp, now)
	}
	delete(s.waiters, t.id)

	if s.order.Done() {
		s.finishSection(now)
		return
	}
	// The owner (SingleT) can now start a new task; and the next task may
	// already be waiting for the token.
	s.wake(p, now)
	// Completing an invocation lifts the dispatch barrier for every
	// processor idling on it.
	if inv := s.gen.TasksPerInvocation(); inv > 0 && (t.index+1)%inv == 0 {
		for _, wp := range s.procs {
			s.wake(wp, now)
		}
	}
	s.maybeCommit(now)
	// Commit boundary: the pending schedule is fully described by the
	// simulator's own bookkeeping, so this is where checkpoints are taken
	// and interrupts serviced (a no-op for runs without a sink).
	s.afterCommit()
}

// finishSection ends the run. Committed versions still lingering in caches
// (Lazy AMM, ORB, and uncollected FMM future state) are merged with memory
// by a final background pass, one per processor in parallel — the diamonds
// at the end of Figure 6-(b). Only the lazy/ORB merge is on the timing
// path; the FMM flush is bookkeeping (its versions are already part of the
// future memory image and could displace at any time).
func (s *Simulator) finishSection(now event.Time) {
	end := now
	charge := s.scheme.KeepsCommittedVersionsInCache() || s.orbCommit
	// Gather the latest committed version of every lingering line across
	// all caches (the VCL/MTID outcome), then merge once per line.
	latest := map[memsys.LineAddr]ids.TaskID{}
	for _, p := range s.procs {
		lines := 0
		p.l2.ForEach(func(l *memsys.Line) {
			if l.Kind == memsys.KindCommitted {
				if cur, ok := latest[l.Tag]; !ok || l.Producer.After(cur) {
					latest[l.Tag] = l.Producer
				}
				lines++
			}
		})
		if charge {
			if done := now + event.Time(lines)*s.cfg.FinalMergeLine; done > end {
				end = done
			}
		}
	}
	for tag, producer := range latest {
		s.memWriteBack(tag, producer, now)
	}
	if s.scheme.Coarse && s.coarseViolated {
		end = s.coarseRecover(end)
	}
	s.checkSectionEnd(end)
	s.done = true
	s.endTime = end
	for _, p := range s.procs {
		p.account(end)
	}
	s.specSampler.Observe(end, 0)
	s.obs.force(end)
}
