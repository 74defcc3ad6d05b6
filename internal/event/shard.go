package event

import (
	"container/heap"
	"fmt"
)

// This file implements a sharded event queue: the pending set is
// partitioned into per-domain lanes (one lane per simulated node), and the
// firing order is reconstructed by a merge across the lane heads. Sequence
// numbers are allocated globally, so the merge order — ascending (when,
// seq), with the lane only breaking ties that cannot occur — is exactly the
// serial Queue's total order: a ShardedQueue fed the same schedule fires
// the identical event sequence.
//
// The lanes let a conservative synchronization window reason about each
// domain independently: Frontier reports how far one lane's earliest
// pending event is, MinFrontier the global safe floor, and RunWindow fires
// everything strictly before a horizon. The checkpoint surface (NextSeq,
// RestoreClock, ScheduleAt, Halt) mirrors the serial Queue.
//
// The simulator no longer uses this queue: its parallel mode runs the
// serial Queue plus a workload prefetcher (internal/sim, DESIGN.md §15).
// It remains only for the tlsperf benchmark's event-replay layer, which
// times windowed lane replay against the serial Queue; it goes once that
// benchmark replays on Queue alone.

// ShardedQueue is an event queue whose pending set is partitioned into
// per-domain lanes. It fires the same schedule as Queue in the same
// canonical order. It is not goroutine-safe: one goroutine owns the merge
// loop.
type ShardedQueue struct {
	now    Time
	nextSq uint64
	fired  uint64
	live   int

	lanes []shardLane

	compactions uint64
}

// shardLane is one domain's share of the pending set. fired and hiwater are
// diagnostic counters (events fired from this lane, peak live occupancy),
// read through LaneFired and LaneHighWater and never by the merge loop, so
// they cannot perturb firing order.
type shardLane struct {
	heap    eventHeap
	live    int
	free    *Event
	fired   uint64
	hiwater int
}

// NewSharded returns a sharded queue with the given number of domains
// (at least one).
func NewSharded(domains int) *ShardedQueue {
	if domains < 1 {
		panic("event: sharded queue with no domains")
	}
	return &ShardedQueue{lanes: make([]shardLane, domains)}
}

// Domains returns the number of lanes.
func (q *ShardedQueue) Domains() int { return len(q.lanes) }

// Now returns the current virtual time.
func (q *ShardedQueue) Now() Time { return q.now }

// Len returns the number of pending (non-canceled) events in O(1).
func (q *ShardedQueue) Len() int { return q.live }

// Fired returns the number of events executed since the queue was created.
func (q *ShardedQueue) Fired() uint64 { return q.fired }

// Compactions returns how many lane compactions swept canceled entries.
func (q *ShardedQueue) Compactions() uint64 { return q.compactions }

// LaneFired returns the number of events fired from domain's lane.
func (q *ShardedQueue) LaneFired(domain int) uint64 { return q.lanes[domain].fired }

// LaneHighWater returns the peak live occupancy domain's lane has reached —
// how many pending events the lane held at its busiest moment.
func (q *ShardedQueue) LaneHighWater(domain int) int { return q.lanes[domain].hiwater }

// NextSeq returns the sequence number the next scheduled event will get.
func (q *ShardedQueue) NextSeq() uint64 { return q.nextSq }

// At schedules fn on domain's lane at absolute time when. The same
// validity rules as Queue.At apply: the past and Never panic.
func (q *ShardedQueue) At(domain int, when Time, fn func(now Time)) Handle {
	if when < q.now {
		panic(fmt.Sprintf("event: scheduling at %d before now %d", when, q.now))
	}
	if when == Never {
		panic("event: scheduling at Never; use Cancel for events that may not happen")
	}
	l := &q.lanes[domain]
	e := l.take()
	e.when, e.seq, e.fn, e.canceled, e.index = when, q.nextSq, fn, false, -1
	e.lane = int32(domain)
	q.nextSq++
	heap.Push(&l.heap, e)
	l.live++
	if l.live > l.hiwater {
		l.hiwater = l.live
	}
	q.live++
	return Handle{e: e, seq: e.seq, when: when}
}

// After schedules fn on domain's lane delay cycles from now.
func (q *ShardedQueue) After(domain int, delay Time, fn func(now Time)) Handle {
	return q.At(domain, q.now+delay, fn)
}

// take pops a recycled Event from the lane's free list, or allocates one.
func (l *shardLane) take() *Event {
	e := l.free
	if e != nil {
		l.free = e.next
		e.next = nil
	} else {
		e = new(Event)
	}
	return e
}

// release returns a popped or swept Event to its lane's free list.
func (l *shardLane) release(e *Event) {
	e.fn = nil
	e.index = -1
	e.next = l.free
	l.free = e
}

// Cancel marks the occurrence as canceled, with the same staleness rules
// as Queue.Cancel. The owning lane is compacted when more than half of a
// non-trivial lane heap is dead.
func (q *ShardedQueue) Cancel(h Handle) {
	e := h.e
	if e == nil || e.index < 0 || e.seq != h.seq || e.canceled {
		return
	}
	e.canceled = true
	l := &q.lanes[e.lane]
	l.live--
	q.live--
	if len(l.heap) >= compactMinHeap && 2*l.live < len(l.heap) {
		l.compact()
		q.compactions++
	}
}

// compact rebuilds the lane heap from its live entries, recycling the dead
// ones. Heap order is a total order on (when, seq), so re-initializing
// preserves the exact firing sequence.
func (l *shardLane) compact() {
	kept := l.heap[:0]
	for _, e := range l.heap {
		if e.canceled {
			l.release(e)
		} else {
			kept = append(kept, e)
		}
	}
	for i := len(kept); i < len(l.heap); i++ {
		l.heap[i] = nil
	}
	l.heap = kept
	for i, e := range l.heap {
		e.index = i
	}
	heap.Init(&l.heap)
}

// head returns the lane's earliest pending event, sweeping canceled
// entries off the top, or nil when the lane is empty.
func (l *shardLane) head() *Event {
	for len(l.heap) > 0 {
		e := l.heap[0]
		if !e.canceled {
			return e
		}
		heap.Pop(&l.heap)
		l.release(e)
	}
	return nil
}

// Frontier returns the time of domain's earliest pending event. ok is
// false when the lane is empty; an empty lane imposes no bound on the
// safe horizon.
func (q *ShardedQueue) Frontier(domain int) (t Time, ok bool) {
	if e := q.lanes[domain].head(); e != nil {
		return e.when, true
	}
	return 0, false
}

// MinFrontier returns the earliest pending time across all lanes — the
// global clock floor a conservative window starts from. ok is false when
// the queue is empty.
func (q *ShardedQueue) MinFrontier() (t Time, ok bool) {
	if e := q.min(); e != nil {
		return e.when, true
	}
	return 0, false
}

// min returns the globally earliest pending event under the canonical
// (when, seq) order, or nil. The lane count is the machine's node count, so
// a linear scan of lane heads beats maintaining a second heap.
func (q *ShardedQueue) min() *Event {
	var best *Event
	for i := range q.lanes {
		e := q.lanes[i].head()
		if e == nil {
			continue
		}
		if best == nil || e.when < best.when || (e.when == best.when && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

// Step fires the canonically earliest pending event across all lanes and
// advances the clock to its time. It returns false when no events remain.
func (q *ShardedQueue) Step() bool {
	e := q.min()
	if e == nil {
		return false
	}
	l := &q.lanes[e.lane]
	heap.Pop(&l.heap)
	q.now = e.when
	q.fired++
	l.fired++
	l.live--
	q.live--
	fn := e.fn
	l.release(e)
	fn(q.now)
	return true
}

// Run fires events until the queue drains or until limit events have
// fired, with Queue.Run's limit semantics (0 = no limit).
func (q *ShardedQueue) Run(limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		if !q.Step() {
			break
		}
		n++
	}
	return n
}

// RunWindow fires every event strictly before horizon, in canonical order,
// up to limit events (0 = no limit). It returns the number fired. Events
// scheduled during the window that land inside it fire too: the window is
// a bound on virtual time, not a snapshot of the pending set.
func (q *ShardedQueue) RunWindow(horizon Time, limit uint64) uint64 {
	var n uint64
	for limit == 0 || n < limit {
		e := q.min()
		if e == nil || e.when >= horizon {
			break
		}
		l := &q.lanes[e.lane]
		heap.Pop(&l.heap)
		q.now = e.when
		q.fired++
		l.fired++
		l.live--
		q.live--
		fn := e.fn
		l.release(e)
		fn(q.now)
		n++
	}
	return n
}

// RestoreClock sets the queue's clock and counters from a checkpoint, with
// Queue.RestoreClock's empty-queue requirement.
func (q *ShardedQueue) RestoreClock(now Time, nextSq, fired, compactions uint64) {
	if q.live != 0 {
		panic("event: RestoreClock on a non-empty sharded queue")
	}
	for i := range q.lanes {
		if len(q.lanes[i].heap) != 0 {
			panic("event: RestoreClock on a non-empty sharded queue")
		}
	}
	q.now = now
	q.nextSq = nextSq
	q.fired = fired
	q.compactions = compactions
}

// ScheduleAt re-inserts a checkpointed occurrence on domain's lane with
// its original absolute time and sequence number, with Queue.ScheduleAt's
// validity rules. It does not advance nextSq.
func (q *ShardedQueue) ScheduleAt(domain int, when Time, seq uint64, fn func(now Time)) Handle {
	if when < q.now {
		panic(fmt.Sprintf("event: restoring occurrence at %d before now %d", when, q.now))
	}
	if seq >= q.nextSq {
		panic(fmt.Sprintf("event: restoring occurrence seq %d >= nextSq %d", seq, q.nextSq))
	}
	l := &q.lanes[domain]
	e := l.take()
	e.when, e.seq, e.fn, e.canceled, e.index = when, seq, fn, false, -1
	e.lane = int32(domain)
	heap.Push(&l.heap, e)
	l.live++
	if l.live > l.hiwater {
		l.hiwater = l.live
	}
	q.live++
	return Handle{e: e, seq: seq, when: when}
}

// Halt drains every lane without firing anything, like Queue.Halt.
func (q *ShardedQueue) Halt() {
	for i := range q.lanes {
		l := &q.lanes[i]
		changed := false
		for _, e := range l.heap {
			if !e.canceled {
				e.canceled = true
				l.live--
				q.live--
				changed = true
			}
		}
		if changed || len(l.heap) > 0 {
			l.compact()
			q.compactions++
		}
	}
}
