// Package syncprim provides the synchronization primitives the study's
// applications use — locks, sense-reversing barriers, and the dynamic
// task queues both models schedule work from ("the applications ... use
// locks to implement efficient task-queues and barriers to synchronize
// SPMD code"). All waiting is charged to the Sync bucket of Figure 2.
//
// Primitive costs are model-independent round-trip charges (an atomic
// operation reaching a shared point of coherence, roughly an L2 round
// trip). The dominant synchronization costs in the study — load
// imbalance and limited parallelism — emerge from the queueing
// discipline, not the per-operation constant.
//
// Every clock movement here (an atomic operation's Advance, a blocked
// core's wake-up) is charged through cpu.Proc.ChargeWait to the cycle
// ledger's SyncWait class, so lock and barrier time is fully attributed,
// the ledger's conservation invariant holds across synchronization, and
// the time shows as sync_wait spans on an armed timeline.
package syncprim

import (
	"repro/internal/cpu"
	"repro/internal/ledger"
	"repro/internal/sim"
)

// OpCost is the charge for one uncontended atomic operation (compare-
// and-swap or fetch-and-add reaching the L2).
const OpCost = 25 * sim.Nanosecond

// HandoffCost is the extra latency to pass a released lock or barrier
// wake-up to a waiting core (a line transfer between caches).
const HandoffCost = 15 * sim.Nanosecond

// atomicOp syncs the core with the engine and charges one atomic
// operation's round trip.
func atomicOp(p *cpu.Proc) {
	p.Task().Sync()
	start := p.Now()
	p.Task().Advance(OpCost)
	p.ChargeWait(ledger.SyncWait, start)
}

// block parks the core until a waker moves its clock, and charges the
// time it was parked.
func block(p *cpu.Proc, label string) {
	start := p.Now()
	p.Task().BlockOn(label)
	p.ChargeWait(ledger.SyncWait, start)
}

// Lock is a FIFO mutex in simulated time.
type Lock struct {
	label   string // "lock <name>": BlockOn label, built once
	held    bool
	waiters []*cpu.Proc
	// Acquisitions counts successful acquires; Contended counts those
	// that had to wait.
	Acquisitions uint64
	Contended    uint64
}

// NewLock returns an unlocked lock.
func NewLock(name string) *Lock { return &Lock{label: "lock " + name} }

// Acquire takes the lock, blocking in simulated time until available.
func (l *Lock) Acquire(p *cpu.Proc) {
	atomicOp(p)
	l.Acquisitions++
	if !l.held {
		l.held = true
		return
	}
	l.Contended++
	l.waiters = append(l.waiters, p)
	block(p, l.label)
}

// Release frees the lock, handing it to the longest-waiting core.
func (l *Lock) Release(p *cpu.Proc) {
	if !l.held {
		panic("syncprim: release of unheld " + l.label)
	}
	p.Task().Sync()
	if len(l.waiters) == 0 {
		l.held = false
		return
	}
	w := l.waiters[0]
	l.waiters = l.waiters[1:]
	w.Task().Unblock(p.Now() + HandoffCost)
}

// Barrier synchronizes n cores; it is reusable (sense-reversing).
type Barrier struct {
	label   string // "barrier <name>": BlockOn label, built once
	n       int
	arrived []*cpu.Proc
	// Waits counts completed barrier episodes.
	Waits uint64
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(name string, n int) *Barrier {
	if n <= 0 {
		panic("syncprim: barrier with no participants")
	}
	return &Barrier{label: "barrier " + name, n: n}
}

// Wait blocks until all n participants have arrived. The release time is
// the last arrival plus the broadcast cost.
func (b *Barrier) Wait(p *cpu.Proc) {
	atomicOp(p)
	if len(b.arrived)+1 < b.n {
		b.arrived = append(b.arrived, p)
		block(p, b.label)
		return
	}
	// Last arrival releases everyone.
	b.Waits++
	release := p.Now() + HandoffCost
	for _, w := range b.arrived {
		w.Task().Unblock(release)
	}
	b.arrived = b.arrived[:0]
}

// TaskQueue hands out work-item indexes dynamically, as the MPEG-2 and
// H.264 macroblock schedulers do. It is a lock-protected counter.
type TaskQueue struct {
	lock  *Lock
	next  int
	limit int
	// DequeueInstr is the bookkeeping instruction cost per dequeue.
	DequeueInstr uint64
}

// NewTaskQueue returns a queue dispensing [0, limit).
func NewTaskQueue(name string, limit int) *TaskQueue {
	return &TaskQueue{lock: NewLock(name + ".lock"), limit: limit, DequeueInstr: 6}
}

// Next returns the next work-item index, or -1 when the queue is empty.
func (q *TaskQueue) Next(p *cpu.Proc) int {
	q.lock.Acquire(p)
	p.Work(q.DequeueInstr)
	idx := -1
	if q.next < q.limit {
		idx = q.next
		q.next++
	}
	q.lock.Release(p)
	return idx
}

// Remaining returns how many items have not been dispensed.
func (q *TaskQueue) Remaining() int { return q.limit - q.next }

// Reset refills the queue for another phase with the given item count.
func (q *TaskQueue) Reset(limit int) {
	q.next = 0
	q.limit = limit
}
