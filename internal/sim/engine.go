package sim

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Engine is a conservative discrete-event engine. Every simulated agent
// (a processor core, a DMA engine, a scheduling thread) is a Task: either
// a coroutine running straight-line Go (Spawn; see coro.go) or an inline
// state machine stepped by the dispatcher itself (SpawnInline; see
// inline.go). The engine always resumes the runnable task with the
// smallest (time, id), which keeps mutations of shared model state
// (caches, resource servers) ordered by timestamp.
//
// Concurrency contract: an Engine and its Tasks form one isolated
// scheduling domain owned by the single goroutine that calls Run. The
// one dispatch loop (Engine.loop) runs there or on the coroutine of the
// task hosting it (see Sync); a task runs only between the loop's
// next() and its own yield, so at most one body executes at a time and
// model code needs no locking. An Engine owns no process-global state,
// so any number of independent Engines may Run concurrently from
// different goroutines (the experiment runner in internal/bench relies
// on this); what is forbidden is sharing one Engine, Task, or any model
// object across domains. Run enforces the one-driver rule with an
// atomic guard so a violation fails loudly rather than racing.
//
// Fast-path invariant: Sync exists so that a task yields before touching
// shared state and resumes only once it is the globally minimal runnable
// task under the engine's (time, id) order. The loop would dispatch the
// yielding task t straight back exactly when t already precedes every
// queued task (blocked tasks cannot become runnable meanwhile: only the
// running task could unblock them, and that is t itself). In that case
// the yield is a provable no-op, so Sync skips it and only advances the
// engine clock. Because the skip condition is precisely "the loop's next
// pop would return t", the sequence of task-at-time steps — and therefore
// every simulated timestamp — is identical with the fast path on or off;
// TestFastPathScheduleEquivalence checks this on randomized schedules
// and pins them to digests recorded from the earlier channel-handoff
// engine. The fast path declines once the task has passed MaxTime, so
// the livelock safety net still trips inside the loop.
type Engine struct {
	queue   taskHeap
	tasks   []*Task
	now     Time
	live    int // tasks spawned and not yet finished
	started atomic.Bool
	// MaxTime, when non-zero, aborts the run if simulated time passes it.
	// It is a safety net against model-level livelock.
	MaxTime Time
	// noFastPath forces every Sync through the dispatch loop; only the
	// determinism tests set it (the fast path must be unobservable).
	noFastPath bool
	// noSpin makes Task.Spin always decline, so an inline Step returns
	// to the dispatcher after every step; only the Spin equivalence
	// tests set it.
	noSpin bool

	// Cooperative cancellation (Abort). abortFlag is atomic because Abort
	// may come from any goroutine (a watchdog timer); the loop reads it
	// once per dispatch and Sync once every abortStride fast-path calls.
	// abortPoll is the countdown to the next poll — a plain field of the
	// domain — which keeps the watchdog's disabled cost on the fast path
	// to a decrement and branch instead of an atomic load
	// (BenchmarkSyncFastPathWatchdog gates it).
	abortFlag   atomic.Bool
	abortPoll   int
	abortMu     sync.Mutex
	abortReason string

	// Epoch sampling (SetEpoch). nextEpoch is the first simulated time at
	// which onEpoch fires; it is kept at the Time sentinel maximum while
	// sampling is off so the hot paths pay one always-false compare and
	// nothing else. The hook runs wherever the clock advanced (the loop
	// or the running task's Sync fast path) and must only read model
	// state: it may not Sync, Spawn, Block or Unblock, so the event order
	// is provably identical with sampling on or off.
	epoch     Time
	nextEpoch Time
	onEpoch   func(boundary Time)

	// fr, when non-nil, is the flight recorder (SetFlightRecorder): a
	// ring of the last K scheduler events embedded in every typed
	// failure's EngineState. Disabled it is one always-false nil compare
	// per record site; the Sync fast path never records, so its cost is
	// untouched in both modes. See flightrec.go.
	fr *flightRecorder

	host *Task // the task running the loop in its slow Sync, if any
	fail any   // the failure host parked for Run to raise (Engine.park)

	met Metrics
}

// Metrics are the engine's self-observation counters: how often the
// yield-free Sync fast path fires, how much work the scheduler heap
// does, and how deep it gets. They cost one increment on the paths they
// count and exist so the fast path's effectiveness is continuously
// measurable in every run instead of one-off benchmarked.
type Metrics struct {
	SyncFast    uint64 // Syncs answered without the dispatch loop
	SyncSlow    uint64 // Syncs that went through the dispatch loop
	Dispatches  uint64 // coroutine dispatches by the loop, into its host too
	Handoffs    uint64 // always 0: tasks reach one another only through the loop
	InlineSteps uint64 // inline-task steps run as plain function calls
	Spawns      uint64 // tasks ever spawned
	Blocks      uint64 // yields that blocked awaiting an Unblock
	Unblocks    uint64 // wake-ups of blocked tasks
	HeapPushes  uint64
	HeapPops    uint64
	HeapMax     int // deepest the scheduler heap has been
}

// FastPathRate returns the fraction of Syncs served without a yield.
func (m Metrics) FastPathRate() float64 {
	tot := m.SyncFast + m.SyncSlow
	if tot == 0 {
		return 0
	}
	return float64(m.SyncFast) / float64(tot)
}

// InlineRate returns the fraction of dispatched events that ran as
// inline steps — plain function calls in the dispatch loop, with no
// coroutine switch. Events here are inline steps plus coroutine resumes
// (Dispatches); fast-path Syncs are excluded.
func (m Metrics) InlineRate() float64 {
	tot := m.InlineSteps + m.Dispatches
	if tot == 0 {
		return 0
	}
	return float64(m.InlineSteps) / float64(tot)
}

// Snapshot emits the counters in a fixed order; it satisfies the probe
// layer's snapshot contract (internal/probe). HeapMax is monotone
// non-decreasing, so it is well-defined as a probe Counter like the
// rest.
func (m Metrics) Snapshot(put func(name string, value float64)) {
	put("sync_fast", float64(m.SyncFast))
	put("sync_slow", float64(m.SyncSlow))
	put("dispatches", float64(m.Dispatches))
	put("spawns", float64(m.Spawns))
	put("blocks", float64(m.Blocks))
	put("unblocks", float64(m.Unblocks))
	put("heap_pushes", float64(m.HeapPushes))
	put("heap_pops", float64(m.HeapPops))
	put("heap_max", float64(m.HeapMax))
	put("inline_steps", float64(m.InlineSteps))
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{nextEpoch: ^Time(0)}
}

// Metrics returns the engine's self-observation counters so far. Safe to
// call after Run, or from the running task.
func (e *Engine) Metrics() Metrics { return e.met }

// QueueLen returns the current scheduler-heap depth (runnable tasks not
// being executed right now).
func (e *Engine) QueueLen() int { return e.queue.len() }

// SetEpoch installs fn to be called the first time simulated time
// reaches or passes every multiple of interval, with the boundary as
// argument (a jump across several boundaries fires fn once per boundary,
// so samples stay regularly spaced). Call it before Run. The hook runs
// wherever the engine clock advanced and must only read model state —
// never Sync, Spawn, Block, Unblock or advance any clock — which is what
// makes sampling invisible to the event order; see the field comment.
func (e *Engine) SetEpoch(interval Time, fn func(boundary Time)) {
	if interval == 0 || fn == nil {
		panic("sim: SetEpoch needs a positive interval and a hook")
	}
	e.epoch = interval
	e.nextEpoch = interval
	e.onEpoch = fn
}

// epochTick fires the sampling hook for every boundary the clock just
// crossed. Out of line so the hot paths only inline the compare.
func (e *Engine) epochTick() {
	for e.now >= e.nextEpoch {
		at := e.nextEpoch
		e.nextEpoch += e.epoch
		e.onEpoch(at)
	}
}

// Now returns the time of the most recently dispatched event.
func (e *Engine) Now() Time { return e.now }

// yieldKind is what a coroutine task tells the loop that resumed it.
type yieldKind uint8

const (
	yieldRequeue yieldKind = iota // task advanced its clock; schedule again
	yieldBlock                    // task blocked; another task must unblock it
	yieldFail                     // a host parked a failure in Engine.fail
)

// Task is a simulated agent with its own local clock. All methods must be
// called from the task's own body unless documented otherwise.
type Task struct {
	engine  *Engine
	name    string
	id      int
	time    Time
	blocked bool
	queued  bool
	done    bool
	// waitingOn names the resource this task is blocked on (BlockOn);
	// empty while runnable or for a plain Block.
	waitingOn string
	// next, stop and yield are the coroutine of a Spawned task (coro.go);
	// failure holds the panic its body raised, for the loop to re-raise.
	next    func() (yieldKind, bool)
	stop    func()
	yield   func(yieldKind) bool
	failure *TaskPanicError
	// inline, when non-nil, is the task's state-machine body: the task
	// has no coroutine, and the loop calls inline.Step directly (inline.go).
	inline Runnable
	// blockLabel is the pending WillBlockOn label, consumed by the next
	// StatusBlocked an inline Step returns.
	blockLabel string
}

// newTask registers a task starting at time start. It may be called
// before Run or from a running task.
func (e *Engine) newTask(name string, start Time) *Task {
	t := &Task{engine: e, name: name, id: len(e.tasks), time: start}
	e.tasks = append(e.tasks, t)
	e.live++
	e.met.Spawns++
	return t
}

func (e *Engine) push(t *Task) {
	if t.queued || t.done {
		return
	}
	t.queued = true
	t.blocked = false
	e.queue.push(t)
	e.met.HeapPushes++
	if d := e.queue.len(); d > e.met.HeapMax {
		e.met.HeapMax = d
	}
}

// Run dispatches events until every task has finished, running the
// dispatch loop (Engine.loop) on the calling goroutine.
//
// Run panics with a typed value (see abort.go) on deadlock (live tasks
// remain but none is runnable — always a bug in a model or workload,
// never a recoverable condition), on livelock past MaxTime, on a
// requested Abort, and when a task body panicked; every such value
// carries an EngineState snapshot. The run layer recovers these in one
// place (core.System.Run) and must call Shutdown afterwards to stop the
// unfinished coroutines. Run must be called exactly once, and only one
// goroutine may drive an Engine: the compare-and-swap below asserts it,
// making concurrent engines provably non-interfering.
func (e *Engine) Run() {
	if !e.started.CompareAndSwap(false, true) {
		panic("sim: Engine.Run called twice or from two goroutines")
	}
	e.loop(nil)
}

// loop is the engine's one dispatch loop. Each iteration takes the
// (time, id) minimum among runnable tasks and either resumes its
// coroutine until the next yield or steps its inline machine; a task
// that yields to run again is requeued and the next minimum taken in
// one heap sift (taskHeap.replaceMin). Run runs it with self nil; a slow
// Sync runs it with self, the host, as the task that yields, returning
// the moment self is the minimum again.
func (e *Engine) loop(self *Task) {
	if self != nil {
		e.host = self
		defer e.park(self)
	}
	again := self // the last task, if it yielded to run again; not in the heap
	for e.live > 0 {
		if e.abortFlag.Load() {
			if again != nil {
				e.push(again)
			}
			panic(e.abortError())
		}
		var t *Task
		if again != nil {
			e.met.HeapPushes++
			e.met.HeapPops++
			if t = e.queue.replaceMin(again); t != again {
				again.queued = true
				t.queued = false
			}
		} else {
			if e.queue.len() == 0 {
				panic(&DeadlockError{State: e.snapshotState()})
			}
			t = e.queue.pop()
			t.queued = false
			e.met.HeapPops++
		}
		if t.time < e.now {
			panic(fmt.Sprintf("sim: task %q scheduled in the past (%v < %v)", t.name, t.time, e.now))
		}
		e.now = t.time
		if e.MaxTime != 0 && e.now > e.MaxTime {
			panic(&LivelockError{MaxTime: e.MaxTime, State: e.snapshotState()})
		}
		if e.now >= e.nextEpoch {
			e.epochTick()
		}
		again = nil
		if t.inline != nil {
			if e.stepInline(t) {
				again = t
			}
			continue
		}
		// Resume t's coroutine until its next yield. The resume is
		// written out here rather than in a helper: the call layer costs
		// measurably on every dispatch (BenchmarkDispatch).
		e.met.Dispatches++
		e.record(flightDispatch, t)
		if t == self {
			e.host = nil
			return
		}
		k, ok := t.next()
		switch {
		case !ok: // the body returned, or panicked (coro.go)
			t.done = true
			e.live--
			if p := t.failure; p != nil {
				p.State = e.snapshotState()
				panic(p)
			}
		case k == yieldBlock:
			t.blocked = true
			e.met.Blocks++
			e.record(flightBlock, t)
		case k == yieldFail: // a host parked a failure; only Run sees this
			panic(e.fail)
		default:
			again = t
		}
	}
}

// park routes a failure raised in a host's loop, which would otherwise
// unwind into the host's body as its own panic, to Run: e.fail holds it
// while the host yields yieldFail to its resumer, Run, which raises it.
func (e *Engine) park(host *Task) {
	if r := recover(); r != nil {
		e.fail = r
		host.pause(yieldFail)
		panic(r) // unreachable: Run never resumes a parked host
	}
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// ID returns the task's spawn index.
func (t *Task) ID() int { return t.id }

// Time returns the task's local clock.
func (t *Task) Time() Time { return t.time }

// SetTime advances the task's local clock without yielding to the engine.
// Use it for purely local charges (e.g. L1 hits) that touch no shared
// state. It never moves the clock backwards.
func (t *Task) SetTime(tm Time) {
	if tm > t.time {
		t.time = tm
	}
}

// Advance adds d to the local clock without yielding.
func (t *Task) Advance(d Time) { t.time += d }

// Sync yields to the engine and returns once this task is globally minimal
// again. Call it before touching shared model state so that mutations are
// applied in timestamp order.
//
// When the task is already globally minimal — no queued task precedes it
// under (time, id) — the loop would dispatch it right back, so Sync only
// advances the engine clock (see the Engine doc). Otherwise it yields to
// the task hosting the loop or, with none, hosts it until minimal again.
func (t *Task) Sync() {
	e := t.engine
	if !e.noFastPath && (e.MaxTime == 0 || t.time <= e.MaxTime) &&
		e.queue.precedesAll(t) && e.abortPollOK() {
		e.met.SyncFast++
		e.now = t.time
		if e.now >= e.nextEpoch {
			e.epochTick()
		}
		return
	}
	e.met.SyncSlow++
	if t.inline != nil {
		panic("sim: Sync from inline task " + t.name + "'s Step; return StatusRunning instead")
	}
	if e.host == nil {
		e.loop(t)
		return
	}
	t.pause(yieldRequeue)
}

// abortStride is how many fast-path Syncs may pass between polls of the
// abort flag. It bounds cancellation latency on an all-fast-path
// simulation (one task, never yielding) at 64 Syncs while keeping the
// common case free of the atomic load.
const abortStride = 64

// abortPollOK amortizes the watchdog's cost on the Sync fast path: a
// decrement and branch on abortStride-1 calls out of abortStride, one
// atomic abortFlag load on the rest. A requested Abort declines the fast
// path, so the task enters the loop, which raises the typed abort.
// Without this poll an all-fast-path simulation would be uncancelable.
func (e *Engine) abortPollOK() bool {
	e.abortPoll--
	if e.abortPoll >= 0 {
		return true
	}
	e.abortPoll = abortStride - 1
	return !e.abortFlag.Load()
}

// AdvanceTo moves the local clock to tm (if later) and syncs.
func (t *Task) AdvanceTo(tm Time) {
	t.SetTime(tm)
	t.Sync()
}

// Block suspends the task until another task calls Unblock. The task's
// clock may be moved forward by the waker.
func (t *Task) Block() { t.block("") }

// BlockOn is Block with a label naming the resource the task is waiting
// for ("lock mq", "barrier start", "dma dma0"). The label appears in
// deadlock diagnostics and engine-state snapshots alongside the task's
// last sync time, so a deadlock on a resource names the resource, not
// just the tasks.
func (t *Task) BlockOn(label string) { t.block(label) }

func (t *Task) block(label string) {
	if t.inline != nil {
		panic("sim: Block from inline task " + t.name + "'s Step; return StatusBlocked instead")
	}
	t.waitingOn = label
	t.pause(yieldBlock)
	t.waitingOn = ""
}

// Unblock makes a blocked task runnable again, no earlier than time at.
// The wake time is additionally clamped to the engine's current time: a
// wake event generated by a task running at time T cannot take effect
// before T. It must be called from a different, currently-running task
// (the domain is single-threaded, so this is race-free).
func (t *Task) Unblock(at Time) {
	if t.done {
		panic("sim: Unblock of finished task " + t.name)
	}
	if !t.blocked {
		panic("sim: Unblock of runnable task " + t.name)
	}
	if now := t.engine.now; at < now {
		at = now
	}
	t.SetTime(at)
	t.engine.met.Unblocks++
	t.engine.record(flightUnblock, t)
	t.engine.push(t)
}

// heapSlot is one scheduler-heap entry: the queued task with its
// (time, id) key copied inline, so a sift compares keys without loading
// a task. The copy stays exact because a queued task's clock never
// changes: only the running task moves its own clock, and Unblock sets
// a blocked task's clock before pushing it.
type heapSlot struct {
	time Time
	id   int
	t    *Task
}

// less reports whether a precedes b under (time, id).
func (a *heapSlot) less(b *heapSlot) bool { return a.lessBit(b) != 0 }

// lessBit is less as 1 or 0: the borrow of a - b with the keys read as
// one 128-bit number. It lets siftDown pick the least child by
// arithmetic instead of a branch that mispredicts about half the time.
func (a *heapSlot) lessBit(b *heapSlot) uint64 {
	_, borrow := bits.Sub64(uint64(a.id), uint64(b.id), 0)
	_, borrow = bits.Sub64(uint64(a.time), uint64(b.time), borrow)
	return borrow
}

// taskHeap is a 4-ary min-heap of tasks ordered by (time, id): earlier
// local time, with the spawn id breaking ties so dispatch is
// deterministic. It is
// hand-specialized rather than using container/heap: no interface boxing
// on push/pop, and the sift loops compare the inline (time, id) keys
// directly. 4-ary halves the tree depth of the binary heap, which
// matters because the heap is touched on every slow-path dispatch.
type taskHeap struct {
	s []heapSlot
}

const heapArity = 4

func (h *taskHeap) len() int { return len(h.s) }

// precedesAll reports whether t, which is not queued, precedes every
// queued task: the condition under which the loop's next pop returns t.
func (h *taskHeap) precedesAll(t *Task) bool {
	if len(h.s) == 0 {
		return true
	}
	m := &h.s[0]
	if t.time != m.time {
		return t.time < m.time
	}
	return t.id < m.id
}

func (h *taskHeap) push(t *Task) {
	x := heapSlot{t.time, t.id, t}
	h.s = append(h.s, x)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !x.less(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = x
}

// siftDown places x at slot i or below, moving smaller children up.
func (h *taskHeap) siftDown(i int, x heapSlot) {
	s := h.s
	n := len(s)
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		min := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			min += (c - min) & -int(s[c].lessBit(&s[min]))
		}
		if !s[min].less(&x) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = x
}

// replaceMin pushes t and pops the global minimum in a single sift, the
// loop's heap operation after a task yields to run again. When t
// precedes the current root — or the heap is empty — the heap is left
// untouched and t itself is returned; otherwise the root is returned and
// t sifts down from the root slot, halving the work of a separate push +
// pop. The result is always the minimum of {heap ∪ t}, and because
// (time, id) keys are unique and totally ordered, the pop sequence —
// hence the dispatch order — is identical to push(t) followed by pop()
// regardless of the differing internal heap shape.
func (h *taskHeap) replaceMin(t *Task) *Task {
	if h.precedesAll(t) {
		return t
	}
	top := h.s[0].t
	h.siftDown(0, heapSlot{t.time, t.id, t})
	return top
}

func (h *taskHeap) pop() *Task {
	s := h.s
	top := s[0].t
	n := len(s) - 1
	last := s[n]
	s[n] = heapSlot{}
	h.s = s[:n]
	if n > 0 {
		h.siftDown(0, last) // the former tail, from the root
	}
	return top
}
