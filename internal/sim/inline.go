package sim

import "runtime/debug"

// This file is the inline-task representation: tasks whose bodies are
// explicit resumable state machines (Runnable) instead of coroutines.
// The loop steps an inline task as a plain call, so dispatching one
// costs no coroutine switch at all. The DMA engines run this way: their
// per-beat steps are the bulk of a streaming simulation's events, and a
// Step call is measurably cheaper than a coroutine round trip
// (BenchmarkDispatchInline against BenchmarkDispatch). Coroutine and
// inline tasks interleave freely in one scheduler heap under the same
// (time, id) total order. A Step that would return StatusRunning may
// first call Task.Spin and, while its task stays globally minimal, go
// straight on into its next step (the Spin contract is on Task.Spin).

// Status is what a Runnable's Step reports about the task's state.
type Status uint8

const (
	// StatusRunning: the step advanced the task's clock (or not) and the
	// task wants to be scheduled again — the inline equivalent of Sync.
	StatusRunning Status = iota
	// StatusBlocked: the task cannot proceed until another task calls
	// Unblock on it — the inline equivalent of Block/BlockOn (set the
	// label with WillBlockOn before returning).
	StatusBlocked
	// StatusDone: the task has finished; Step will not be called again.
	StatusDone
)

// Runnable is the body of an inline task: an explicit state machine
// whose Step runs the task up to its next yield point and reports why
// it stopped. Step must not call Sync, Block, BlockOn or AdvanceTo on
// its own task — those yield a coroutine the task does not have; it
// yields by returning instead. Everything else is allowed: Advance and
// SetTime move the clock, Unblock wakes peers, Spawn/SpawnInline create
// tasks, and shared model state may be touched exactly as a coroutine
// body would between Syncs.
type Runnable interface {
	Step(t *Task) Status
}

// SpawnInline registers r as an inline task starting at time start. The
// task's steps run as plain calls in the dispatch loop — no coroutine,
// no stack. May be called before Run or from a running task (including
// from another Runnable's Step).
func (e *Engine) SpawnInline(name string, start Time, r Runnable) *Task {
	if r == nil {
		panic("sim: SpawnInline with nil Runnable")
	}
	t := e.newTask(name, start)
	t.inline = r
	e.push(t)
	return t
}

// WillBlockOn records the label for the StatusBlocked this task's Step
// is about to return — the inline equivalent of BlockOn's resource
// label, shown in deadlock diagnostics and engine-state snapshots. It
// only takes effect through the next StatusBlocked.
func (t *Task) WillBlockOn(label string) { t.blockLabel = label }

// spin starts the next step of inline task t in place when t is still
// globally minimal, reporting whether it did: the engine clock and the
// epoch hook advance to t's time and the step is counted and recorded
// exactly as a dispatched one. The condition is the Sync fast path's,
// kept out of line so Sync's copy stays inlined.
func (e *Engine) spin(t *Task) bool {
	if e.noFastPath || (e.MaxTime != 0 && t.time > e.MaxTime) ||
		!e.queue.precedesAll(t) || !e.abortPollOK() {
		return false
	}
	e.now = t.time
	if e.now >= e.nextEpoch {
		e.epochTick()
	}
	e.met.InlineSteps++
	e.record(flightInlineStep, t)
	return true
}

// Spin lets an inline task's Step continue into its next step instead
// of returning StatusRunning. Call it from Step, on Step's own task, at
// the point where Step would return StatusRunning. When it reports true
// the task was still globally minimal under (time, id), so the
// dispatcher would have stepped it again at once; the engine clock, the
// epoch hook, Metrics.InlineSteps and the flight recorder have advanced
// as for that step, and Step must go on as if newly called. When it
// reports false nothing has changed and Step must return
// StatusRunning. Spin moves no yield: it skips only a return the
// dispatcher would immediately undo, so the schedule, every simulated
// timestamp and the engine's metrics are identical whether a Step
// spins or returns (TestDMASpinEquivalence).
func (t *Task) Spin() bool {
	e := t.engine
	return !e.noSpin && e.spin(t)
}

// stepInline dispatches inline task t (popped, clock advanced) and
// reports whether it wants to run again. While t stays globally minimal
// it is re-stepped without touching the heap (the inline spin), which is
// schedule-invisible for the same reason the Sync fast path is. A panic
// out of Step is routed like a coroutine body's panic: it surfaces out
// of Run as a *TaskPanicError naming t. The recover is deferred once
// per dispatch, not once per step.
func (e *Engine) stepInline(t *Task) (again bool) {
	defer func() {
		if r := recover(); r != nil {
			t.done = true
			e.live--
			panic(&TaskPanicError{TaskName: t.name, Value: r, Stack: string(debug.Stack()), State: e.snapshotState()})
		}
	}()
	e.met.InlineSteps++
	e.record(flightInlineStep, t)
	for {
		t.waitingOn = ""
		switch t.inline.Step(t) {
		case StatusRunning:
			if !e.spin(t) {
				return true
			}
		case StatusBlocked:
			t.blocked = true
			t.waitingOn = t.blockLabel
			t.blockLabel = ""
			e.met.Blocks++
			e.record(flightBlock, t)
			return false
		case StatusDone:
			t.done = true
			e.live--
			return false
		default:
			panic("sim: Runnable.Step returned an invalid Status")
		}
	}
}
