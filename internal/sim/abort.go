package sim

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the engine's failure surface: every way a run can die is
// a typed panic value carrying an EngineState snapshot, so the run layer
// (internal/bench) can recover it into a structured job record instead
// of losing the process. The types panic out of Run on the driving
// goroutine only — a task body's panic is recovered in its coroutine
// and re-raised by Run — which is what makes recovery in one place sound.

// TaskState is one task's entry in a diagnostic snapshot.
type TaskState struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Time is the task's local clock: for a blocked task, the time of its
	// last sync before blocking.
	Time Time `json:"time_fs"`
	// State is "running", "runnable", "blocked" or "done".
	State string `json:"state"`
	// WaitingOn names the resource a blocked task is waiting for when the
	// blocker used BlockOn ("lock mq.lock", "dma dma3", ...); empty for a
	// plain Block.
	WaitingOn string `json:"waiting_on,omitempty"`
}

// EngineState is a read-only snapshot of the scheduling domain, taken at
// the moment a run error is raised and attached to it. It is the
// probe-style progress dump the ISSUE's watchdog and deadlock
// diagnostics carry: last event time, heap depth, per-task state, and
// the engine's self-metrics.
type EngineState struct {
	Now       Time        `json:"now_fs"`
	HeapDepth int         `json:"heap_depth"`
	Live      int         `json:"live_tasks"`
	Metrics   Metrics     `json:"metrics"`
	Tasks     []TaskState `json:"tasks,omitempty"`
	// Recent is the flight recorder's ring at the moment of failure,
	// oldest first — the last K scheduler events that led here (empty
	// when the recorder was disabled). EventsRecorded counts every event
	// the recorder ever saw, so readers can tell "K events, ring full"
	// from "K events, that was the whole run".
	Recent         []FlightEvent `json:"recent_events,omitempty"`
	EventsRecorded uint64        `json:"events_recorded,omitempty"`
}

// snapshotState captures the domain. Domain-only (it reads scheduling
// state without locks).
func (e *Engine) snapshotState() EngineState {
	st := EngineState{Now: e.now, HeapDepth: e.queue.len(), Live: e.live, Metrics: e.met}
	if e.fr != nil {
		st.Recent = e.fr.snapshot(e.tasks)
		st.EventsRecorded = e.fr.n
	}
	for _, t := range e.tasks {
		ts := TaskState{Name: t.name, ID: t.id, Time: t.time, WaitingOn: t.waitingOn}
		switch {
		case t.done:
			ts.State = "done"
		case t.blocked:
			ts.State = "blocked"
		case t.queued:
			ts.State = "runnable"
		default:
			ts.State = "running"
		}
		st.Tasks = append(st.Tasks, ts)
	}
	return st
}

// blockedSummary lists the blocked tasks sorted by name, annotating each
// with what it awaits and its last sync time when the blocker said so
// (Task.BlockOn). A deadlock on a resource must name the resource, not
// just the tasks.
func (s EngineState) blockedSummary() string {
	var parts []string
	for _, t := range s.Tasks {
		if t.State != "blocked" {
			continue
		}
		if t.WaitingOn != "" {
			parts = append(parts, fmt.Sprintf("%s (awaiting %s, last sync %v)", t.Name, t.WaitingOn, t.Time))
		} else {
			parts = append(parts, t.Name)
		}
	}
	sort.Strings(parts)
	return "blocked tasks: " + strings.Join(parts, ", ")
}

// RunError is the interface of every typed engine failure; the run layer
// recovers panics out of Run and extracts the snapshot through it.
type RunError interface {
	error
	EngineState() EngineState
}

// DeadlockError reports that live tasks remained but none was runnable.
// Always a model or workload bug, never a recoverable condition — but
// one poisoned configuration must not kill a whole experiment grid, so
// it is a typed value the run layer can catch and record.
type DeadlockError struct {
	State EngineState
}

func (d *DeadlockError) Error() string            { return "sim: deadlock: " + d.State.blockedSummary() }
func (d *DeadlockError) EngineState() EngineState { return d.State }

// LivelockError reports that simulated time passed Engine.MaxTime.
type LivelockError struct {
	MaxTime Time
	State   EngineState
}

func (l *LivelockError) Error() string {
	return fmt.Sprintf("sim: exceeded MaxTime %v (model livelock?)", l.MaxTime)
}
func (l *LivelockError) EngineState() EngineState { return l.State }

// AbortError reports a cooperative cancellation requested through
// Engine.Abort (the per-job watchdog). The snapshot is the progress
// dump: where simulated time stopped and what every task was doing.
type AbortError struct {
	Reason string
	State  EngineState
}

func (a *AbortError) Error() string {
	return fmt.Sprintf("sim: aborted: %s (last event at %v, heap depth %d, %d live tasks)",
		a.Reason, a.State.Now, a.State.HeapDepth, a.State.Live)
}
func (a *AbortError) EngineState() EngineState { return a.State }

// TaskPanicError wraps a panic raised by model or workload code in a
// task body. The Spawn wrapper (or, for an inline task, the step call)
// catches it, and Run re-panics with this value — so a panic anywhere in
// a simulation surfaces at exactly one place.
type TaskPanicError struct {
	TaskName string
	Value    any
	Stack    string
	State    EngineState
}

func (p *TaskPanicError) Error() string {
	return fmt.Sprintf("sim: task %q panicked: %v", p.TaskName, p.Value)
}
func (p *TaskPanicError) EngineState() EngineState { return p.State }

// Abort requests cooperative cancellation of the run. Safe to call from
// any goroutine at any time (the watchdog calls it from a timer). The
// request takes effect only at a dispatch boundary inside Run — the
// engine's next loop iteration, or the running task's next Sync — where
// the engine panics out of Run with an *AbortError carrying the progress
// dump. Once Run has returned, Abort is a no-op: it can never unwind
// report finalization (see DESIGN.md).
//
// The first reason wins; later Aborts keep the flag set but do not
// overwrite it.
func (e *Engine) Abort(reason string) {
	e.abortMu.Lock()
	if e.abortReason == "" {
		e.abortReason = reason
	}
	e.abortMu.Unlock()
	e.abortFlag.Store(true)
}

// abortError builds the typed abort panic value. Run only.
func (e *Engine) abortError() *AbortError {
	e.abortMu.Lock()
	reason := e.abortReason
	e.abortMu.Unlock()
	return &AbortError{Reason: reason, State: e.snapshotState()}
}

// taskAbortSignal is the sentinel panicked through a stopped task's
// body (Shutdown) so its coroutine unwinds without running model code.
type taskAbortSignal struct{}

// Shutdown stops the coroutines left suspended after Run panicked: each
// one's pending yield returns false and its body unwinds via the
// sentinel panic. Call it exactly once, from the goroutine that
// recovered Run's panic, before dropping the Engine — without it every
// failed simulation would leak one suspended coroutine per unfinished
// task. Safe to call again, when Run completed normally (every task
// done) or never started.
func (e *Engine) Shutdown() {
	for _, t := range e.tasks {
		if t.done {
			continue
		}
		if t.stop != nil {
			t.stop()
		}
		t.done = true
		e.live--
	}
}
