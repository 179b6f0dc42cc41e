//go:build go1.23

package sim

import (
	"iter"
	"runtime/debug"
)

// Spawn registers fn as a new task starting at time start. It may be
// called before Run or from a running task. The body runs as an
// iter.Pull coroutine: Run's next() switches into it, and Sync's slow
// path and Block switch back through yield, so a dispatch costs one
// coroutine round trip and no channel operation.
//
// The wrapper is the body's only exit. A panic in model or workload code
// is recovered here with the task's own stack and re-raised by Run as a
// *TaskPanicError, so failures surface at exactly one place; the
// taskAbortSignal that unwinds a stopped task (Shutdown) just ends it.
func (e *Engine) Spawn(name string, start Time, fn func(*Task)) *Task {
	t := e.newTask(name, start)
	t.next, t.stop = iter.Pull(func(yield func(yieldKind) bool) {
		t.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(taskAbortSignal); !ok {
					t.failure = &TaskPanicError{TaskName: t.name, Value: r, Stack: string(debug.Stack())}
				}
			}
		}()
		fn(t)
	})
	e.push(t)
	return t
}

// pause yields to Run with k. A false return means Shutdown stopped the
// coroutine; the sentinel panic unwinds the body without running more
// model code.
func (t *Task) pause(k yieldKind) {
	if !t.yield(k) {
		panic(taskAbortSignal{})
	}
}
