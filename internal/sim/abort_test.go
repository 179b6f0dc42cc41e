package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// recoverRunError runs e.Run, recovers its panic, drains the engine, and
// returns the typed run error (nil if Run completed normally). It is the
// test-side copy of what core.System.Run does.
func recoverRunError(e *Engine) (rerr error) {
	defer e.Shutdown()
	defer func() {
		if r := recover(); r != nil {
			if err, ok := r.(error); ok {
				rerr = err
				return
			}
			panic(r)
		}
	}()
	e.Run()
	return nil
}

// TestAbortFromRunLoop aborts a multi-task simulation from another
// goroutine (the watchdog pattern) and checks the typed error and its
// progress dump.
func TestAbortFromRunLoop(t *testing.T) {
	e := NewEngine()
	started := make(chan struct{})
	var signaled bool
	for i := 0; i < 3; i++ {
		e.Spawn("core", Time(i), func(tk *Task) {
			for {
				if !signaled { // domain is single-threaded; no lock needed
					signaled = true
					close(started)
				}
				tk.Advance(3)
				tk.Sync()
			}
		})
	}
	go func() {
		<-started
		e.Abort("watchdog: job exceeded 1ms wall clock")
	}()
	err := recoverRunError(e)
	ae, ok := err.(*AbortError)
	if !ok {
		t.Fatalf("Run error = %#v, want *AbortError", err)
	}
	if ae.Reason != "watchdog: job exceeded 1ms wall clock" {
		t.Fatalf("abort reason = %q", ae.Reason)
	}
	st := ae.EngineState()
	if st.Live != 3 || len(st.Tasks) != 3 {
		t.Fatalf("snapshot = %+v, want 3 live tasks", st)
	}
	if !strings.Contains(ae.Error(), "sim: aborted: watchdog") {
		t.Fatalf("Error() = %q", ae.Error())
	}
}

// TestAbortCancelsFastPathLoop proves the watchdog can cancel a
// simulation that never takes the slow path: a lone task advancing and
// syncing forever is all fast path, so only the abort check inside Sync
// can stop it.
func TestAbortCancelsFastPathLoop(t *testing.T) {
	e := NewEngine()
	started := make(chan struct{})
	var once bool
	e.Spawn("spinner", 0, func(tk *Task) {
		for {
			if !once {
				once = true
				close(started)
			}
			tk.Advance(1)
			tk.Sync()
		}
	})
	done := make(chan error, 1)
	go func() { done <- recoverRunError(e) }()
	<-started
	e.Abort("watchdog: stalled")
	select {
	case err := <-done:
		if _, ok := err.(*AbortError); !ok {
			t.Fatalf("Run error = %#v, want *AbortError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abort did not cancel the fast-path loop")
	}
}

// TestAbortFirstReasonWins pins the Abort contract: concurrent or
// repeated Aborts keep the first reason.
func TestAbortFirstReasonWins(t *testing.T) {
	e := NewEngine()
	e.Abort("first")
	e.Abort("second")
	e.Spawn("a", 0, func(tk *Task) {})
	err := recoverRunError(e)
	ae, ok := err.(*AbortError)
	if !ok || ae.Reason != "first" {
		t.Fatalf("Run error = %#v, want *AbortError with reason \"first\"", err)
	}
}

// TestAbortAfterRunIsNoOp pins the report-finalization invariant: once
// Run has returned, Abort must have no effect (DESIGN.md).
func TestAbortAfterRunIsNoOp(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", 0, func(tk *Task) { tk.Advance(5); tk.Sync() })
	if err := recoverRunError(e); err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	e.Abort("too late") // must not panic or disturb anything
	if e.Now() != 5 {
		t.Fatalf("Now = %v after post-Run Abort, want 5", e.Now())
	}
}

// TestTaskPanicForwarded proves a panic in model code in a coroutine
// task surfaces as a typed *TaskPanicError out of Run — on the driving
// goroutine — naming the task and carrying its stack.
func TestTaskPanicForwarded(t *testing.T) {
	e := NewEngine()
	e.Spawn("victim", 0, func(tk *Task) {
		tk.Advance(7)
		tk.Sync()
		panic("model bug: negative occupancy")
	})
	e.Spawn("bystander", 1, func(tk *Task) { tk.Block() })
	err := recoverRunError(e)
	pe, ok := err.(*TaskPanicError)
	if !ok {
		t.Fatalf("Run error = %#v, want *TaskPanicError", err)
	}
	if pe.TaskName != "victim" {
		t.Fatalf("TaskName = %q, want victim", pe.TaskName)
	}
	if pe.Value != "model bug: negative occupancy" {
		t.Fatalf("Value = %v", pe.Value)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("Stack missing: %q", pe.Stack)
	}
	if !strings.Contains(pe.Error(), `task "victim" panicked`) {
		t.Fatalf("Error() = %q", pe.Error())
	}
}

// TestLivelockTypedError checks the MaxTime safety net raises a typed
// value whose message keeps the historical wording.
func TestLivelockTypedError(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 100
	e.Spawn("runaway", 0, func(tk *Task) {
		for {
			tk.Advance(60)
			tk.Sync()
		}
	})
	e.Spawn("peer", 0, func(tk *Task) {
		for {
			tk.Advance(60)
			tk.Sync()
		}
	})
	err := recoverRunError(e)
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("Run error = %#v, want *LivelockError", err)
	}
	if le.MaxTime != 100 {
		t.Fatalf("MaxTime = %v", le.MaxTime)
	}
	if !strings.Contains(le.Error(), "exceeded MaxTime") || !strings.Contains(le.Error(), "livelock") {
		t.Fatalf("Error() = %q", le.Error())
	}
}

// TestShutdownDrainsParkedGoroutines proves a failed run leaks no task
// coroutines once Shutdown has stopped them — a suspended coroutine is
// never garbage collected, so without the stop every failed job in a
// long campaign would pin its tasks forever.
func TestShutdownDrainsParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		e := NewEngine()
		for j := 0; j < 8; j++ {
			e.Spawn("stuck", Time(j), func(tk *Task) {
				tk.Advance(5)
				tk.Sync()
				tk.BlockOn("nothing ever")
			})
		}
		if _, ok := recoverRunError(e).(*DeadlockError); !ok {
			t.Fatal("expected deadlock")
		}
	}
	// Give the stopped coroutines a moment to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, n)
	}
}

// TestShutdownIdempotent checks repeated Shutdown calls are safe, as are
// Shutdowns of engines that finished cleanly or never ran.
func TestShutdownIdempotent(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", 0, func(tk *Task) {})
	if err := recoverRunError(e); err != nil {
		t.Fatalf("clean run errored: %v", err)
	}
	e.Shutdown()
	e.Shutdown()

	fresh := NewEngine()
	fresh.Shutdown() // never ran, no tasks
}

// TestEngineStateSnapshotStates covers the per-task state labels in the
// progress dump.
func TestEngineStateSnapshotStates(t *testing.T) {
	e := NewEngine()
	e.Spawn("finisher", 0, func(tk *Task) {})
	e.Spawn("blocker", 1, func(tk *Task) { tk.BlockOn("lock q.lock") })
	e.Spawn("runner", 2, func(tk *Task) {
		tk.Advance(50)
		tk.Sync()
		tk.Block()
	})
	err := recoverRunError(e)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run error = %#v, want *DeadlockError", err)
	}
	states := map[string]string{}
	for _, ts := range de.State.Tasks {
		states[ts.Name] = ts.State
	}
	want := map[string]string{"finisher": "done", "blocker": "blocked", "runner": "blocked"}
	for name, st := range want {
		if states[name] != st {
			t.Fatalf("task %s state = %q, want %q (all: %v)", name, states[name], st, states)
		}
	}
}
