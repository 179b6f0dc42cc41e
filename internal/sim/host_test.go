package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The tests in this file raise every failure a hosted dispatch loop can
// meet — one running on the coroutine of a task whose Sync missed the
// fast path — and check that it leaves Run exactly as it would have
// left Run's own loop: the same typed error, the same task name and the
// same EngineState, flight-recorder ring and metrics included. The
// goldens are digests of that state recorded from the engine in which
// every dispatch went through Run's loop (commit 4b59c1b).

// lockstep spawns n coroutine tasks that advance step and Sync forever.
func lockstep(e *Engine, n int, step Time) {
	for i := 0; i < n; i++ {
		e.Spawn("core", 0, func(tk *Task) {
			for {
				tk.Advance(step)
				tk.Sync()
			}
		})
	}
}

// hostFailureCases build one engine each, whose run fails inside a
// task's hosted loop.
var hostFailureCases = []struct {
	name   string
	build  func(e *Engine)
	golden string // "<error type> <task name> <state digest>"
}{
	{
		// A peer coroutine panics on its third resume by the host.
		name: "peer-coroutine-panic",
		build: func(e *Engine) {
			lockstep(e, 1, 10)
			e.Spawn("victim", 0, func(tk *Task) {
				for i := 0; i < 3; i++ {
					tk.Advance(10)
					tk.Sync()
				}
				panic("model bug: peer")
			})
		},
		golden: "*sim.TaskPanicError victim 25abf0f708a4dcbe",
	},
	{
		// An inline peer's Step panics while the host steps it.
		name: "peer-inline-panic",
		build: func(e *Engine) {
			lockstep(e, 1, 10)
			e.SpawnInline("victim", 0, &panicSM{at: 2, msg: "inline bug: peer"})
		},
		golden: "*sim.TaskPanicError victim 802d38529314c08f",
	},
	{
		// Two tasks pass MaxTime; the host dispatches past it.
		name: "max-time-livelock",
		build: func(e *Engine) {
			e.MaxTime = 100
			lockstep(e, 2, 60)
		},
		golden: "*sim.LivelockError  d9e4ae0a9e4ba94a",
	},
	{
		// Another goroutine aborts the run while a task is mid-body; the
		// task's next Sync hosts the loop, whose first check raises it.
		name: "abort-from-goroutine",
		build: func(e *Engine) {
			lockstep(e, 1, 10)
			e.Spawn("aborted", 0, func(tk *Task) {
				for i := 0; ; i++ {
					if i == 4 {
						done := make(chan struct{})
						go func() {
							e.Abort("watchdog: test")
							close(done)
						}()
						<-done
					}
					tk.Advance(10)
					tk.Sync()
				}
			})
		},
		golden: "*sim.AbortError  9311a6cc73a220d1",
	},
}

// failureFingerprint is a run error's type, task name (for a task panic)
// and the digest of its EngineState's JSON.
func failureFingerprint(t *testing.T, err error) (string, []byte) {
	t.Helper()
	re, ok := err.(RunError)
	if !ok {
		t.Fatalf("Run error = %#v, want a RunError", err)
	}
	name := ""
	if pe, ok := err.(*TaskPanicError); ok {
		name = pe.TaskName
	}
	js, jerr := json.Marshal(re.EngineState())
	if jerr != nil {
		t.Fatal(jerr)
	}
	sum := sha256.Sum256(js)
	return fmt.Sprintf("%T %s %s", err, name, hex.EncodeToString(sum[:])[:16]), js
}

// TestHostedFailuresSurfaceFromRun runs each case with the flight
// recorder armed and compares the failure with its golden. It also
// checks that the failure really was raised in a hosted loop (parked
// for Run) and that Shutdown leaves no coroutine behind.
func TestHostedFailuresSurfaceFromRun(t *testing.T) {
	for _, c := range hostFailureCases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			e := NewEngine()
			e.SetFlightRecorder(16)
			c.build(e)
			err := recoverRunError(e)
			got, js := failureFingerprint(t, err)
			if got != c.golden {
				t.Errorf("failure %q, golden %q\nstate: %s", got, c.golden, js)
			}
			if e.fail == nil {
				t.Errorf("failure was raised by Run's own loop, not a hosted one")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines leaked: %d before, %d after Shutdown", before, n)
			}
		})
	}
}
