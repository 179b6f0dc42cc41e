package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/sim"
)

// ErrKind classifies a job failure. The manifest records it so a
// campaign's failures are machine-greppable. Every kind but timeout is
// deterministic and fails identically when re-run; a timeout depends on
// the host, and resuming the campaign (paperbench -resume) re-runs it.
type ErrKind string

const (
	ErrConfig   ErrKind = "config"   // Config.Validate rejected the job
	ErrWorkload ErrKind = "workload" // unknown workload name
	ErrVerify   ErrKind = "verify"   // workload output failed verification
	ErrDeadlock ErrKind = "deadlock" // engine deadlock (model/workload bug)
	ErrLivelock ErrKind = "livelock" // simulated time passed MaxSimTime
	ErrTimeout  ErrKind = "timeout"  // per-job watchdog aborted the run
	ErrPanic    ErrKind = "panic"    // panic in Setup/model/workload code
)

// JobError is one job's structured failure: which job, how it failed,
// and — when the engine produced one — the probe-style engine-state
// snapshot (heap depth, last event time, per-task state) attached to
// the underlying typed error.
type JobError struct {
	Name string
	Cfg  core.Config
	Kind ErrKind
	Err  error
	// State is the engine's diagnostic snapshot for deadlock/livelock/
	// timeout/panic failures; nil for config, workload and verify errors,
	// which fail before or after the engine runs.
	State *sim.EngineState
}

func (e *JobError) Error() string {
	return fmt.Sprintf("%s %v/%d: %s error: %v",
		e.Name, e.Cfg.Model, e.Cfg.Cores, e.Kind, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// classify wraps a simulation error in a JobError, typing it by the
// engine's failure taxonomy (sim/abort.go) and extracting the snapshot.
func classify(name string, cfg core.Config, err error) *JobError {
	je := &JobError{Name: name, Cfg: cfg, Err: err}
	var de *sim.DeadlockError
	var le *sim.LivelockError
	var ae *sim.AbortError
	var pe *sim.TaskPanicError
	var rpe *core.RunPanicError
	switch {
	case errors.As(err, &de):
		je.Kind, je.State = ErrDeadlock, &de.State
	case errors.As(err, &le):
		je.Kind, je.State = ErrLivelock, &le.State
	case errors.As(err, &ae):
		je.Kind, je.State = ErrTimeout, &ae.State
	case errors.As(err, &pe):
		je.Kind, je.State = ErrPanic, &pe.State
	case errors.As(err, &rpe):
		je.Kind = ErrPanic
	default:
		// The only remaining System.Run error is Workload.Verify's.
		je.Kind = ErrVerify
	}
	return je
}

// GridError reports a figure or table grid that rendered with failed
// cells: how many of its distinct jobs succeeded, how many failed, and
// each failed job's JobError. Render and Table3 return it instead of aborting
// on the first bad cell, so one poisoned configuration costs one ERR
// marker, not the whole figure.
type GridError struct {
	OK     int
	Failed int
	Errs   []error
}

func (g *GridError) Error() string {
	return fmt.Sprintf("%d ok / %d failed", g.OK, g.Failed)
}

// Unwrap exposes the per-job errors to errors.As/Is.
func (g *GridError) Unwrap() []error { return g.Errs }

// gridTracker accumulates per-job outcomes while a grid renders. A job
// that backs several cells (a shared baseline, or one run drawn in two
// panels) counts once.
type gridTracker struct {
	seen   map[cfgKey]bool
	ok     int
	failed int
	errs   []error
}

// job records one cell's job result; true means the cell is usable.
func (g *gridTracker) job(j Job, err error) bool {
	if k := keyOf(j.Cfg, j.Name); !g.seen[k] {
		if g.seen == nil {
			g.seen = map[cfgKey]bool{}
		}
		g.seen[k] = true
		if err != nil {
			g.failed++
			g.errs = append(g.errs, err)
		} else {
			g.ok++
		}
	}
	return err == nil
}

// finish emits the summary line (only when something failed, keeping
// clean output byte-identical) and returns the GridError or nil.
func (g *gridTracker) finish(w io.Writer, figure string) error {
	if g.failed == 0 {
		return nil
	}
	fmt.Fprintf(w, "# %s: %d ok / %d failed\n", figure, g.ok, g.failed)
	return &GridError{OK: g.ok, Failed: g.failed, Errs: g.errs}
}
