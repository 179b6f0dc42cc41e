// Package fault provides deterministic failure injection for the run
// layer's robustness tests: workloads that deadlock, stall forever,
// panic or fail verification, plus deliberately corrupted
// configurations. Every fault fires from the simulation's own
// deterministic state (task IDs) — never the clock — so an injected
// failure reproduces identically on every run. That is why the run
// layer runs each job once: only a stall's watchdog timeout depends on
// the host, and resuming the campaign (paperbench -resume) re-runs it.
//
// The fault workloads are NOT registered by package init: call
// RegisterWorkloads from a test so production binaries never see them.
package fault

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/syncprim"
	"repro/internal/workload"
)

// Workload names injected by RegisterWorkloads.
const (
	Deadlock  = "fault-deadlock"  // core 0 exits holding the lock the rest acquire
	Stall     = "fault-stall"     // every core advances simulated time forever
	Panic     = "fault-panic"     // panics on every core except core 0
	BadVerify = "fault-badverify" // computes fine, fails verification
)

var registerOnce sync.Once

// RegisterWorkloads adds the fault workloads to the workload registry.
// Safe to call from multiple tests; registration happens once per
// process.
func RegisterWorkloads() {
	registerOnce.Do(func() {
		workload.Register(Deadlock, func(workload.Scale) core.Workload { return &deadlockWorkload{} })
		workload.Register(Stall, func(workload.Scale) core.Workload { return stallWorkload{} })
		workload.Register(Panic, func(workload.Scale) core.Workload { return panicWorkload{} })
		workload.Register(BadVerify, func(workload.Scale) core.Workload { return badVerifyWorkload{} })
	})
}

// deadlockWorkload drives the machine into a true synchronization
// deadlock: core 0 wins the lock race and finishes without releasing,
// every other core blocks in Acquire. On one core it degenerates to a
// clean (if useless) run, so use at least two cores to inject.
type deadlockWorkload struct{ lock *syncprim.Lock }

func (w *deadlockWorkload) Name() string           { return Deadlock }
func (w *deadlockWorkload) Setup(sys *core.System) { w.lock = syncprim.NewLock("fault.poison") }
func (w *deadlockWorkload) Run(p *cpu.Proc) {
	if p.ID() == 0 {
		w.lock.Acquire(p)
		return // exits still holding the lock
	}
	p.WaitUntil(100 * sim.Nanosecond) // let core 0 win the race
	w.lock.Acquire(p)
	w.lock.Release(p)
}
func (w *deadlockWorkload) Verify() error { return nil }

// stallWorkload never finishes: simulated time advances forever. With
// MaxSimTime disabled it runs until something outside the simulation
// (the per-job watchdog) aborts it; with MaxSimTime set it trips the
// livelock net instead.
type stallWorkload struct{}

func (stallWorkload) Name() string           { return Stall }
func (stallWorkload) Setup(sys *core.System) {}
func (stallWorkload) Run(p *cpu.Proc) {
	for {
		p.Work(1000)
		p.Task().Sync()
	}
}
func (stallWorkload) Verify() error { return nil }

// panicWorkload panics in workload code on every core but core 0, so a
// one-core baseline succeeds while any parallel configuration fails —
// exactly one poisoned region of a figure grid.
type panicWorkload struct{}

func (panicWorkload) Name() string           { return Panic }
func (panicWorkload) Setup(sys *core.System) {}
func (panicWorkload) Run(p *cpu.Proc) {
	if p.ID() != 0 {
		panic(fmt.Sprintf("fault: injected panic on core %d", p.ID()))
	}
	p.Work(1000)
}
func (panicWorkload) Verify() error { return nil }

// badVerifyWorkload simulates cleanly and then reports a wrong answer.
type badVerifyWorkload struct{}

func (badVerifyWorkload) Name() string           { return BadVerify }
func (badVerifyWorkload) Setup(sys *core.System) {}
func (badVerifyWorkload) Run(p *cpu.Proc)        { p.Work(1000) }
func (badVerifyWorkload) Verify() error {
	return fmt.Errorf("fault: injected verification failure (checksum mismatch)")
}

// CorruptedConfigs returns configurations corrupted one field at a time,
// keyed by the Config field that Validate must report. The run layer's
// tests prove each fails typed, synchronously, and before any simulation
// task spawns.
func CorruptedConfigs() map[string]core.Config {
	out := map[string]core.Config{}
	mk := func(field string, mutate func(*core.Config)) {
		cfg := core.DefaultConfig(core.CC, 4)
		mutate(&cfg)
		out[field] = cfg
	}
	mk("Cores", func(c *core.Config) { c.Cores = -4 })
	mk("CoreMHz", func(c *core.Config) { c.CoreMHz = 0 })
	mk("Model", func(c *core.Config) { c.Model = core.Model(42) })
	mk("PrefetchDepth", func(c *core.Config) { c.Model = core.STR; c.PrefetchDepth = 4 })
	mk("StoreBuffer", func(c *core.Config) { c.StoreBuffer = -1 })
	mk("FlightRecorder", func(c *core.Config) { c.FlightRecorder = -1 })
	return out
}
