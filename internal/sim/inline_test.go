package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// checkFastPathEquivalence runs schedule for seeds 0..n-1 with the fast
// path (and the inline spin, which shares its condition) on and off:
// the step sequences must be identical.
func checkFastPathEquivalence(t *testing.T, n int64, schedule func(seed int64, noFastPath bool) []step) {
	t.Helper()
	for seed := int64(0); seed < n; seed++ {
		ref, got := schedule(seed, false), schedule(seed, true)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d steps with the fast path, %d without", seed, len(ref), len(got))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: step %d diverges: fast path %v, none %v", seed, i, ref[i], got[i])
			}
		}
	}
}

// scriptSM is a Runnable that advances through a fixed list of deltas,
// recording its local time at each dispatch — the state-machine twin of
// the coroutine bodies in fastpath_test.go (record after each yield).
type scriptSM struct {
	id     int
	deltas []Time
	i      int
	order  *[]step
}

func (s *scriptSM) Step(t *Task) Status {
	if s.i > 0 {
		*s.order = append(*s.order, step{s.id, t.Time()})
	}
	if s.i >= len(s.deltas) {
		return StatusDone
	}
	t.Advance(s.deltas[s.i])
	s.i++
	return StatusRunning
}

// TestInlineScheduleEquivalence is the randomized-schedule oracle for
// mixed task sets — some coroutine, some inline, random start times,
// random per-step advances including zero so equal timestamps are
// common: the observable event order must be identical with the fast
// path and inline spin on and off.
func TestInlineScheduleEquivalence(t *testing.T) {
	checkFastPathEquivalence(t, 40, func(seed int64, noFastPath bool) []step {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		e.noFastPath = noFastPath
		var order []step
		nTasks := 2 + rng.Intn(6)
		for i := 0; i < nTasks; i++ {
			id := i
			steps := 20 + rng.Intn(80)
			deltas := make([]Time, steps)
			for j := range deltas {
				deltas[j] = Time(rng.Intn(5)) // zeros exercise the tiebreak
			}
			start := Time(rng.Intn(3))
			if i%2 == 0 {
				e.SpawnInline(fmt.Sprintf("in%d", i), start,
					&scriptSM{id: id, deltas: deltas, order: &order})
			} else {
				e.Spawn(fmt.Sprintf("co%d", i), start, func(tk *Task) {
					for _, d := range deltas {
						tk.Advance(d)
						tk.Sync()
						order = append(order, step{id, tk.Time()})
					}
				})
			}
		}
		e.Run()
		return order
	})
}

// mixEnv is the shared world of the block/unblock stress: a FIFO of
// blocked tasks drained by whoever runs next (the domain is
// single-threaded, so no locking).
type mixEnv struct {
	waiting     []*Task
	order       *[]step
	liveWorkers int
}

// mixSM is the state-machine twin of blockSchedule's worker body: per choice c it advances, yields, drains waiters, maybe
// blocks itself on the wait list, and records its time.
type mixSM struct {
	id      int
	choices []int
	i       int
	phase   int
	env     *mixEnv
}

func (s *mixSM) Step(t *Task) Status {
	for {
		switch s.phase {
		case 0:
			if s.i >= len(s.choices) {
				s.env.liveWorkers--
				return StatusDone
			}
			t.Advance(Time(s.choices[s.i] % 5))
			s.phase = 1
			return StatusRunning
		case 1:
			c := s.choices[s.i]
			for len(s.env.waiting) > 0 && c%3 == 0 {
				w := s.env.waiting[0]
				s.env.waiting = s.env.waiting[1:]
				w.Unblock(t.Time() + Time(c%4))
			}
			// Task 0 never blocks, so the wait list always has a potential
			// drainer among the workers.
			if s.id != 0 && c%4 == 1 {
				s.env.waiting = append(s.env.waiting, t)
				t.WillBlockOn("test wait list")
				s.phase = 2
				return StatusBlocked
			}
			s.phase = 2
		case 2:
			*s.env.order = append(*s.env.order, step{s.id, t.Time()})
			s.i++
			s.phase = 0
		}
	}
}

// TestInlineBlockUnblockEquivalence extends the oracle to the
// Block/Unblock edges: inline workers and coroutine workers block on and
// drain a shared FIFO wait list (inline steps unblock coroutine tasks
// and vice versa), with a coroutine sweeper in the far future. The step
// sequence, each task's wake times included, must be identical with the
// fast path on and off.
func TestInlineBlockUnblockEquivalence(t *testing.T) {
	checkFastPathEquivalence(t, 25, func(seed int64, noFastPath bool) []step {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		e.noFastPath = noFastPath
		var order []step
		env := &mixEnv{order: &order}
		nTasks := 3 + rng.Intn(5)
		for i := 0; i < nTasks; i++ {
			id := i
			steps := 30 + rng.Intn(50)
			choices := make([]int, steps)
			for j := range choices {
				choices[j] = rng.Intn(10)
			}
			env.liveWorkers++
			start := Time(rng.Intn(3))
			if i%2 == 1 {
				e.SpawnInline(fmt.Sprintf("in%d", i), start,
					&mixSM{id: id, choices: choices, env: env})
			} else {
				e.Spawn(fmt.Sprintf("co%d", i), start, func(tk *Task) {
					for _, c := range choices {
						tk.Advance(Time(c % 5))
						tk.Sync()
						for len(env.waiting) > 0 && c%3 == 0 {
							w := env.waiting[0]
							env.waiting = env.waiting[1:]
							w.Unblock(tk.Time() + Time(c%4))
						}
						if id != 0 && c%4 == 1 {
							env.waiting = append(env.waiting, tk)
							tk.BlockOn("test wait list")
						}
						order = append(order, step{id, tk.Time()})
					}
					env.liveWorkers--
				})
			}
		}
		// A coroutine sweeper in the far future unblocks leftover waiters
		// until every worker has finished.
		e.Spawn("sweeper", 1_000_000, func(tk *Task) {
			for env.liveWorkers > 0 {
				if len(env.waiting) > 0 {
					w := env.waiting[0]
					env.waiting = env.waiting[1:]
					w.Unblock(tk.Time())
				}
				tk.Advance(1)
				tk.Sync()
			}
		})
		e.Run()
		return order
	})
}

// dynSM is a Runnable parent that spawns children mid-run: at scripted
// steps it registers a new task (alternating inline and coroutine) while
// the simulation is executing — the dynamic-spawn path the equivalence
// tests above never exercise.
type dynSM struct {
	id     int
	deltas []Time
	i      int
	order  *[]step
	spawn  func(at Time, k int)
}

func (s *dynSM) Step(t *Task) Status {
	if s.i > 0 {
		if s.i%5 == 3 {
			s.spawn(t.Time(), s.i)
		}
		*s.order = append(*s.order, step{s.id, t.Time()})
	}
	if s.i >= len(s.deltas) {
		return StatusDone
	}
	t.Advance(s.deltas[s.i])
	s.i++
	return StatusRunning
}

// dynamicSpawnSchedule is the mid-sim spawn stress: both coroutine and
// inline parents spawn both kinds of children while the simulation runs
// (from coroutine bodies and from inline Steps). Child record ids are
// assigned in spawn order, which the schedule itself makes
// deterministic.
func dynamicSpawnSchedule(seed int64, noFastPath bool) []step {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.noFastPath = noFastPath
	var order []step
	nextID := 100 // child ids; parents use 0..nParents-1
	nParents := 2 + rng.Intn(4)
	// Pre-generate child scripts so every mode consumes identical
	// randomness regardless of scheduling.
	childDeltas := make([][]Time, 64)
	for i := range childDeltas {
		d := make([]Time, 5+rng.Intn(15))
		for j := range d {
			d[j] = Time(rng.Intn(4))
		}
		childDeltas[i] = d
	}
	childN := 0
	spawnChild := func(at Time, k int) {
		if childN >= len(childDeltas) {
			return
		}
		deltas := childDeltas[childN]
		childN++
		id := nextID
		nextID++
		start := at + Time(k%3)
		if id%2 == 0 {
			e.SpawnInline(fmt.Sprintf("cin%d", id), start,
				&scriptSM{id: id, deltas: deltas, order: &order})
		} else {
			e.Spawn(fmt.Sprintf("cco%d", id), start, func(tk *Task) {
				for _, d := range deltas {
					tk.Advance(d)
					tk.Sync()
					order = append(order, step{id, tk.Time()})
				}
			})
		}
	}
	for i := 0; i < nParents; i++ {
		id := i
		steps := 25 + rng.Intn(40)
		deltas := make([]Time, steps)
		for j := range deltas {
			deltas[j] = Time(rng.Intn(5))
		}
		start := Time(rng.Intn(3))
		if i%2 == 0 {
			e.SpawnInline(fmt.Sprintf("pin%d", i), start,
				&dynSM{id: id, deltas: deltas, order: &order, spawn: spawnChild})
		} else {
			e.Spawn(fmt.Sprintf("pco%d", i), start, func(tk *Task) {
				for k, d := range deltas {
					tk.Advance(d)
					tk.Sync()
					if k > 0 && k%5 == 3 {
						spawnChild(tk.Time(), k)
					}
					order = append(order, step{id, tk.Time()})
				}
			})
		}
	}
	e.Run()
	return order
}

// dynamicSpawnGoldens holds dynamicSpawnSchedule's digest for seeds 0..24.
var dynamicSpawnGoldens = []string{
	"ad157ce84439f88f", "7daa4055cf54cd30", "1267604971e56e3d", "9ee92b9eefe31615", "78f9d5558506b447",
	"62b03b691038fdae", "bfb041156d6bedb8", "4e87abcc13b8a2f3", "04757c39627e6378", "a8e2ae239bc29078",
	"838f419e60b23945", "a05c1304089e4a19", "915bdb5735e7b3b8", "4a54b4f13dab4902", "62296565e3d8634a",
	"e8a28667a13d16bf", "41847b838df4e430", "051cc83a7f42581d", "f98ac9c4abc965f2", "830523e2cf40011b",
	"40d9dc59007c600f", "0d32a99dce9c60cb", "cd5272c94a018d09", "b96d6aa0339f3d25", "538aa01b912fec35",
}

// TestDynamicSpawnScheduleEquivalence pins the dynamic-spawn schedules to
// the goldens recorded from the channel-handoff engine, with the fast
// path on and off.
func TestDynamicSpawnScheduleEquivalence(t *testing.T) {
	checkScheduleGoldens(t, dynamicSpawnGoldens, dynamicSpawnSchedule)
}

// spinSM advances forever, signalling once it has started.
type spinSM struct {
	started chan struct{}
	once    bool
}

func (s *spinSM) Step(t *Task) Status {
	if !s.once {
		s.once = true
		close(s.started)
	}
	t.Advance(3)
	return StatusRunning
}

// TestAbortLandsMidInlineStep: a watchdog Abort arriving while Run is
// stepping inline tasks — alone, and interleaved with a coroutine task
// in the same lockstep — must cancel the run with a typed *AbortError
// and a coherent EngineState snapshot (every task runnable, none stuck
// "running" or lost).
func TestAbortLandsMidInlineStep(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		name := "engine-driven"
		if mixed {
			name = "task-driven"
		}
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			started := make(chan struct{})
			e.SpawnInline("in0", 0, &spinSM{started: started})
			e.SpawnInline("in1", 0, &spinSM{started: make(chan struct{})})
			tasks := 2
			if mixed {
				// A coroutine task in the same lockstep interleaves
				// resumes with the inline steps.
				e.Spawn("co2", 0, func(tk *Task) {
					for {
						tk.Advance(3)
						tk.Sync()
					}
				})
				tasks = 3
			}
			done := make(chan error, 1)
			go func() { done <- recoverRunError(e) }()
			<-started
			e.Abort("watchdog: inline loop stalled")
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("abort did not cancel the inline loop")
			}
			ae, ok := err.(*AbortError)
			if !ok {
				t.Fatalf("Run error = %#v, want *AbortError", err)
			}
			st := ae.EngineState()
			if st.Live != tasks || len(st.Tasks) != tasks {
				t.Fatalf("snapshot = %+v, want %d live tasks", st, tasks)
			}
			for _, ts := range st.Tasks {
				if ts.State != "runnable" {
					t.Fatalf("task %s state = %q after abort, want runnable (%+v)", ts.Name, ts.State, st.Tasks)
				}
			}
			if st.Metrics.InlineSteps == 0 {
				t.Fatalf("abort landed but no inline steps were counted: %+v", st.Metrics)
			}
		})
	}
}

// panicSM panics on its nth step.
type panicSM struct {
	n, at int
	msg   string
}

func (s *panicSM) Step(t *Task) Status {
	if s.n == s.at {
		panic(s.msg)
	}
	s.n++
	t.Advance(10)
	return StatusRunning
}

// TestInlinePanicBecomesTaskPanicError proves a panic inside an inline
// Step surfaces as a typed *TaskPanicError naming the inline task — both
// alone and interleaved with a coroutine task, which Shutdown must then
// stop.
func TestInlinePanicBecomesTaskPanicError(t *testing.T) {
	t.Run("engine-driven", func(t *testing.T) {
		e := NewEngine()
		e.SpawnInline("victim", 0, &panicSM{at: 0, msg: "inline bug: bad state"})
		err := recoverRunError(e)
		pe, ok := err.(*TaskPanicError)
		if !ok {
			t.Fatalf("Run error = %#v, want *TaskPanicError", err)
		}
		if pe.TaskName != "victim" || pe.Value != "inline bug: bad state" {
			t.Fatalf("panic = %q/%v", pe.TaskName, pe.Value)
		}
		if !strings.Contains(pe.Stack, "goroutine") {
			t.Fatalf("Stack missing: %q", pe.Stack)
		}
	})
	t.Run("task-driven", func(t *testing.T) {
		e := NewEngine()
		// The coroutine task (id 0) and the inline task (id 1) run in
		// lockstep, so the inline task's second step panics between two
		// resumes of the coroutine.
		e.Spawn("driver", 0, func(tk *Task) {
			for {
				tk.Advance(10)
				tk.Sync()
			}
		})
		e.SpawnInline("victim", 0, &panicSM{at: 1, msg: "inline bug: mid-chain"})
		err := recoverRunError(e)
		pe, ok := err.(*TaskPanicError)
		if !ok {
			t.Fatalf("Run error = %#v, want *TaskPanicError", err)
		}
		if pe.TaskName != "victim" || pe.Value != "inline bug: mid-chain" {
			t.Fatalf("panic = %q/%v", pe.TaskName, pe.Value)
		}
	})
}

// blockOnceSM blocks forever on a labelled resource at its first step.
type blockOnceSM struct{ label string }

func (s *blockOnceSM) Step(t *Task) Status {
	t.WillBlockOn(s.label)
	return StatusBlocked
}

// TestInlineDeadlockDiagnosed pins the deadlock diagnostics for inline
// tasks: WillBlockOn labels must appear in the DeadlockError exactly as
// BlockOn labels do, alongside a coroutine task's BlockOn label.
func TestInlineDeadlockDiagnosed(t *testing.T) {
	e := NewEngine()
	e.SpawnInline("inliner", 0, &blockOnceSM{label: "gizmo queue"})
	e.Spawn("partner", 1, func(tk *Task) {
		tk.Advance(5)
		tk.Sync()
		tk.BlockOn("widget lock")
	})
	err := recoverRunError(e)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run error = %#v, want *DeadlockError", err)
	}
	msg := de.Error()
	if !strings.Contains(msg, "inliner (awaiting gizmo queue, last sync 0ps)") {
		t.Fatalf("deadlock message %q missing inline task's label", msg)
	}
	if !strings.Contains(msg, "partner (awaiting widget lock") {
		t.Fatalf("deadlock message %q missing coroutine task's label", msg)
	}
}

// syncMisuseSM wrongly calls Sync from its Step once a peer precedes it.
type syncMisuseSM struct{}

func (syncMisuseSM) Step(t *Task) Status {
	t.Advance(100)
	t.Sync() // illegal: the fast path may absorb it, but a losing compare must panic
	return StatusRunning
}

// blockMisuseSM wrongly calls Block from its Step.
type blockMisuseSM struct{}

func (blockMisuseSM) Step(t *Task) Status {
	t.Block()
	return StatusBlocked
}

// TestInlineMisuseGuards pins the API misuse diagnostics: an inline
// Step calling Sync (when it would need to park) or Block panics with a
// directed message, surfacing as a *TaskPanicError like any body panic.
func TestInlineMisuseGuards(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		e := NewEngine()
		e.SpawnInline("misuser", 0, syncMisuseSM{})
		e.Spawn("peer", 0, func(tk *Task) {
			for i := 0; i < 50; i++ {
				tk.Advance(1)
				tk.Sync()
			}
		})
		err := recoverRunError(e)
		pe, ok := err.(*TaskPanicError)
		if !ok {
			t.Fatalf("Run error = %#v, want *TaskPanicError", err)
		}
		if !strings.Contains(fmt.Sprint(pe.Value), "Sync from inline task") {
			t.Fatalf("panic value = %v", pe.Value)
		}
	})
	t.Run("block", func(t *testing.T) {
		e := NewEngine()
		e.SpawnInline("misuser", 0, blockMisuseSM{})
		err := recoverRunError(e)
		pe, ok := err.(*TaskPanicError)
		if !ok {
			t.Fatalf("Run error = %#v, want *TaskPanicError", err)
		}
		if !strings.Contains(fmt.Sprint(pe.Value), "Block from inline task") {
			t.Fatalf("panic value = %v", pe.Value)
		}
	})
}

// TestInlineMetrics checks the inline counters: steps counted on both
// dispatch paths, InlineRate derived from them, inline pops not
// double-counted as engine dispatches, and the probe-facing snapshot
// name present.
func TestInlineMetrics(t *testing.T) {
	var order []step
	e := NewEngine()
	e.SpawnInline("a", 0, &scriptSM{id: 0, deltas: []Time{1, 1, 1, 1, 1}, order: &order})
	e.SpawnInline("b", 0, &scriptSM{id: 1, deltas: []Time{1, 1, 1, 1, 1}, order: &order})
	e.Run()
	m := e.Metrics()
	// Each task takes 6 steps (5 advances + the final done step).
	if m.InlineSteps != 12 {
		t.Errorf("InlineSteps = %d, want 12", m.InlineSteps)
	}
	if m.Dispatches != 0 || m.Handoffs != 0 {
		t.Errorf("all-inline run counted coroutine dispatches: %+v", m)
	}
	if r := m.InlineRate(); r != 1.0 {
		t.Errorf("InlineRate = %v, want 1", r)
	}
	got := map[string]float64{}
	m.Snapshot(func(name string, v float64) { got[name] = v })
	if got["inline_steps"] != 12 {
		t.Errorf("snapshot inline_steps = %v, want 12", got["inline_steps"])
	}

	// Mixed run: the inline task's steps and the coroutine task's
	// dispatches share the denominator.
	e = NewEngine()
	e.SpawnInline("in", 0, &scriptSM{id: 0, deltas: []Time{1, 1, 1}, order: &order})
	e.Spawn("go", 0, func(tk *Task) {
		for i := 0; i < 3; i++ {
			tk.Advance(1)
			tk.Sync()
		}
	})
	e.Run()
	m = e.Metrics()
	if m.InlineSteps == 0 {
		t.Errorf("mixed run counted no inline steps: %+v", m)
	}
	if r := m.InlineRate(); r <= 0 || r >= 1 {
		t.Errorf("mixed InlineRate = %v, want in (0,1)", r)
	}
}

// TestInlineLivelockDiagnosed proves the MaxTime safety net still trips
// when the runaway task is inline: the spin declines past MaxTime, the
// task requeues, and Run raises the typed *LivelockError.
func TestInlineLivelockDiagnosed(t *testing.T) {
	e := NewEngine()
	e.MaxTime = 1000
	e.SpawnInline("runaway", 0, &spinSM{started: make(chan struct{})})
	err := recoverRunError(e)
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("Run error = %#v, want *LivelockError", err)
	}
	if le.MaxTime != 1000 {
		t.Fatalf("MaxTime = %v", le.MaxTime)
	}
}
