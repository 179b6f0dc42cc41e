package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// checkHeapKeys asserts the scheduler heap's invariant: every slot's
// inline (time, id) key equals its task's, and every slot's task is
// queued.
func checkHeapKeys(t *testing.T, e *Engine, where string) {
	t.Helper()
	for i, s := range e.queue.s {
		if s.time != s.t.time || s.id != s.t.id || !s.t.queued {
			t.Fatalf("%s: heap slot %d key (%d, %d) for task %q at (%d, %d), queued %v",
				where, i, s.time, s.id, s.t.name, s.t.time, s.t.id, s.t.queued)
		}
	}
}

// keyedStepper is an inline task for the heap-key schedules: each step
// checks the heap, advances by its next delta and sometimes wakes a
// waiter or blocks on the shared wait list, spinning (Task.Spin) when
// the choice says so.
type keyedStepper struct {
	tt      *testing.T
	e       *Engine
	choices []int
	n       int
	waiting *[]*Task
	id      int
}

func (s *keyedStepper) Step(tk *Task) Status {
	for {
		checkHeapKeys(s.tt, s.e, fmt.Sprintf("inline %d step %d", s.id, s.n))
		if s.n == len(s.choices) {
			return StatusDone
		}
		c := s.choices[s.n]
		s.n++
		for len(*s.waiting) > 0 && c%3 == 0 {
			w := (*s.waiting)[0]
			*s.waiting = (*s.waiting)[1:]
			w.Unblock(tk.Time() + Time(c%4))
		}
		tk.Advance(Time(c % 5))
		if c%4 == 1 {
			*s.waiting = append(*s.waiting, tk)
			return StatusBlocked
		}
		if c%2 == 0 && tk.Spin() {
			continue
		}
		return StatusRunning
	}
}

// TestHeapKeysMatchTasks drives randomized Block/Unblock/Advance
// schedules over coroutine and inline tasks and checks, every time a
// task resumes after a dispatch (or a Sync fast path, or a Spin), that
// each heap slot's key equals its task's (time, id): the invariant
// that lets the heap compare keys without loading tasks.
func TestHeapKeysMatchTasks(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var waiting []*Task
		live := 0
		for i := 0; i < 3+rng.Intn(6); i++ {
			choices := make([]int, 20+rng.Intn(60))
			for j := range choices {
				choices[j] = rng.Intn(12)
			}
			live++
			if i%2 == 1 {
				e.SpawnInline(fmt.Sprintf("i%d", i), Time(rng.Intn(3)),
					&countingRunnable{r: &keyedStepper{tt: t, e: e, choices: choices, waiting: &waiting, id: i}, done: func() { live-- }})
				continue
			}
			id := i
			e.Spawn(fmt.Sprintf("c%d", i), Time(rng.Intn(3)), func(tk *Task) {
				for j, c := range choices {
					tk.Advance(Time(c % 5))
					tk.Sync()
					checkHeapKeys(t, e, fmt.Sprintf("coroutine %d step %d", id, j))
					for len(waiting) > 0 && c%3 == 0 {
						w := waiting[0]
						waiting = waiting[1:]
						w.Unblock(tk.Time() + Time(c%4))
					}
					if id != 0 && c%4 == 1 {
						waiting = append(waiting, tk)
						tk.Block()
						checkHeapKeys(t, e, fmt.Sprintf("coroutine %d wake %d", id, j))
					}
				}
				live--
			})
		}
		// Task 0 never blocks; the sweeper drains what is left.
		e.Spawn("sweeper", 1_000_000, func(tk *Task) {
			for live > 0 {
				if len(waiting) > 0 {
					w := waiting[0]
					waiting = waiting[1:]
					w.Unblock(tk.Time())
				}
				tk.Advance(1)
				tk.Sync()
				checkHeapKeys(t, e, "sweeper")
			}
		})
		e.Run()
	}
}

// countingRunnable wraps a Runnable, counting Step calls and running
// done once the wrapped body finishes.
type countingRunnable struct {
	r     Runnable
	calls int
	done  func()
}

func (c *countingRunnable) Step(t *Task) Status {
	c.calls++
	s := c.r.Step(t)
	if s == StatusDone && c.done != nil {
		c.done()
	}
	return s
}

// spinner is a DMA-shaped inline task: short steps that spin while the
// task stays globally minimal, and return once a coroutine peer is due.
type spinner struct {
	id     int
	deltas []Time
	n      int
	order  *[]step
}

func (s *spinner) Step(t *Task) Status {
	for {
		if s.n == len(s.deltas) {
			return StatusDone
		}
		d := s.deltas[s.n]
		s.n++
		*s.order = append(*s.order, step{s.id, t.Time()})
		t.Advance(d)
		if t.Spin() {
			continue
		}
		return StatusRunning
	}
}

// spinSchedule runs inline spinners beside lockstep coroutine tasks and
// returns the event order, the engine metrics, the flight recorder's
// last events and the spinners' Step call count.
func spinSchedule(seed int64, noSpin bool) ([]step, Metrics, []FlightEvent, int) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.noSpin = noSpin
	e.SetFlightRecorder(64)
	var order []step
	var steppers []*countingRunnable
	for i := 0; i < 2+rng.Intn(4); i++ {
		deltas := make([]Time, 50+rng.Intn(200))
		for j := range deltas {
			deltas[j] = Time(rng.Intn(3))
		}
		c := &countingRunnable{r: &spinner{id: 100 + i, deltas: deltas, order: &order}}
		steppers = append(steppers, c)
		e.SpawnInline(fmt.Sprintf("s%d", i), Time(rng.Intn(5)), c)
	}
	for i := 0; i < 1+rng.Intn(3); i++ {
		id := i
		deltas := make([]Time, 20+rng.Intn(40))
		for j := range deltas {
			deltas[j] = Time(rng.Intn(30))
		}
		e.Spawn(fmt.Sprintf("c%d", i), 0, func(tk *Task) {
			for _, d := range deltas {
				tk.Advance(d)
				tk.Sync()
				order = append(order, step{id, tk.Time()})
			}
		})
	}
	e.Run()
	calls := 0
	for _, c := range steppers {
		calls += c.calls
	}
	return order, e.Metrics(), e.fr.snapshot(e.tasks), calls
}

// TestSpinScheduleEquivalence: a Step that continues through Task.Spin
// gives the same event order, engine metrics and flight record as one
// that returns StatusRunning every time, and spinning saves Step calls.
func TestSpinScheduleEquivalence(t *testing.T) {
	saved := 0
	for seed := int64(0); seed < 40; seed++ {
		on, mOn, frOn, callsOn := spinSchedule(seed, false)
		off, mOff, frOff, callsOff := spinSchedule(seed, true)
		if scheduleDigest(on) != scheduleDigest(off) {
			t.Fatalf("seed %d: event order differs with Spin on and off", seed)
		}
		if mOn != mOff {
			t.Fatalf("seed %d: metrics differ:\non  %+v\noff %+v", seed, mOn, mOff)
		}
		if fmt.Sprint(frOn) != fmt.Sprint(frOff) {
			t.Fatalf("seed %d: flight records differ:\non  %v\noff %v", seed, frOn, frOff)
		}
		saved += callsOff - callsOn
	}
	if saved <= 0 {
		t.Fatalf("Spin never continued a Step (saved %d calls)", saved)
	}
}

// TestPanicAfterSpinNamesTask: a panic in the part of a Step that runs
// after a Spin still surfaces as a *TaskPanicError naming the task, with
// its stack, now that the recover is deferred once per dispatch.
func TestPanicAfterSpinNamesTask(t *testing.T) {
	e := NewEngine()
	n := 0
	e.SpawnInline("spun", 0, runnableFunc(func(tk *Task) Status {
		for {
			if n++; n == 5 {
				panic("bug after spin")
			}
			tk.Advance(1)
			if !tk.Spin() {
				return StatusRunning
			}
		}
	}))
	err := recoverRunError(e)
	pe, ok := err.(*TaskPanicError)
	if !ok {
		t.Fatalf("Run error = %#v, want *TaskPanicError", err)
	}
	if pe.TaskName != "spun" || pe.Value != "bug after spin" || !strings.Contains(pe.Stack, "goroutine") {
		t.Fatalf("panic = %q/%v, stack %q", pe.TaskName, pe.Value, pe.Stack)
	}
	if pe.State.Metrics.InlineSteps != 5 || pe.State.Live != 0 {
		t.Fatalf("state = %+v, want 5 inline steps and no live task", pe.State)
	}
}

// runnableFunc adapts a function to Runnable.
type runnableFunc func(*Task) Status

func (f runnableFunc) Step(t *Task) Status { return f(t) }
