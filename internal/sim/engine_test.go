package sim

import (
	"testing"
	"testing/quick"
)

func TestClockPeriods(t *testing.T) {
	cases := []struct {
		mhz    uint64
		period Time
	}{
		{800, 1250 * Picosecond},
		{1600, 625 * Picosecond},
		{3200, 312500 * Femtosecond},
		{6400, 156250 * Femtosecond},
	}
	for _, c := range cases {
		if got := MHz(c.mhz).Period; got != c.period {
			t.Errorf("MHz(%d).Period = %v, want %v", c.mhz, got, c.period)
		}
	}
}

func TestClockCycles(t *testing.T) {
	c := MHz(800)
	if got := c.Cycles(4); got != 5*Nanosecond {
		t.Errorf("Cycles(4) = %v, want 5ns", got)
	}
	if got := c.ToCycles(5 * Nanosecond); got != 4 {
		t.Errorf("ToCycles(5ns) = %d, want 4", got)
	}
	// Rounding up.
	if got := c.ToCycles(5*Nanosecond + 1); got != 5 {
		t.Errorf("ToCycles(5ns+1fs) = %d, want 5", got)
	}
}

func TestClockRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		c := MHz(3200)
		return c.ToCycles(c.Cycles(uint64(n))) == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{70 * Nanosecond, "70.000ns"},
		{2500 * Nanosecond, "2.500us"},
		{3 * Millisecond, "3.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", uint64(c.t), got, c.want)
		}
	}
}

func TestEngineOrdersTasksByTime(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("late", 100, func(tk *Task) {
		order = append(order, "late@start")
		tk.Advance(50)
		tk.Sync()
		order = append(order, "late@end")
	})
	e.Spawn("early", 10, func(tk *Task) {
		order = append(order, "early@start")
		tk.Advance(200)
		tk.Sync()
		order = append(order, "early@end")
	})
	e.Run()
	want := []string{"early@start", "late@start", "late@end", "early@end"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineDeterministicTieBreak(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("t", 5, func(tk *Task) { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] || a[i] != i {
			t.Fatalf("non-deterministic or unordered dispatch: %v vs %v", a, b)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine()
	var waiter *Task
	var wokeAt Time
	e.Spawn("waiter", 0, func(tk *Task) {
		waiter = tk
		tk.Block()
		wokeAt = tk.Time()
	})
	e.Spawn("waker", 10, func(tk *Task) {
		tk.Advance(90)
		tk.Sync()
		waiter.Unblock(tk.Time())
	})
	e.Run()
	if wokeAt != 100 {
		t.Errorf("waiter woke at %d, want 100", wokeAt)
	}
}

func TestUnblockNeverMovesClockBackwards(t *testing.T) {
	e := NewEngine()
	var wokeAt Time
	waiter := e.Spawn("waiter", 0, func(tk *Task) {
		tk.Advance(500)
		tk.Sync()
		tk.Block()
		wokeAt = tk.Time()
	})
	e.Spawn("waker", 1000, func(tk *Task) {
		waiter.Unblock(10) // earlier than both clocks
	})
	e.Run()
	// The wake must not precede the waking event (t=1000), and certainly
	// not the waiter's own clock (t=500).
	if wokeAt != 1000 {
		t.Errorf("waiter woke at %d, want 1000", wokeAt)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine()
	e.Spawn("stuck", 0, func(tk *Task) { tk.Block() })
	e.Run()
}

func TestSpawnFromRunningTask(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", 0, func(tk *Task) {
		tk.engine.Spawn("child", tk.Time()+5, func(c *Task) { childRan = true })
		tk.Advance(100)
		tk.Sync()
	})
	e.Run()
	if !childRan {
		t.Error("child task did not run")
	}
}

func TestServerFIFOContention(t *testing.T) {
	s := NewServer("bus")
	start1 := s.Acquire(0, 10)
	start2 := s.Acquire(3, 10)
	start3 := s.Acquire(25, 10)
	if start1 != 0 || start2 != 10 || start3 != 25 {
		t.Errorf("starts = %d,%d,%d; want 0,10,25", start1, start2, start3)
	}
	if s.BusyTime() != 30 || s.Uses() != 3 {
		t.Errorf("busy=%d uses=%d; want 30, 3", s.BusyTime(), s.Uses())
	}
}

func TestServerNeverOverlapsAndNeverEarly(t *testing.T) {
	// Property: grants start no earlier than requested, and tracked
	// reservations never overlap (they are sorted, disjoint intervals).
	f := func(reqs []struct {
		At  uint16
		Dur uint8
	}) bool {
		s := NewServer("x")
		for _, r := range reqs {
			dur := Time(r.Dur%64) + 1
			start := s.Acquire(Time(r.At), dur)
			if start < Time(r.At) {
				return false
			}
		}
		ivs := s.Reservations()
		for i := 1; i < len(ivs); i++ {
			if ivs[i][0] < ivs[i-1][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerBackfillsGaps(t *testing.T) {
	// A future booking must not delay an earlier-time request that fits
	// in the gap before it.
	s := NewServer("x")
	s.Acquire(1000, 10) // future booking [1000,1010)
	start := s.Acquire(0, 10)
	if start != 0 {
		t.Errorf("earlier request got start %d, want 0 (backfill)", start)
	}
	// But a request that does not fit before the booking queues after.
	start2 := s.Acquire(995, 10)
	if start2 != 1010 {
		t.Errorf("conflicting request got %d, want 1010", start2)
	}
}

func TestPipeTransfer(t *testing.T) {
	// 16 bytes/cycle at 800 MHz (1.25ns), 2.5ns latency: the paper's
	// crossbar port. A 32-byte transfer occupies 2 cycles.
	p := NewPipe("xbar", 16, MHz(800), 2500*Picosecond)
	done := p.Transfer(0, 32)
	want := 2*1250*Picosecond + 2500*Picosecond
	if done != want {
		t.Errorf("done = %v, want %v", done, want)
	}
	// A second transfer issued at time 0 queues behind the first but
	// overlaps in the pipeline.
	done2 := p.Transfer(0, 32)
	if done2 != want+2*1250*Picosecond {
		t.Errorf("done2 = %v, want %v", done2, want+2*1250*Picosecond)
	}
}

func TestPipeZeroBytes(t *testing.T) {
	p := NewPipe("x", 16, MHz(800), 10)
	if got := p.Transfer(100, 0); got != 110 {
		t.Errorf("zero-byte transfer done = %d, want 110", got)
	}
}

func TestEngineManyTasksProgress(t *testing.T) {
	e := NewEngine()
	total := 0
	for i := 0; i < 64; i++ {
		e.Spawn("w", Time(i), func(tk *Task) {
			for j := 0; j < 100; j++ {
				tk.Advance(7)
				tk.Sync()
			}
			total++
		})
	}
	e.Run()
	if total != 64 {
		t.Errorf("finished %d tasks, want 64", total)
	}
}

func TestServerPrunesOldReservations(t *testing.T) {
	s := NewServer("x")
	e := NewEngine()
	s.SetHorizon(e)
	for i := Time(0); i < 100; i++ {
		s.Acquire(i*100, 50)
	}
	// Once the engine clock passes them, the old intervals are
	// unreachable and must be pruned (bounded memory for long
	// simulations); only the new booking stays.
	e.now = 9960
	s.Acquire(e.now, 10)
	if got := s.Reservations(); len(got) != 1 || got[0] != [2]Time{9960, 9970} {
		t.Errorf("reservations after pruning = %v, want only [9960 9970]", got)
	}
	// Utilization accounting survives pruning.
	if s.BusyTime() != 100*50+10 {
		t.Errorf("busy time %d, want %d", s.BusyTime(), 100*50+10)
	}
}

func TestEngineMaxTimeAborts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxTime panic")
		}
	}()
	e := NewEngine()
	e.MaxTime = 1000
	e.Spawn("runaway", 0, func(tk *Task) {
		for {
			tk.Advance(100)
			tk.Sync()
		}
	})
	e.Run()
}
