package syncprim

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

type nullMem struct{}

func (nullMem) Load(p *cpu.Proc, a mem.Addr) sim.Time               { return p.Now() }
func (nullMem) Store(p *cpu.Proc, a mem.Addr, n uint64) sim.Time    { return p.Now() }
func (nullMem) StorePFS(p *cpu.Proc, a mem.Addr, n uint64) sim.Time { return p.Now() }
func (nullMem) Flush(p *cpu.Proc) sim.Time                          { return p.Now() }

// runProcs executes one body per core on null memory.
func runProcs(t *testing.T, bodies ...func(p *cpu.Proc)) []*cpu.Proc {
	t.Helper()
	eng := sim.NewEngine()
	procs := make([]*cpu.Proc, len(bodies))
	for i, body := range bodies {
		i, body := i, body
		procs[i] = cpu.New(i, i/4, cpu.Config{Clock: sim.MHz(800)})
		eng.Spawn("core", 0, func(task *sim.Task) {
			procs[i].Bind(task, nullMem{}, nil)
			body(procs[i])
			procs[i].Finish()
		})
	}
	eng.Run()
	return procs
}

func TestLockMutualExclusion(t *testing.T) {
	l := NewLock("l")
	var insideAt []sim.Time // (enter, exit) pairs in acquisition order
	body := func(p *cpu.Proc) {
		for i := 0; i < 5; i++ {
			l.Acquire(p)
			insideAt = append(insideAt, p.Now())
			p.Work(100) // critical section
			insideAt = append(insideAt, p.Now())
			l.Release(p)
			p.Work(37)
		}
	}
	runProcs(t, body, body, body)
	// Critical sections must not overlap: every exit <= next enter.
	for i := 2; i < len(insideAt); i += 2 {
		if insideAt[i] < insideAt[i-1] {
			t.Fatalf("critical sections overlap: enter %v before previous exit %v", insideAt[i], insideAt[i-1])
		}
	}
	if l.Acquisitions != 15 {
		t.Errorf("acquisitions = %d, want 15", l.Acquisitions)
	}
	if l.Contended == 0 {
		t.Error("expected contention among 3 cores")
	}
}

func TestLockFIFOOrder(t *testing.T) {
	l := NewLock("l")
	var order []int
	mk := func(id int, start sim.Time) func(p *cpu.Proc) {
		return func(p *cpu.Proc) {
			p.WaitUntil(start)
			l.Acquire(p)
			order = append(order, id)
			p.Work(10000)
			l.Release(p)
		}
	}
	runProcs(t, mk(0, 0), mk(1, 1*sim.Microsecond), mk(2, 2*sim.Microsecond))
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

func TestReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := NewLock("l")
	// The held check fires before any task interaction, so an unbound
	// proc suffices (a panic inside a spawned task would kill the whole
	// test process instead of being recoverable here).
	l.Release(cpu.New(0, 0, cpu.Config{Clock: sim.MHz(800)}))
}

func TestBarrierReleasesTogether(t *testing.T) {
	b := NewBarrier("b", 3)
	var after [3]sim.Time
	mk := func(id int, work uint64) func(p *cpu.Proc) {
		return func(p *cpu.Proc) {
			p.Work(work)
			b.Wait(p)
			after[id] = p.Now()
		}
	}
	procs := runProcs(t, mk(0, 10), mk(1, 20000), mk(2, 500))
	// All exit at (nearly) the same simulated time, >= slowest arrival.
	slowest := sim.MHz(800).Cycles(20000)
	for i, a := range after {
		if a < slowest {
			t.Errorf("core %d left barrier at %v before slowest arrival %v", i, a, slowest)
		}
	}
	if after[0] != after[2] {
		t.Errorf("waiters released at different times: %v vs %v", after[0], after[2])
	}
	// The fast cores accumulated sync time.
	if procs[0].Breakdown().Sync == 0 {
		t.Error("fast core has no sync time")
	}
	if b.Waits != 1 {
		t.Errorf("barrier episodes = %d, want 1", b.Waits)
	}
}

func TestBarrierReusable(t *testing.T) {
	b := NewBarrier("b", 2)
	body := func(p *cpu.Proc) {
		for i := 0; i < 10; i++ {
			p.Work(uint64(10 * (p.ID() + 1)))
			b.Wait(p)
		}
	}
	runProcs(t, body, body)
	if b.Waits != 10 {
		t.Errorf("barrier episodes = %d, want 10", b.Waits)
	}
}

func TestTaskQueueDispensesAllItemsOnce(t *testing.T) {
	q := NewTaskQueue("q", 100)
	seen := make(map[int]int)
	body := func(p *cpu.Proc) {
		for {
			idx := q.Next(p)
			if idx < 0 {
				return
			}
			seen[idx]++
			p.Work(50)
		}
	}
	runProcs(t, body, body, body, body)
	if len(seen) != 100 {
		t.Fatalf("dispensed %d distinct items, want 100", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Errorf("item %d dispensed %d times", idx, n)
		}
	}
	if q.Remaining() != 0 {
		t.Errorf("remaining = %d, want 0", q.Remaining())
	}
}

func TestTaskQueueBalancesDynamically(t *testing.T) {
	// A core that works 10x slower should get roughly 10x fewer items.
	q := NewTaskQueue("q", 200)
	counts := [2]int{}
	mk := func(id int, work uint64) func(p *cpu.Proc) {
		return func(p *cpu.Proc) {
			for {
				if q.Next(p) < 0 {
					return
				}
				counts[id]++
				p.Work(work)
			}
		}
	}
	runProcs(t, mk(0, 100), mk(1, 1000))
	if counts[0] <= counts[1] {
		t.Errorf("fast core got %d items, slow got %d; want fast > slow", counts[0], counts[1])
	}
}
