package cpu

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// fakeMem is a scriptable memory model: loads take loadLat, stores
// complete storeLat after issue. It records accessed addresses.
type fakeMem struct {
	loadLat  sim.Time
	storeLat sim.Time
	loads    []mem.Addr
	stores   []mem.Addr
	pfs      []mem.Addr
}

func (f *fakeMem) Load(p *Proc, a mem.Addr) sim.Time {
	f.loads = append(f.loads, a)
	return p.Now() + f.loadLat
}

func (f *fakeMem) Store(p *Proc, a mem.Addr, nbytes uint64) sim.Time {
	f.stores = append(f.stores, a)
	return p.Now() + f.storeLat
}

func (f *fakeMem) StorePFS(p *Proc, a mem.Addr, nbytes uint64) sim.Time {
	f.pfs = append(f.pfs, a)
	return p.Now() + f.storeLat
}

func (f *fakeMem) Flush(p *Proc) sim.Time { return p.Now() }

// runCore executes body on a single simulated core and returns the proc.
func runCore(t *testing.T, cfg Config, m ProcMem, body func(*Proc)) *Proc {
	t.Helper()
	if cfg.Clock.Period == 0 {
		cfg.Clock = sim.MHz(800)
	}
	e := sim.NewEngine()
	p := New(0, 0, cfg)
	e.Spawn("core0", 0, func(task *sim.Task) {
		p.Bind(task, m, nil)
		body(p)
		p.Finish()
	})
	e.Run()
	return p
}

func TestWorkChargesUseful(t *testing.T) {
	p := runCore(t, Config{}, &fakeMem{}, func(p *Proc) { p.Work(100) })
	if got := p.Breakdown().Useful; got != sim.MHz(800).Cycles(100) {
		t.Errorf("useful = %v, want 100 cycles", got)
	}
	if p.Stats().Instructions != 100 {
		t.Errorf("instructions = %d, want 100", p.Stats().Instructions)
	}
}

func TestLoadStallAttribution(t *testing.T) {
	m := &fakeMem{loadLat: 100 * sim.Nanosecond}
	p := runCore(t, Config{}, m, func(p *Proc) { p.Load(0x100) })
	bd := p.Breakdown()
	if bd.LoadStall != 100*sim.Nanosecond {
		t.Errorf("load stall = %v, want 100ns", bd.LoadStall)
	}
	if bd.Useful != sim.MHz(800).Cycles(1) {
		t.Errorf("useful = %v, want 1 cycle", bd.Useful)
	}
}

func TestStoreBufferHidesStores(t *testing.T) {
	// 8 stores with long completion fit in the buffer: no stall while
	// the core keeps running (Finish later drains the tail).
	m := &fakeMem{storeLat: 1000 * sim.Nanosecond}
	var during sim.Time
	runCore(t, Config{}, m, func(p *Proc) {
		for i := 0; i < StoreBufferEntries; i++ {
			p.Store(mem.Addr(i * 64))
		}
		during = p.Breakdown().StoreStall
	})
	if during != 0 {
		t.Errorf("store stall = %v, want 0 (buffer absorbs)", during)
	}
}

func TestStoreBufferFullStalls(t *testing.T) {
	m := &fakeMem{storeLat: 1000 * sim.Nanosecond}
	p := runCore(t, Config{}, m, func(p *Proc) {
		for i := 0; i < StoreBufferEntries+1; i++ {
			p.Store(mem.Addr(i * 64))
		}
	})
	if got := p.Breakdown().StoreStall; got == 0 {
		t.Error("9th outstanding store should stall")
	}
}

func TestFinishDrainsStores(t *testing.T) {
	m := &fakeMem{storeLat: 500 * sim.Nanosecond}
	p := runCore(t, Config{}, m, func(p *Proc) { p.Store(0x40) })
	// FinishTime must cover the store completion.
	if p.FinishTime() < 500*sim.Nanosecond {
		t.Errorf("finish at %v, want >= 500ns", p.FinishTime())
	}
	if p.Breakdown().StoreStall == 0 {
		t.Error("drain should charge store stall")
	}
}

func TestLoadNAccessesOncePerLine(t *testing.T) {
	m := &fakeMem{}
	p := runCore(t, Config{}, m, func(p *Proc) {
		p.LoadN(0, 4, 16) // 16 4-byte elements = 2 lines
	})
	if len(m.loads) != 2 {
		t.Errorf("memory consulted %d times, want 2 (one per line)", len(m.loads))
	}
	if p.Stats().Loads != 16 {
		t.Errorf("loads = %d, want 16", p.Stats().Loads)
	}
	if p.Stats().Instructions != 16 {
		t.Errorf("instructions = %d, want 16", p.Stats().Instructions)
	}
}

func TestLoadNUnaligned(t *testing.T) {
	m := &fakeMem{}
	p := runCore(t, Config{}, m, func(p *Proc) {
		p.LoadN(28, 4, 2) // elements at 28 and 32: two lines
	})
	if len(m.loads) != 2 {
		t.Errorf("memory consulted %d times, want 2", len(m.loads))
	}
	if p.Stats().Loads != 2 {
		t.Errorf("loads = %d, want 2", p.Stats().Loads)
	}
}

func TestStorePFSNRoutesToPFS(t *testing.T) {
	m := &fakeMem{}
	runCore(t, Config{}, m, func(p *Proc) { p.StorePFSN(0, 4, 8) })
	if len(m.pfs) != 1 || len(m.stores) != 0 {
		t.Errorf("pfs=%d stores=%d, want 1,0", len(m.pfs), len(m.stores))
	}
}

func TestICacheModel(t *testing.T) {
	cfg := Config{InstrPerIMiss: 100, IMissPenalty: 20 * sim.Nanosecond}
	p := runCore(t, cfg, &fakeMem{}, func(p *Proc) { p.Work(1000) })
	if got := p.Stats().IMisses; got != 10 {
		t.Errorf("imisses = %d, want 10", got)
	}
	want := sim.MHz(800).Cycles(1000) + 10*20*sim.Nanosecond
	if got := p.Breakdown().Useful; got != want {
		t.Errorf("useful = %v, want %v", got, want)
	}
}

func TestSnoopDebtStallsEveryOtherProbe(t *testing.T) {
	m := &fakeMem{}
	p := runCore(t, Config{}, m, func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.AddSnoopProbe()
		}
		p.Load(0)
	})
	if got := p.Stats().SnoopStalls; got != 2 {
		t.Errorf("snoop stalls = %d, want 2", got)
	}
}

func TestWaitUntilChargesSync(t *testing.T) {
	p := runCore(t, Config{}, &fakeMem{}, func(p *Proc) {
		p.WaitUntil(1 * sim.Microsecond)
	})
	if got := p.Breakdown().Sync; got != 1*sim.Microsecond {
		t.Errorf("sync = %v, want 1us", got)
	}
}

// TestTimelineMergesContiguousCharges: each stall or wait charge is a
// span named by its ledger class; a charge that starts where the class's
// previous span ended extends it, and one after intervening compute
// starts a new span.
func TestTimelineMergesContiguousCharges(t *testing.T) {
	tl := trace.New()
	e := sim.NewEngine()
	p := New(3, 0, Config{Clock: sim.MHz(800)})
	e.Spawn("core3", 0, func(task *sim.Task) {
		p.Bind(task, &fakeMem{loadLat: 100 * sim.Nanosecond}, tl)
		p.WaitUntil(1 * sim.Microsecond)
		p.WaitUntil(2 * sim.Microsecond) // contiguous: merged
		p.Load(0x100)                    // one issue cycle, then a stall
		p.Load(0x200)                    // the issue cycle separates the stalls
		p.Finish()
	})
	e.Run()
	cycle := sim.MHz(800).Cycles(1)
	want := []trace.Span{
		{Track: 3, Name: "sync_wait", Start: 0, Dur: 2 * sim.Microsecond},
		{Track: 3, Name: "load_stall", Start: 2*sim.Microsecond + cycle, Dur: 100 * sim.Nanosecond},
		{Track: 3, Name: "load_stall", Start: 2*sim.Microsecond + 2*cycle + 100*sim.Nanosecond, Dur: 100 * sim.Nanosecond},
	}
	if got := tl.Spans(); !slices.Equal(got, want) {
		t.Errorf("spans = %+v, want %+v", got, want)
	}
}

func TestBreakdownTotalMatchesFinishTime(t *testing.T) {
	m := &fakeMem{loadLat: 50 * sim.Nanosecond, storeLat: 200 * sim.Nanosecond}
	p := runCore(t, Config{InstrPerIMiss: 50, IMissPenalty: 10 * sim.Nanosecond}, m, func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Work(10)
			p.Load(mem.Addr(i * 32))
			p.Store(mem.Addr(4096 + i*32))
		}
		p.WaitUntil(p.Now() + 100*sim.Nanosecond)
	})
	if got, want := p.Breakdown().Total(), p.FinishTime(); got != want {
		t.Errorf("breakdown total %v != finish time %v", got, want)
	}
}

func TestElemsIn(t *testing.T) {
	// Elements of 4 bytes from base 0: line [32,64) holds elements 8..15.
	if got := elemsIn(32, 64, 0, 4); got != 8 {
		t.Errorf("elemsIn(32,64,0,4) = %d, want 8", got)
	}
	// Empty range.
	if got := elemsIn(64, 64, 0, 4); got != 0 {
		t.Errorf("empty range = %d, want 0", got)
	}
	// 12-byte elements from base 0 in line [32,64): first byte in range
	// for elements at 36, 48, 60 => 3.
	if got := elemsIn(32, 64, 0, 12); got != 3 {
		t.Errorf("elemsIn(32,64,0,12) = %d, want 3", got)
	}
}

// elemsInDiv is elemsIn with two divisions for every element size, the
// reference the shift path must match.
func elemsInDiv(lo, hi, base mem.Addr, elemSize uint64) uint64 {
	if hi <= lo {
		return 0
	}
	first := (uint64(lo-base) + elemSize - 1) / elemSize
	last := (uint64(hi-base) - 1) / elemSize
	if base+mem.Addr(first*elemSize) >= hi {
		return 0
	}
	return last - first + 1
}

// TestElemsInMatchesDivision walks every line of every LoadN/storeN
// call with element sizes 1..32, start offsets 0..63 and counts 0..80,
// as they do, and compares each line's count with the division
// reference; the counts must also sum to the call's element count.
func TestElemsInMatchesDivision(t *testing.T) {
	for size := uint64(1); size <= mem.LineSize; size++ {
		for off := mem.Addr(0); off < 64; off++ {
			for count := uint64(0); count <= 80; count++ {
				a := 0x10000 + off
				end := a + mem.Addr(count*size)
				var sum uint64
				for la := a.Line(); la < end; la += mem.LineSize {
					lo, hi := max(la, a), min(la+mem.LineSize, end)
					got, want := elemsIn(lo, hi, a, size), elemsInDiv(lo, hi, a, size)
					if got != want {
						t.Fatalf("elemsIn(%#x, %#x, %#x, %d) = %d, division gives %d", lo, hi, a, size, got, want)
					}
					sum += got
				}
				if sum != count {
					t.Fatalf("size %d offset %d: lines count %d elements, want %d", size, off, sum, count)
				}
			}
		}
	}
}

func TestStoreBufferDepthOne(t *testing.T) {
	// Depth 1 approximates blocking stores: the second outstanding store
	// stalls immediately.
	m := &fakeMem{storeLat: 500 * sim.Nanosecond}
	p := runCore(t, Config{StoreBuffer: 1}, m, func(p *Proc) {
		p.Store(0x00)
		p.Store(0x40)
	})
	if got := p.Breakdown().StoreStall; got < 400*sim.Nanosecond {
		t.Errorf("store stall %v; depth-1 buffer should stall on the 2nd store", got)
	}
}
