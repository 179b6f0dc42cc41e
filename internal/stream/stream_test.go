package stream

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/ledger"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uncore"
)

// runSTR executes a body on one streaming core with a timeline armed,
// and checks that the timeline is a view of the core's ledger: per
// stall or wait class, the spans sum to the class total.
func runSTR(t *testing.T, body func(p *cpu.Proc, m *Mem)) (*cpu.Proc, *Mem, *uncore.Uncore) {
	t.Helper()
	eng := sim.NewEngine()
	unc := uncore.New(uncore.DefaultConfig(), noc.New(noc.DefaultConfig(4)))
	m := New(0, 0, DefaultConfig(), unc)
	m.Spawn(eng)
	p := cpu.New(0, 0, cpu.Config{Clock: sim.MHz(800)})
	tl := trace.New()
	eng.Spawn("core0", 0, func(task *sim.Task) {
		p.Bind(task, m, tl)
		body(p, m)
		p.Finish()
	})
	eng.Run()
	for c := ledger.LoadStall; c < ledger.Idle; c++ {
		var got sim.Time
		for _, s := range tl.Spans() {
			if s.Name == c.String() {
				got += s.Dur
			}
		}
		if want := p.Ledger().Get(c); got != want {
			t.Errorf("%s spans sum to %v, ledger %v", c, got, want)
		}
	}
	return p, m, unc
}

func TestSmallCacheHitsAfterMiss(t *testing.T) {
	p, m, _ := runSTR(t, func(p *cpu.Proc, m *Mem) {
		p.Load(0x1000)
		p.Load(0x1004)
	})
	st := m.Cache().Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Errorf("cache stats = %+v, want 2 reads 1 hit", st)
	}
	if p.Breakdown().LoadStall < 70*sim.Nanosecond {
		t.Error("miss through small cache should pay DRAM latency")
	}
}

func TestLSAccessesAreSingleCycle(t *testing.T) {
	p, m, _ := runSTR(t, func(p *cpu.Proc, m *Mem) {
		m.LSLoadN(p, 100)
		m.LSStoreN(p, 50)
	})
	if got := p.Breakdown().Total(); got != sim.MHz(800).Cycles(150) {
		t.Errorf("150 LS accesses took %v, want 150 cycles", got)
	}
	st := m.LocalStore().Stats()
	if st.Reads != 100 || st.Writes != 50 {
		t.Errorf("LS stats = %+v", st)
	}
}

func TestGetWaitChargesSync(t *testing.T) {
	p, _, unc := runSTR(t, func(p *cpu.Proc, m *Mem) {
		tag := m.Get(p, 0x100000, 4096)
		m.Wait(p, tag)
	})
	if p.Breakdown().Sync == 0 {
		t.Error("DMA wait charged no sync time")
	}
	if got := unc.DRAM().Stats().ReadBytes; got != 4096 {
		t.Errorf("DRAM read %d bytes, want 4096", got)
	}
}

func TestDoubleBufferingHidesTransfer(t *testing.T) {
	// Process 8 blocks of 4 KB with compute roughly equal to transfer
	// time; double buffering should hide most of the DMA latency.
	const blocks, bsz = 8, 4096
	run := func(double bool) sim.Time {
		p, _, _ := runSTR(t, func(p *cpu.Proc, m *Mem) {
			in := mem.Addr(0x100000)
			if !double {
				for b := 0; b < blocks; b++ {
					tag := m.Get(p, in+mem.Addr(b*bsz), bsz)
					m.Wait(p, tag)
					p.Work(2000)
				}
				return
			}
			tag := m.Get(p, in, bsz)
			for b := 0; b < blocks; b++ {
				var next interface{}
				_ = next
				cur := tag
				if b+1 < blocks {
					tag = m.Get(p, in+mem.Addr((b+1)*bsz), bsz)
				}
				m.Wait(p, cur)
				p.Work(2000)
			}
		})
		return p.FinishTime()
	}
	serial := run(false)
	dbl := run(true)
	if dbl >= serial {
		t.Errorf("double-buffered %v not faster than serial %v", dbl, serial)
	}
}

func TestFlushDrainsOutstandingPut(t *testing.T) {
	_, _, unc := runSTR(t, func(p *cpu.Proc, m *Mem) {
		m.Put(p, 0x200000, 8192)
		// No wait: Finish -> Flush must drain it.
	})
	if got := unc.DRAM().Stats().WriteBytes; got == 0 {
		// Data may still be dirty in L2 (write-back); check it arrived
		// at least at the L2.
		if unc.Stats().WriteRequests == 0 {
			t.Error("unwaited Put never reached the memory system")
		}
	}
}

func TestDirtyCacheEvictionWritesBack(t *testing.T) {
	_, m, unc := runSTR(t, func(p *cpu.Proc, m *Mem) {
		// 8 KB 2-way: 128 sets; lines 4 KB apart share a set.
		p.Store(0x0)
		p.Store(0x0 + 4*1024)
		p.Store(0x0 + 8*1024) // evicts dirty 0x0
	})
	if m.Cache().Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", m.Cache().Stats().Writebacks)
	}
	if unc.Stats().WriteRequests == 0 {
		t.Error("dirty eviction never reached the L2")
	}
}

func TestStorePFSFallsBackToStore(t *testing.T) {
	p, _, _ := runSTR(t, func(p *cpu.Proc, m *Mem) {
		p.StorePFS(0x3000)
	})
	if p.Stats().Stores != 1 {
		t.Errorf("stores = %d, want 1", p.Stats().Stores)
	}
}

func TestStridedAndIndexedWrappers(t *testing.T) {
	p, m, unc := runSTR(t, func(p *cpu.Proc, m *Mem) {
		t1 := m.GetStrided(p, 0x100000, 8, 64, 32)
		m.Wait(p, t1)
		t2 := m.PutStrided(p, 0x200000, 8, 64, 32)
		m.Wait(p, t2)
		addrs := []mem.Addr{0x300000, 0x300400, 0x300800}
		t3 := m.GetIndexed(p, addrs, 8)
		m.Wait(p, t3)
	})
	st := m.DMA().Stats()
	if st.SparseElems != 32+32+3 {
		t.Errorf("sparse elems = %d, want 67", st.SparseElems)
	}
	if st.GetBytes != 32*8+3*8 || st.PutBytes != 32*8 {
		t.Errorf("bytes: get=%d put=%d", st.GetBytes, st.PutBytes)
	}
	// Index construction costs instructions on the core.
	if p.Stats().Instructions == 0 {
		t.Error("no instructions charged")
	}
	_ = unc
}

func TestWaitForAlreadyDoneTag(t *testing.T) {
	p, _, _ := runSTR(t, func(p *cpu.Proc, m *Mem) {
		tag := m.Get(p, 0x100000, 64)
		m.Wait(p, tag)
		before := p.Breakdown().Sync
		// Long after completion: a second phase waits on a new tag that
		// finishes before the core looks at it.
		p.WaitUntil(p.Now() + 50*sim.Microsecond)
		tag2 := m.Get(p, 0x200000, 64)
		p.Work(100000) // plenty of time for the transfer to finish
		m.Wait(p, tag2)
		after := p.Breakdown().Sync
		if after-before > 60*sim.Microsecond {
			t.Errorf("wait on finished tag charged %v sync", after-before)
		}
	})
	_ = p
}
