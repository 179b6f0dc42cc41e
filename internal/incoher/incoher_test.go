package incoher

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// harness wires an engine, uncore and n incoherent cores.
type harness struct {
	eng   *sim.Engine
	mems  []*Mem
	unc   *uncore.Uncore
	procs []*cpu.Proc
}

func newHarness(n int) *harness {
	h := &harness{eng: sim.NewEngine()}
	net := noc.New(noc.DefaultConfig(n))
	h.unc = uncore.New(uncore.DefaultConfig(), net)
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, cpu.New(i, net.ClusterOf(i), cpu.Config{Clock: sim.MHz(800)}))
		h.mems = append(h.mems, New(i, net.ClusterOf(i), DefaultConfig(), h.unc))
	}
	return h
}

// stats sums the per-core counters.
func (h *harness) stats() Stats {
	var st Stats
	for _, m := range h.mems {
		st.Add(m.Stats())
	}
	return st
}

func (h *harness) run(bodies ...func(p *cpu.Proc)) {
	for i, body := range bodies {
		i, body := i, body
		h.eng.Spawn("core", 0, func(task *sim.Task) {
			p := h.procs[i]
			p.Bind(task, h.mems[i])
			body(p)
			p.Finish()
		})
	}
	h.eng.Run()
}

func TestMissesSkipSnoops(t *testing.T) {
	h := newHarness(4)
	bodies := make([]func(*cpu.Proc), 4)
	for i := range bodies {
		base := mem.Addr(0x10000 * (i + 1))
		bodies[i] = func(p *cpu.Proc) {
			for k := 0; k < 64; k++ {
				p.Load(base + mem.Addr(k*32))
			}
		}
	}
	h.run(bodies...)
	// No snoop probes anywhere: no coherence hardware.
	for i := 0; i < 4; i++ {
		if got := h.mems[i].Cache().Stats().SnoopLookups; got != 0 {
			t.Errorf("core %d saw %d snoop probes; INC has none", i, got)
		}
		if got := h.procs[i].Stats().SnoopStalls; got != 0 {
			t.Errorf("core %d charged %d snoop stalls", i, got)
		}
	}
}

func TestStoreNeedsNoOwnership(t *testing.T) {
	// Two cores write the same line; with no protocol, both keep their
	// (incoherent!) copies dirty. This is legal hardware behavior — it
	// is software's bug if it matters.
	h := newHarness(2)
	check := func(p *cpu.Proc) {
		// Sample before Finish (which flushes, as a well-behaved INC
		// program drains its dirty data at the end).
		ln := h.mems[p.ID()].Cache().Lookup(0x5000)
		if ln == nil || !ln.Dirty {
			t.Errorf("core %d lost its private dirty copy", p.ID())
		}
	}
	h.run(
		func(p *cpu.Proc) {
			p.Store(0x5000)
			p.WaitUntil(20 * sim.Microsecond)
			check(p)
		},
		func(p *cpu.Proc) {
			p.WaitUntil(10 * sim.Microsecond)
			p.Store(0x5000)
			p.WaitUntil(20 * sim.Microsecond)
			check(p)
		},
	)
}

func TestFlushRangeWritesBackDirtyLines(t *testing.T) {
	h := newHarness(1)
	h.run(func(p *cpu.Proc) {
		for k := 0; k < 16; k++ {
			p.StorePFS(mem.Addr(0x8000 + k*32)) // dirty 16 lines, no refills
		}
		m := p.Mem().(*Mem)
		m.FlushRange(p, 0x8000, 16*32)
	})
	if got := h.stats().Flushes; got != 16 {
		t.Errorf("flushed %d lines, want 16", got)
	}
	if got := h.unc.Stats().WriteRequests; got < 16 {
		t.Errorf("L2 saw %d writes, want >= 16", got)
	}
	// Lines stay resident and clean.
	ln := h.mems[0].Cache().Lookup(0x8000)
	if ln == nil || ln.Dirty {
		t.Errorf("flushed line should remain resident and clean, got %+v", ln)
	}
}

func TestInvalidateRangeForcesRefetch(t *testing.T) {
	h := newHarness(1)
	var missesBefore, missesAfter uint64
	h.run(func(p *cpu.Proc) {
		p.Load(0x9000)
		p.Load(0x9000) // hit
		missesBefore = h.stats().ReadMisses
		m := p.Mem().(*Mem)
		m.InvalidateRange(p, 0x9000, 32)
		p.Load(0x9000) // must re-fetch
		missesAfter = h.stats().ReadMisses
	})
	if missesAfter != missesBefore+1 {
		t.Errorf("invalidate did not force a refetch: %d -> %d", missesBefore, missesAfter)
	}
}

// TestProducerConsumerThroughFlush exercises the software-coherence
// pattern: producer stores + flush; consumer invalidates + loads and
// must observe a memory-system fetch (not a stale local hit).
func TestProducerConsumerThroughFlush(t *testing.T) {
	h := newHarness(2)
	region := mem.Addr(0xA000)
	h.run(
		func(p *cpu.Proc) {
			// Consumer warms a stale copy first.
			p.Load(region)
			p.WaitUntil(50 * sim.Microsecond) // after producer's flush
			m := p.Mem().(*Mem)
			m.InvalidateRange(p, region, 32)
			p.Load(region) // refetches the flushed data
		},
		func(p *cpu.Proc) {
			p.WaitUntil(10 * sim.Microsecond)
			p.Store(region)
			m := p.Mem().(*Mem)
			m.FlushRange(p, region, 32)
		},
	)
	st := h.stats()
	if st.Flushes != 1 || st.Invalidates != 1 {
		t.Errorf("flushes=%d invalidates=%d, want 1,1", st.Flushes, st.Invalidates)
	}
	// Consumer read the line twice from the memory system.
	if st.ReadMisses < 2 {
		t.Errorf("read misses = %d, want >= 2", st.ReadMisses)
	}
}

func TestINCFasterThanCCWithoutSharing(t *testing.T) {
	// For perfectly partitioned data the incoherent model should be at
	// least as fast as the coherent one (no broadcasts, no upgrades).
	// This is the Loghi & Poncino observation the paper cites.
	runModel := func(inc bool) sim.Time {
		var wall sim.Time
		if inc {
			h := newHarness(4)
			bodies := make([]func(*cpu.Proc), 4)
			for i := range bodies {
				base := mem.Addr(0x100000 * (i + 1))
				bodies[i] = func(p *cpu.Proc) {
					for k := 0; k < 512; k++ {
						p.Load(base + mem.Addr(k*32))
						p.Store(base + mem.Addr(0x40000+k*32))
					}
				}
			}
			h.run(bodies...)
			for _, p := range h.procs {
				if p.FinishTime() > wall {
					wall = p.FinishTime()
				}
			}
		}
		return wall
	}
	_ = runModel
	// Full cross-model comparison lives in the root ablation bench; here
	// we only assert the protocol-free path produced zero invalidations.
	h := newHarness(4)
	bodies := make([]func(*cpu.Proc), 4)
	for i := range bodies {
		base := mem.Addr(0x100000 * (i + 1))
		bodies[i] = func(p *cpu.Proc) {
			for k := 0; k < 128; k++ {
				p.Store(base + mem.Addr(k*32))
			}
		}
	}
	h.run(bodies...)
	if got := h.stats().Invalidates; got != 0 {
		t.Errorf("unshared stores caused %d invalidations", got)
	}
}
