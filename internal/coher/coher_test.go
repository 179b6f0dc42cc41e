package coher

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// harness wires an engine, network, uncore and n coherent cores.
type harness struct {
	eng   *sim.Engine
	dom   *Domain
	procs []*cpu.Proc
}

func newHarness(n int, cfg Config) *harness {
	h := &harness{eng: sim.NewEngine()}
	net := noc.New(noc.DefaultConfig(n))
	unc := uncore.New(uncore.DefaultConfig(), net)
	for i := 0; i < n; i++ {
		h.procs = append(h.procs, cpu.New(i, net.ClusterOf(i), cpu.Config{Clock: sim.MHz(800)}))
	}
	unc.SetHorizon(h.eng)
	h.dom = NewDomain(cfg, unc, h.procs)
	return h
}

// run executes one body per core and drives the simulation to completion.
func (h *harness) run(bodies ...func(p *cpu.Proc)) {
	for i, body := range bodies {
		i, body := i, body
		h.eng.Spawn("core", 0, func(task *sim.Task) {
			p := h.procs[i]
			p.Bind(task, h.dom.Mem(i), nil)
			body(p)
			p.Finish()
		})
	}
	h.eng.Run()
}

func TestColdMissThenHit(t *testing.T) {
	h := newHarness(1, DefaultConfig())
	var missStall, hitStall sim.Time
	h.run(func(p *cpu.Proc) {
		p.Load(0x1000)
		missStall = p.Breakdown().LoadStall
		p.Load(0x1008) // same line: hit
		hitStall = p.Breakdown().LoadStall - missStall
	})
	if missStall < 70*sim.Nanosecond {
		t.Errorf("cold miss stall %v below DRAM latency", missStall)
	}
	if hitStall != 0 {
		t.Errorf("L1 hit stalled %v", hitStall)
	}
	if mr := h.dom.L1(0).Stats().MissRate(); mr != 0.5 {
		t.Errorf("miss rate %v, want 0.5", mr)
	}
}

func TestL2HitFasterThanDRAM(t *testing.T) {
	h := newHarness(1, DefaultConfig())
	var cold, warm sim.Time
	h.run(func(p *cpu.Proc) {
		p.Load(0x1000)
		cold = p.Breakdown().LoadStall
		// Evict the line from L1 by filling its set (2-way, 512 sets:
		// same set every 16 KB), then reload: it should hit in L2.
		p.Load(0x1000 + 16*1024)
		p.Load(0x1000 + 2*16*1024)
		before := p.Breakdown().LoadStall
		p.Load(0x1000)
		warm = p.Breakdown().LoadStall - before
	})
	if warm >= cold {
		t.Errorf("L2 hit stall %v not faster than DRAM miss %v", warm, cold)
	}
	if warm == 0 {
		t.Error("reload after eviction should not be an L1 hit")
	}
}

func TestClusterCacheToCacheTransfer(t *testing.T) {
	h := newHarness(2, DefaultConfig())
	h.run(
		func(p *cpu.Proc) {
			p.Store(0x2000) // owns line M at t~0
		},
		func(p *cpu.Proc) {
			// Timestamp ordering guarantees core 0's store (t~0) executes
			// before this load syncs at 10us.
			p.WaitUntil(10 * sim.Microsecond)
			p.Load(0x2000)
		},
	)
	if got := h.dom.Stats().C2CCluster; got != 1 {
		t.Errorf("cluster c2c transfers = %d, want 1", got)
	}
	// Both copies must now be Shared.
	for i := 0; i < 2; i++ {
		ln := h.dom.L1(i).Lookup(0x2000)
		if ln == nil || ln.State != cache.Shared {
			t.Errorf("core %d line state = %v, want S", i, ln)
		}
	}
	if err := h.dom.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoteDirtyTransfer(t *testing.T) {
	h := newHarness(8, DefaultConfig()) // cores 0-3 cluster 0, 4-7 cluster 1
	bodies := make([]func(*cpu.Proc), 8)
	bodies[0] = func(p *cpu.Proc) {
		p.Store(0x3000)
	}
	bodies[4] = func(p *cpu.Proc) {
		p.WaitUntil(10 * sim.Microsecond)
		p.Load(0x3000)
	}
	for i := range bodies {
		if bodies[i] == nil {
			bodies[i] = func(p *cpu.Proc) {}
		}
	}
	h.run(bodies...)
	if got := h.dom.Stats().C2CRemote; got != 1 {
		t.Errorf("remote c2c transfers = %d, want 1", got)
	}
	if err := h.dom.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	h := newHarness(2, DefaultConfig())
	h.run(
		func(p *cpu.Proc) {
			p.Load(0x4000) // t~0
			p.WaitUntil(20 * sim.Microsecond)
			p.Store(0x4000) // upgrade: invalidate the other copy
		},
		func(p *cpu.Proc) {
			p.WaitUntil(10 * sim.Microsecond)
			p.Load(0x4000) // second sharer
		},
	)
	if h.dom.L1(1).Lookup(0x4000) != nil {
		t.Error("sharer copy not invalidated by upgrade")
	}
	ln := h.dom.L1(0).Lookup(0x4000)
	if ln == nil || ln.State != cache.Modified {
		t.Errorf("writer line = %+v, want M", ln)
	}
	if h.dom.Stats().Upgrades == 0 {
		t.Error("no upgrade recorded")
	}
	if err := h.dom.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteAllocateRefillsFromDRAM(t *testing.T) {
	h := newHarness(1, DefaultConfig())
	h.run(func(p *cpu.Proc) {
		for i := 0; i < 64; i++ {
			p.Store(mem.Addr(0x8000 + i*32))
		}
	})
	// Every store miss triggered a superfluous refill.
	rd := h.dom.Uncore().DRAM().Stats().ReadBytes
	if rd != 64*32 {
		t.Errorf("DRAM read bytes = %d, want %d (write-allocate refills)", rd, 64*32)
	}
}

func TestPFSAvoidsRefills(t *testing.T) {
	h := newHarness(1, DefaultConfig())
	h.run(func(p *cpu.Proc) {
		for i := 0; i < 64; i++ {
			p.StorePFS(mem.Addr(0x8000 + i*32))
		}
	})
	if rd := h.dom.Uncore().DRAM().Stats().ReadBytes; rd != 0 {
		t.Errorf("DRAM read bytes = %d, want 0 (PFS avoids refills)", rd)
	}
	if got := h.dom.Stats().PFSMisses; got != 64 {
		t.Errorf("PFS misses = %d, want 64", got)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newHarness(1, DefaultConfig())
	h.run(func(p *cpu.Proc) {
		// Three lines mapping to the same 2-way set: 16 KB apart.
		p.Store(0x1000)
		p.Store(0x1000 + 16*1024)
		p.Store(0x1000 + 32*1024)
	})
	if got := h.dom.Stats().L1WritebacksL2; got != 1 {
		t.Errorf("L1 writebacks = %d, want 1", got)
	}
}

func TestPrefetchHidesLatency(t *testing.T) {
	run := func(depth int) sim.Time {
		h := newHarness(1, Config{L1Size: 32 * 1024, L1Assoc: 2, WriteAllocate: true, PrefetchDepth: depth})
		var stall sim.Time
		h.run(func(p *cpu.Proc) {
			// Stream through 512 lines with compute between lines.
			for i := 0; i < 512; i++ {
				p.LoadN(mem.Addr(0x100000+i*32), 4, 8)
				p.Work(60)
			}
			stall = p.Breakdown().LoadStall
		})
		return stall
	}
	noPf := run(0)
	pf4 := run(4)
	if pf4 >= noPf/2 {
		t.Errorf("prefetch depth 4 stall %v, want < half of %v", pf4, noPf)
	}
}

func TestSnoopProbesChargeStalls(t *testing.T) {
	h := newHarness(2, DefaultConfig())
	h.run(
		func(p *cpu.Proc) {
			for i := 0; i < 256; i++ {
				p.Load(mem.Addr(0x10000 + i*32)) // misses snoop core 1
			}
		},
		func(p *cpu.Proc) {
			for i := 0; i < 256; i++ {
				p.Load(mem.Addr(0x40000 + i*32)) // periodic misses interleave with core 0
				for j := 0; j < 8; j++ {
					p.Load(0x9000) // hits on its own cache collide with snoops
				}
			}
		},
	)
	if got := h.procs[1].Stats().SnoopStalls; got == 0 {
		t.Error("snooped core recorded no snoop stalls")
	}
}

func TestNoWriteAllocateGathersWrites(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WriteAllocate = false
	h := newHarness(1, cfg)
	h.run(func(p *cpu.Proc) {
		// Stream full-line writes: 8 words per line.
		for i := 0; i < 64; i++ {
			for w := 0; w < 8; w++ {
				p.Store(mem.Addr(0xA000 + i*32 + w*4))
			}
		}
	})
	if rd := h.dom.Uncore().DRAM().Stats().ReadBytes; rd != 0 {
		t.Errorf("DRAM reads = %d, want 0 under no-write-allocate", rd)
	}
	if got := h.dom.Stats().GatherFlushes; got != 64 {
		t.Errorf("gather flushes = %d, want 64", got)
	}
	// The L1 must not have allocated the store lines.
	if occ := h.dom.L1(0).Occupancy(); occ != 0 {
		t.Errorf("L1 holds %d lines, want 0", occ)
	}
}

func TestMESIInvariantsUnderRandomSharing(t *testing.T) {
	h := newHarness(4, DefaultConfig())
	bodies := make([]func(*cpu.Proc), 4)
	for i := range bodies {
		seed := int64(i + 1)
		bodies[i] = func(p *cpu.Proc) {
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 400; n++ {
				a := mem.Addr(0x20000 + rng.Intn(64)*32)
				if rng.Intn(2) == 0 {
					p.Load(a)
				} else {
					p.Store(a)
				}
				p.Work(uint64(rng.Intn(20)))
			}
		}
	}
	h.run(bodies...)
	if err := h.dom.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMESIInvariantsUnderRandomSharing16 is the 16-core, four-cluster
// machine, where the domain keeps its sharer index: loads, stores and
// PFS stores from every core to a pool of lines that also collide in the
// L1 sets, so fills, victims, cluster and remote snoops, upgrades and
// invalidations all reach the index. The invariants, the index's
// agreement with the tag arrays among them, are checked while the cores
// run as well as at the end.
func TestMESIInvariantsUnderRandomSharing16(t *testing.T) {
	const cores = 16
	h := newHarness(cores, DefaultConfig())
	if h.dom.holders == nil {
		t.Fatal("a four-cluster domain keeps no sharer index")
	}
	var checkErr error
	bodies := make([]func(*cpu.Proc), cores)
	for i := range bodies {
		seed := int64(i + 1)
		bodies[i] = func(p *cpu.Proc) {
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < 400; n++ {
				// 64 lines in 16 sets, three ways' worth per set.
				a := mem.Addr(0x20000 + rng.Intn(3)*16*1024 + rng.Intn(64)*32)
				switch rng.Intn(5) {
				case 0, 1:
					p.Load(a)
				case 2, 3:
					p.Store(a)
				default:
					p.StorePFS(a)
				}
				p.Work(uint64(rng.Intn(20)))
				if n%50 == 0 && checkErr == nil {
					checkErr = h.dom.CheckInvariants()
				}
			}
		}
	}
	h.run(bodies...)
	if checkErr != nil {
		t.Fatal(checkErr)
	}
	if err := h.dom.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := h.dom.Stats()
	if st.C2CCluster == 0 || st.C2CRemote == 0 || st.Upgrades == 0 || st.Invalidations == 0 {
		t.Fatalf("the run missed a protocol path: %+v", st)
	}
}

// TestHarnessCalendarsPrune: the harness wires the calendars' horizon
// as core.New does, so a run prunes them instead of growing them.
func TestHarnessCalendarsPrune(t *testing.T) {
	h := newHarness(4, DefaultConfig())
	h.run(func(p *cpu.Proc) {
		for i := 0; i < 256; i++ {
			p.Load(mem.Addr(0x100000 + i*32))
		}
	})
	var m sim.ServerMetrics
	h.dom.Uncore().EachServer(func(s *sim.Server) { s.AddMetrics(&m) })
	if m.Pruned == 0 {
		t.Fatal("no calendar pruned a reservation")
	}
}

func TestReadSharingLeavesAllShared(t *testing.T) {
	h := newHarness(4, DefaultConfig())
	bodies := make([]func(*cpu.Proc), 4)
	for i := range bodies {
		start := sim.Time(i) * sim.Microsecond
		bodies[i] = func(p *cpu.Proc) {
			p.WaitUntil(start)
			for n := 0; n < 16; n++ {
				p.Load(mem.Addr(0x30000 + n*32))
			}
		}
	}
	h.run(bodies...)
	// After all four cores read the same lines, later readers' copies are
	// Shared and invariants hold.
	shared := 0
	for i := 0; i < 4; i++ {
		for n := 0; n < 16; n++ {
			if ln := h.dom.L1(i).Lookup(mem.Addr(0x30000 + n*32)); ln != nil && ln.State == cache.Shared {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("no shared copies after read sharing")
	}
	if err := h.dom.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
