// Package stream implements the streaming memory model (Section 3.3):
// each core's first-level data storage is split between a 24 KB local
// store and an 8 KB 2-way cache used for stack data and global
// variables. Data moves with explicit DMA transfers (internal/dma); the
// small cache is the private L1 front end of internal/incoher with no
// protocol in front of it — the streaming model has no coherence
// hardware, and software is responsible for sharing discipline, exactly
// as the paper requires.
package stream

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/incoher"
	"repro/internal/ledger"
	"repro/internal/lstore"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// Config sizes the streaming first level.
type Config struct {
	LocalStoreSize uint64
	CacheSize      uint64
	CacheAssoc     int
	// DMAOutstanding overrides the engine's concurrent-access window
	// (0 = the paper's 16).
	DMAOutstanding int
}

// DefaultConfig is the paper's Table 2 streaming configuration.
func DefaultConfig() Config {
	return Config{
		LocalStoreSize: lstore.DefaultSize,
		CacheSize:      8 * 1024,
		CacheAssoc:     2,
	}
}

// Mem is the per-core cpu.ProcMem of the streaming model: the 8 KB
// stack/globals cache (an incoher.L1, which supplies Load, Store, Cache
// and the miss accounting) plus the local store and DMA engine.
// Workloads type-assert p.Mem() to *stream.Mem to reach the latter.
//
// Sync audit (engine fast path): local-store accesses (LSLoadN,
// LSStoreN) never yield — they touch only per-core state. Every
// remaining Sync here precedes the DMA engine's command queue and done
// map, which the engine task mutates concurrently in simulated time.
// None can convert to SetTime/Advance.
type Mem struct {
	*incoher.L1
	ls  *lstore.Store
	eng *dma.Engine
}

var _ cpu.ProcMem = (*Mem)(nil)
var _ cpu.FlushClasser = (*Mem)(nil)

// New builds the streaming first level for one core. Call Spawn to start
// the DMA engine before running.
func New(core, cluster int, cfg Config, unc *uncore.Uncore) *Mem {
	ls := lstore.New(cfg.LocalStoreSize)
	return &Mem{
		L1: incoher.NewL1(core, cluster, cache.Config{
			Name:  fmt.Sprintf("strcache%d", core),
			Size:  cfg.CacheSize,
			Assoc: cfg.CacheAssoc,
		}, unc),
		ls:  ls,
		eng: dma.NewWithWindow(fmt.Sprintf("dma%d", core), cluster, unc, ls, cfg.DMAOutstanding),
	}
}

// Spawn starts the DMA engine task.
func (m *Mem) Spawn(eng *sim.Engine) { m.eng.Spawn(eng, 0) }

// LocalStore returns the core's local store.
func (m *Mem) LocalStore() *lstore.Store { return m.ls }

// DMA returns the DMA engine (stats, tests).
func (m *Mem) DMA() *dma.Engine { return m.eng }

// FlushClass implements cpu.FlushClasser: the Finish-time drain waits on
// the DMA engine, so its ledger class is DMAWait.
func (m *Mem) FlushClass() ledger.Class { return ledger.DMAWait }

// StorePFS implements cpu.ProcMem. The streaming model has no PFS
// instruction; software uses the local store for output data instead, so
// the rare PFS through the small cache behaves as a plain store.
func (m *Mem) StorePFS(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time { return m.Store(p, a, nbytes) }

// Flush implements cpu.ProcMem: drain and stop the DMA engine.
func (m *Mem) Flush(p *cpu.Proc) sim.Time {
	p.Task().Sync()
	t := p.Now()
	if last := m.eng.LastTag(); last != 0 {
		if done, ok := m.eng.Done(last); ok {
			t = max(t, done)
		} else {
			// Blocking on the engine moves the clock via Unblock, which
			// the caller cannot see in the returned time; charge the wait
			// here so no cycle escapes the accounting (conservation).
			before := p.Now()
			t = max(t, m.eng.Wait(p.Task(), last))
			p.ChargeWait(ledger.DMAWait, before)
		}
	}
	m.eng.Stop()
	return t
}

// LSLoadN charges count local-store element reads: one issue cycle each,
// no stalls (the local store is single-cycle).
func (m *Mem) LSLoadN(p *cpu.Proc, count uint64) {
	p.Work(count)
	m.ls.CountRead(count)
}

// LSStoreN charges count local-store element writes.
func (m *Mem) LSStoreN(p *cpu.Proc, count uint64) {
	p.Work(count)
	m.ls.CountWrite(count)
}

// Get queues a DMA transfer of nbytes from global address base into the
// local store and returns its tag. The handful of extra instructions to
// program the transfer is charged to the core.
func (m *Mem) Get(p *cpu.Proc, base mem.Addr, nbytes uint64) dma.Tag {
	p.Work(dma.SetupInstr)
	p.Task().Sync()
	return m.eng.Queue(p.Now(), dma.Get, base, nbytes)
}

// Put queues a DMA transfer of nbytes from the local store to global
// address base.
func (m *Mem) Put(p *cpu.Proc, base mem.Addr, nbytes uint64) dma.Tag {
	p.Work(dma.SetupInstr)
	p.Task().Sync()
	return m.eng.Queue(p.Now(), dma.Put, base, nbytes)
}

// GetStrided queues a strided gather.
func (m *Mem) GetStrided(p *cpu.Proc, base mem.Addr, elemBytes, stride, count uint64) dma.Tag {
	p.Work(dma.SetupInstr)
	p.Task().Sync()
	return m.eng.QueueStrided(p.Now(), dma.Get, base, elemBytes, stride, count)
}

// PutStrided queues a strided scatter.
func (m *Mem) PutStrided(p *cpu.Proc, base mem.Addr, elemBytes, stride, count uint64) dma.Tag {
	p.Work(dma.SetupInstr)
	p.Task().Sync()
	return m.eng.QueueStrided(p.Now(), dma.Put, base, elemBytes, stride, count)
}

// GetIndexed queues an indexed gather. Building the index costs one
// instruction per element on top of the transfer setup.
func (m *Mem) GetIndexed(p *cpu.Proc, addrs []mem.Addr, elemBytes uint64) dma.Tag {
	p.Work(dma.SetupInstr + uint64(len(addrs)))
	p.Task().Sync()
	return m.eng.QueueIndexed(p.Now(), dma.Get, addrs, elemBytes)
}

// Wait blocks the core until the DMA command completes, charging the
// wait to the Sync bucket (Figure 2 counts "wait for DMA" as
// synchronization); the cycle ledger splits it out as DMAWait.
func (m *Mem) Wait(p *cpu.Proc, tag dma.Tag) {
	p.Task().Sync()
	if done, ok := m.eng.Done(tag); ok {
		p.WaitUntilDMA(done)
		return
	}
	before := p.Now()
	m.eng.Wait(p.Task(), tag)
	p.ChargeWait(ledger.DMAWait, before)
}
