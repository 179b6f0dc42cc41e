// Package incoher holds the private L1 front end every memory model's
// first level is built on (L1), and the incoherent cache-based model
// that is that front end with no protocol in front of it.
//
// The incoherent model is the third practical point in the paper's
// Table 1 design space: hardware-managed locality (ordinary caches)
// with software-managed communication (no coherence protocol; software
// flushes and invalidates explicitly at synchronization points, as in
// the embedded MPSoCs of the paper's Loghi & Poncino reference [31] and
// the Section 7 hybrid discussion).
//
// Compared with the coherent model, every miss skips the snoop
// broadcasts — no bus command slots, no tag probes in other caches, no
// invalidation traffic — but the burden of correctness moves entirely
// into software: a core that will read data another core produced must
// first invalidate its own stale copies, and a producer must flush its
// dirty lines before signaling.
package incoher

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// Config sizes the incoherent L1 level (same first-level budget as the
// coherent model).
type Config struct {
	L1Size  uint64
	L1Assoc int
}

// DefaultConfig matches the coherent model's 32 KB 2-way L1s.
func DefaultConfig() Config { return Config{L1Size: 32 * 1024, L1Assoc: 2} }

// Mem is the per-core cpu.ProcMem of the incoherent model: a private
// L1 whose misses go straight to the shared L2/DRAM with no snooping,
// plus the software-coherence operations.
type Mem struct {
	*L1
}

var _ cpu.ProcMem = (*Mem)(nil)

// New builds core's incoherent L1 in the given cluster over unc.
func New(core, cluster int, cfg Config, unc *uncore.Uncore) *Mem {
	return &Mem{NewL1(core, cluster, cache.Config{
		Name:  fmt.Sprintf("incl1d%d", core),
		Size:  cfg.L1Size,
		Assoc: cfg.L1Assoc,
	}, unc)}
}

// Flush implements cpu.ProcMem. No Sync here: FlushRange syncs before
// its first shared touch, and a second yield at the same (time, id) is a
// provable no-op under the engine's dispatch order.
func (m *Mem) Flush(p *cpu.Proc) sim.Time {
	return m.FlushRange(p, 0, ^uint64(0))
}

// FlushRange writes back (and retains clean) every dirty line the cache
// holds in [a, a+n). Software calls it before publishing produced data.
// It returns the time the last write-back is accepted.
func (m *Mem) FlushRange(p *cpu.Proc, a mem.Addr, n uint64) sim.Time {
	p.Task().Sync()
	m.stats.FlushOps++
	t := p.Now()
	end := a + mem.Addr(n)
	if n == ^uint64(0) {
		end = ^mem.Addr(0)
	}
	var last sim.Time
	for _, la := range m.c.Lines() {
		ln := m.c.Lookup(la)
		if ln == nil || !ln.Dirty || la < a || la >= end {
			continue
		}
		// One flush instruction per line; the write-backs themselves
		// pipeline through the bus and L2 (the flush loop does not wait
		// for each to complete).
		p.Work(1)
		t = p.Now()
		m.stats.Flushes++
		bt := m.net.BusData(t, m.cluster, mem.LineSize)
		if done := m.unc.WriteLine(bt, m.cluster, la, mem.LineSize, true); done > last {
			last = done
		}
		ln.Dirty = false
		ln.State = cache.Exclusive
	}
	return max(t, last)
}

// InvalidateRange discards every cached line in [a, a+n), dirty or not.
// Software calls it before reading data another core produced. Dirty
// data in the range is dropped — exactly the sharp edge that makes
// software coherence hard to program.
func (m *Mem) InvalidateRange(p *cpu.Proc, a mem.Addr, n uint64) {
	p.Task().Sync()
	m.stats.InvalOps++
	end := a + mem.Addr(n)
	for _, la := range m.c.Lines() {
		if la < a || la >= end {
			continue
		}
		p.Work(1)
		m.c.Invalidate(la)
		m.stats.Invalidates++
	}
}
