package coher

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/incoher"
	"repro/internal/mem"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/txntrace"
)

// Mem is the per-core cpu.ProcMem of the cache-coherent model: the
// private L1 front end (incoher.L1) with MESI plugged in as its
// Protocol. L1 hits are charged locally without an engine round trip;
// misses, upgrades and prefetch issue synchronize with the engine so
// that shared-state mutations stay in timestamp order.
//
// Sync audit (engine fast path): every Sync before a hook is
// immediately followed by a read or write of cross-core state — the
// bus/L2 servers via readMiss/writeMiss/upgrade, peer L1s via
// invalidation, or this core's own L1 tags, which peers mutate through
// snoops and so count as shared. None can convert to SetTime/Advance.
// They stay because they are needed, not because they are cheap —
// though with the engine fast path a Sync by the globally minimal core
// does not yield.
type Mem struct {
	*incoher.L1
	d    *Domain
	core int
	pref *prefetch.Prefetcher
	gath gatherBuffer
}

var (
	_ cpu.ProcMem      = (*Mem)(nil)
	_ incoher.Protocol = (*Mem)(nil)
)

// ReadMiss implements incoher.Protocol: flush any gathered writes to
// the line, fill it, and let the prefetcher run ahead of the miss.
func (m *Mem) ReadMiss(p *cpu.Proc, a mem.Addr) sim.Time {
	// The gather buffer may hold pending writes to this line; flush them
	// so the load observes a consistent memory image.
	if !m.d.cfg.WriteAllocate {
		m.gath.flushLine(m, p, a.Line())
	}
	done := m.Miss(txntrace.ReadMiss, p.Now(), a)
	m.issuePrefetches(p, m.pref.Miss(a.Line()))
	return done
}

// PrefetchHit implements incoher.Protocol: a tagged trigger tops the
// prefetch stream up.
func (m *Mem) PrefetchHit(p *cpu.Proc, a mem.Addr) {
	m.issuePrefetches(p, m.pref.Hit(a.Line()))
}

// issuePrefetches fires the prefetcher's proposals into the memory
// system without stalling the core.
func (m *Mem) issuePrefetches(p *cpu.Proc, addrs []mem.Addr) {
	for _, pa := range addrs {
		if m.Cache().Lookup(pa) != nil {
			continue // already resident or in flight
		}
		m.Miss(txntrace.Prefetch, p.Now(), pa)
	}
}

// WriteMiss implements incoher.Protocol: a write-allocate fill, or a
// write-gather buffer entry under the no-write-allocate policy.
func (m *Mem) WriteMiss(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	if !m.d.cfg.WriteAllocate {
		return m.gath.add(m, p, a, nbytes)
	}
	return m.Miss(txntrace.WriteMiss, p.Now(), a)
}

// Fetch implements incoher.Protocol: the MESI bus transaction of a
// read, prefetch or write-allocate miss.
func (m *Mem) Fetch(class txntrace.Class, at sim.Time, a mem.Addr) (sim.Time, cache.State) {
	if class == txntrace.WriteMiss {
		return m.d.writeMiss(at, m.core, a), cache.Modified
	}
	return m.d.readMiss(at, m.core, a, class == txntrace.Prefetch)
}

// Upgrade implements incoher.Protocol.
func (m *Mem) Upgrade(at sim.Time, a mem.Addr) (sim.Time, bool) {
	ln := m.Cache().Lookup(a)
	if ln == nil {
		return 0, false
	}
	done := m.d.upgrade(at, m.core, a)
	ln.State = cache.Modified
	ln.Dirty = true
	return done, true
}

// PFSMiss implements incoher.Protocol.
func (m *Mem) PFSMiss(at sim.Time, a mem.Addr) sim.Time { return m.d.pfsMiss(at, m.core, a) }

// Installed implements incoher.Protocol: keep the region filter and the
// victim counters in step with the L1's contents.
func (m *Mem) Installed(a mem.Addr, ev cache.Evicted) {
	m.d.regionTrack(m.core, a, 1)
	if !ev.Valid {
		return
	}
	m.d.regionTrack(m.core, ev.Addr, -1)
	if ev.Prefetched {
		m.d.stats.PrefetchUseless++
	}
	if ev.Dirty {
		m.d.stats.L1WritebacksL2++
	}
}

// PrefetchRange implements the hybrid "bulk transfer primitives for
// cache-based systems" the paper's Section 7 proposes: software issues
// one macroscopic prefetch for a whole range, and the lines stream into
// the L1 without the microscopic miss-pattern detection a hardware
// prefetcher needs. The core does not stall; subsequent demand loads
// wait only for their line's fill.
func (m *Mem) PrefetchRange(p *cpu.Proc, a mem.Addr, nbytes uint64) {
	if nbytes == 0 {
		return
	}
	p.Work(dma.SetupInstr) // programming the bulk transfer
	p.Task().Sync()
	end := a + mem.Addr(nbytes)
	for la := a.Line(); la < end; la += mem.LineSize {
		if m.Cache().Lookup(la) != nil {
			continue
		}
		m.Miss(txntrace.Prefetch, p.Now(), la)
	}
}

// Flush implements cpu.ProcMem: drain the write-gather buffer.
func (m *Mem) Flush(p *cpu.Proc) sim.Time {
	if m.d.cfg.WriteAllocate {
		return p.Now()
	}
	p.Task().Sync()
	return m.gath.flushAll(m, p)
}

// gatherBufferEntries is the depth of the no-write-allocate model's
// write-gathering buffer ("it is necessary to group store data in write
// buffers before forwarding them to memory in order to avoid wasting
// bandwidth on narrow writes").
const gatherBufferEntries = 4

type gatherEntry struct {
	line  mem.Addr
	mask  uint32 // one bit per byte of the 32-byte line
	valid bool
}

// gatherBuffer coalesces store misses per line for the no-write-allocate
// policy. Entries are flushed to the L2 when displaced, when a full line
// has been gathered, or at Flush time.
type gatherBuffer struct {
	entries [gatherBufferEntries]gatherEntry
	next    int // FIFO replacement
}

// add records a store covering nbytes from a into the buffer, flushing
// a displaced entry if needed. It returns the store's completion time
// (acceptance).
func (g *gatherBuffer) add(m *Mem, p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	la := a.Line()
	if nbytes == 0 {
		nbytes = 4
	}
	var wordMask uint32
	for off := a.LineOffset(); off < a.LineOffset()+nbytes && off < mem.LineSize; off++ {
		wordMask |= 1 << off
	}
	for i := range g.entries {
		e := &g.entries[i]
		if e.valid && e.line == la {
			e.mask |= wordMask
			if e.mask == 0xFFFFFFFF {
				g.flushEntry(m, p, e)
			}
			return p.Now()
		}
	}
	// Allocate a new entry, displacing FIFO order.
	e := &g.entries[g.next]
	g.next = (g.next + 1) % gatherBufferEntries
	if e.valid {
		g.flushEntry(m, p, e)
	}
	*e = gatherEntry{line: la, mask: wordMask, valid: true}
	return p.Now()
}

// flushEntry sends a gathered entry to the L2 and invalidates other
// cached copies (coherence for non-allocating stores).
func (g *gatherBuffer) flushEntry(m *Mem, p *cpu.Proc, e *gatherEntry) {
	if !e.valid {
		return
	}
	d := m.d
	d.stats.GatherFlushes++
	cl := d.procs[m.core].Cluster()
	now := p.Now()
	t := d.net.BusControl(now, cl)
	t = d.invalidateOthers(t, m.core, e.line, false)
	nbytes := uint64(bits.OnesCount32(e.mask))
	full := e.mask == 0xFFFFFFFF
	t = d.net.BusData(t, cl, nbytes)
	d.unc.WriteLine(t, cl, e.line, nbytes, full)
	e.valid = false
}

func (g *gatherBuffer) flushLine(m *Mem, p *cpu.Proc, la mem.Addr) {
	for i := range g.entries {
		if g.entries[i].valid && g.entries[i].line == la {
			g.flushEntry(m, p, &g.entries[i])
		}
	}
}

func (g *gatherBuffer) flushAll(m *Mem, p *cpu.Proc) sim.Time {
	for i := range g.entries {
		g.flushEntry(m, p, &g.entries[i])
	}
	return p.Now()
}
