package coher

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Mem is the per-core cpu.ProcMem of the cache-coherent model. L1 hits
// are charged locally without an engine round trip; misses, upgrades and
// prefetch issue synchronize with the engine so that shared-state
// mutations stay in timestamp order.
//
// Sync audit (engine fast path, PR 2): every Sync below is immediately
// followed by a read or write of cross-core state — the bus/L2 servers
// via readMiss/writeMiss/upgrade, peer L1s via invalidation, or this
// core's own L1 tags, which peers mutate through snoops and so count as
// shared. None can convert to SetTime/Advance. They stay because they
// are needed, not because they are cheap — though with the engine fast
// path a Sync by the globally minimal core does not yield.
type Mem struct {
	d    *Domain
	core int
}

var _ cpu.ProcMem = (*Mem)(nil)

// Load implements cpu.ProcMem.
func (m *Mem) Load(p *cpu.Proc, a mem.Addr) sim.Time {
	c := m.d.l1s[m.core]
	ln, wasPf := c.AccessTagged(a, false)
	if ln != nil {
		done := p.Now()
		if ln.FillDone > done {
			done = ln.FillDone
			if wasPf {
				// The stall until FillDone is the tail of a prefetch still
				// in flight — ledger it as PrefetchShadow, not LoadStall.
				p.MarkPrefetchShadow()
			}
		}
		if wasPf {
			// Tagged trigger: top the stream up. This touches shared
			// resources, so sync first.
			p.Task().Sync()
			m.issuePrefetches(p, m.d.pref[m.core].Hit(a.Line()))
		}
		return done
	}
	p.Task().Sync()
	// The gather buffer may hold pending writes to this line; flush them
	// so the load observes a consistent memory image.
	if !m.d.cfg.WriteAllocate {
		m.d.gath[m.core].flushLine(m.d, m.core, p, a.Line())
	}
	done := m.d.readMiss(p.Now(), m.core, a, false)
	m.issuePrefetches(p, m.d.pref[m.core].Miss(a.Line()))
	return done
}

// issuePrefetches fires the prefetcher's proposals into the memory
// system without stalling the core.
func (m *Mem) issuePrefetches(p *cpu.Proc, addrs []mem.Addr) {
	c := m.d.l1s[m.core]
	for _, pa := range addrs {
		if c.Lookup(pa) != nil {
			continue // already resident or in flight
		}
		m.d.readMiss(p.Now(), m.core, pa, true)
	}
}

// Store implements cpu.ProcMem.
func (m *Mem) Store(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	c := m.d.l1s[m.core]
	ln := c.Access(a, true)
	if ln != nil {
		switch ln.State {
		case cache.Modified:
			ln.Dirty = true
			return maxTime(p.Now(), ln.FillDone)
		case cache.Exclusive:
			// E -> M is silent in MESI.
			ln.State = cache.Modified
			ln.Dirty = true
			return maxTime(p.Now(), ln.FillDone)
		case cache.Shared:
			p.Task().Sync()
			// The line may have been invalidated while we yielded.
			if ln2 := c.Lookup(a); ln2 != nil {
				done := m.d.upgrade(p.Now(), m.core, a)
				ln2.State = cache.Modified
				ln2.Dirty = true
				return done
			}
			return m.d.writeMiss(p.Now(), m.core, a)
		}
	}
	p.Task().Sync()
	if !m.d.cfg.WriteAllocate {
		return m.d.gath[m.core].add(m.d, m.core, p, a, nbytes)
	}
	return m.d.writeMiss(p.Now(), m.core, a)
}

// StorePFS implements cpu.ProcMem: allocate-without-refill stores.
func (m *Mem) StorePFS(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	c := m.d.l1s[m.core]
	ln := c.Access(a, true)
	if ln != nil {
		switch ln.State {
		case cache.Modified, cache.Exclusive:
			ln.State = cache.Modified
			ln.Dirty = true
			return maxTime(p.Now(), ln.FillDone)
		case cache.Shared:
			p.Task().Sync()
			if ln2 := c.Lookup(a); ln2 != nil {
				done := m.d.upgrade(p.Now(), m.core, a)
				ln2.State = cache.Modified
				ln2.Dirty = true
				return done
			}
			return m.d.pfsMiss(p.Now(), m.core, a)
		}
	}
	p.Task().Sync()
	return m.d.pfsMiss(p.Now(), m.core, a)
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
	p.Work(dmaSetupInstr) // programming the bulk transfer
	p.Task().Sync()
	c := m.d.l1s[m.core]
	end := a + mem.Addr(nbytes)
	for la := a.Line(); la < end; la += mem.LineSize {
		if c.Lookup(la) != nil {
			continue
		}
		m.d.readMiss(p.Now(), m.core, la, true)
	}
}

// dmaSetupInstr mirrors the streaming model's DMA programming cost.
const dmaSetupInstr = 8

// Flush implements cpu.ProcMem: drain the write-gather buffer.
func (m *Mem) Flush(p *cpu.Proc) sim.Time {
	if m.d.cfg.WriteAllocate {
		return p.Now()
	}
	p.Task().Sync()
	return m.d.gath[m.core].flushAll(m.d, m.core, p)
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
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

func newGatherBuffer() *gatherBuffer { return &gatherBuffer{} }

// add records a store covering nbytes from a into the buffer, flushing
// a displaced entry if needed. It returns the store's completion time
// (acceptance).
func (g *gatherBuffer) add(d *Domain, core int, p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
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
				g.flushEntry(d, core, p, e)
			}
			return p.Now()
		}
	}
	// Allocate a new entry, displacing FIFO order.
	e := &g.entries[g.next]
	g.next = (g.next + 1) % gatherBufferEntries
	if e.valid {
		g.flushEntry(d, core, p, e)
	}
	*e = gatherEntry{line: la, mask: wordMask, valid: true}
	return p.Now()
}

// flushEntry sends a gathered entry to the L2 and invalidates other
// cached copies (coherence for non-allocating stores).
func (g *gatherBuffer) flushEntry(d *Domain, core int, p *cpu.Proc, e *gatherEntry) {
	if !e.valid {
		return
	}
	d.stats.GatherFlushes++
	cl := d.procs[core].Cluster()
	now := p.Now()
	t := d.net.BusControl(now, cl)
	t = d.invalidateOthers(t, core, e.line, false)
	nbytes := uint64(popcount(e.mask))
	full := e.mask == 0xFFFFFFFF
	t = d.net.BusData(t, cl, nbytes)
	d.unc.WriteLine(t, cl, e.line, nbytes, full)
	e.valid = false
}

func (g *gatherBuffer) flushLine(d *Domain, core int, p *cpu.Proc, la mem.Addr) {
	for i := range g.entries {
		if g.entries[i].valid && g.entries[i].line == la {
			g.flushEntry(d, core, p, &g.entries[i])
		}
	}
}

func (g *gatherBuffer) flushAll(d *Domain, core int, p *cpu.Proc) sim.Time {
	for i := range g.entries {
		g.flushEntry(d, core, p, &g.entries[i])
	}
	return p.Now()
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
