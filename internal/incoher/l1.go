package incoher

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// Protocol is the sharing protocol in front of a private L1: what a
// miss, an upgrade or a prefetch-tag hit does beyond the core's own
// cache. The cache-coherent model plugs MESI in here (internal/coher);
// the incoherent model and the streaming model's small cache plug in
// nothing, and their misses go straight to the L2. Hooks run only off
// the hit path, after the core has synchronized with the engine.
type Protocol interface {
	// ReadMiss services a demand load miss on a and returns when the
	// data arrives. It fills the line with L1.Miss.
	ReadMiss(p *cpu.Proc, a mem.Addr) sim.Time
	// WriteMiss services a store miss on a covering nbytes and returns
	// when the store completes. A write-allocate fill uses L1.Miss.
	WriteMiss(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time
	// Fetch brings line a in for an L1.Miss of the given class, inside
	// the miss's transaction. It returns when the data arrives and the
	// state to install the line in.
	Fetch(class txntrace.Class, at sim.Time, a mem.Addr) (sim.Time, cache.State)
	// Upgrade gains ownership of line a, held Shared, and marks it
	// Modified. It reports false if the line was invalidated while the
	// core synchronized; the store then misses.
	Upgrade(at sim.Time, a mem.Addr) (sim.Time, bool)
	// PFSMiss gains ownership of absent line a for a store that
	// allocates without a refill, returning when ownership is granted.
	PFSMiss(at sim.Time, a mem.Addr) sim.Time
	// PrefetchHit runs when a load hits a line a prefetcher installed.
	PrefetchHit(p *cpu.Proc, a mem.Addr)
	// Installed notes that line a was installed, displacing ev.
	Installed(a mem.Addr, ev cache.Evicted)
}

// Stats counts one private L1's demand misses and their service times
// (every model) and, on INC, the software-coherence operations. The
// latency fields are diagnostics, not time series: they stay out of
// Snapshot so probe columns are stable.
type Stats struct {
	ReadMisses  uint64
	WriteMisses uint64
	Flushes     uint64 // dirty lines written back by software
	Invalidates uint64 // lines killed by software
	FlushOps    uint64 // FlushRange calls
	InvalOps    uint64 // InvalidateRange calls

	ReadMissLatency  sim.Time
	WriteMissLatency sim.Time
}

// Add accumulates src into s (aggregating per-core first levels).
func (s *Stats) Add(src Stats) {
	s.ReadMisses += src.ReadMisses
	s.WriteMisses += src.WriteMisses
	s.Flushes += src.Flushes
	s.Invalidates += src.Invalidates
	s.FlushOps += src.FlushOps
	s.InvalOps += src.InvalOps
	s.ReadMissLatency += src.ReadMissLatency
	s.WriteMissLatency += src.WriteMissLatency
}

// AvgReadMissLatency returns the mean demand read-miss service time.
func (s Stats) AvgReadMissLatency() sim.Time {
	if s.ReadMisses == 0 {
		return 0
	}
	return s.ReadMissLatency / sim.Time(s.ReadMisses)
}

// AvgWriteMissLatency returns the mean write-miss service time.
func (s Stats) AvgWriteMissLatency() sim.Time {
	if s.WriteMisses == 0 {
		return 0
	}
	return s.WriteMissLatency / sim.Time(s.WriteMisses)
}

// Snapshot emits the INC counters in a fixed order (probe layer).
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("read_misses", float64(s.ReadMisses))
	put("write_misses", float64(s.WriteMisses))
	put("flushes", float64(s.Flushes))
	put("invalidates", float64(s.Invalidates))
	put("flush_ops", float64(s.FlushOps))
	put("inval_ops", float64(s.InvalOps))
}

// L1 is one core's private write-back, write-allocate data cache: the
// front end every memory model's first level is built on. It owns the
// hit path, the miss accounting (transaction trace, miss counts and
// service times) and the line install with its
// dirty-victim write-back; the Protocol, if any, supplies the rest.
//
// Sync audit (engine fast path): hits touch only this core's
// tags and never yield. Every Sync precedes a shared touch: the uncore
// on a miss, or, under a protocol, the bus and the peer L1s, which
// mutate this core's tags through snoops.
type L1 struct {
	core    int
	cluster int
	c       *cache.Cache
	net     *noc.Network
	unc     *uncore.Uncore
	proto   Protocol // nil: misses go straight to the L2
	stats   Stats
	txn     *txntrace.Tracer // nil = transaction tracing disabled
}

// NewL1 builds core's private cache in the given cluster over unc.
func NewL1(core, cluster int, cfg cache.Config, unc *uncore.Uncore) *L1 {
	return &L1{core: core, cluster: cluster, c: cache.New(cfg), net: unc.Network(), unc: unc}
}

// SetProtocol plugs a sharing protocol in front of the cache.
func (f *L1) SetProtocol(p Protocol) { f.proto = p }

// Cache returns the tag array.
func (f *L1) Cache() *cache.Cache { return f.c }

// Stats returns the miss accounting.
func (f *L1) Stats() Stats { return f.stats }

// SetTxnTrace attaches the run's transaction tracer (nil disables it).
func (f *L1) SetTxnTrace(t *txntrace.Tracer) { f.txn = t }

// Tag annotates the active transaction with an outcome tag (no-op when
// tracing is off or nothing is active).
func (f *L1) Tag(s txntrace.Site) { f.txn.Tag(s) }

// Load implements cpu.ProcMem.
func (f *L1) Load(p *cpu.Proc, a mem.Addr) sim.Time {
	ln, wasPf := f.c.AccessTagged(a, false)
	if ln != nil {
		done := p.Now()
		if ln.FillDone > done {
			done = ln.FillDone
			if wasPf {
				// The stall until FillDone is the tail of a prefetch still
				// in flight: ledger it as PrefetchShadow, not LoadStall.
				p.MarkPrefetchShadow()
			}
		}
		if wasPf {
			p.Task().Sync()
			f.proto.PrefetchHit(p, a)
		}
		return done
	}
	p.Task().Sync()
	if f.proto != nil {
		return f.proto.ReadMiss(p, a)
	}
	return f.Miss(txntrace.ReadMiss, p.Now(), a)
}

// Store implements cpu.ProcMem.
func (f *L1) Store(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	if ln := f.c.Access(a, true); ln != nil {
		if ln.State != cache.Shared {
			return storeHit(p, ln)
		}
		p.Task().Sync()
		if done, ok := f.proto.Upgrade(p.Now(), a); ok {
			return done
		}
		return f.Miss(txntrace.WriteMiss, p.Now(), a)
	}
	p.Task().Sync()
	if f.proto != nil {
		return f.proto.WriteMiss(p, a, nbytes)
	}
	return f.Miss(txntrace.WriteMiss, p.Now(), a)
}

// StorePFS implements cpu.ProcMem: a store that allocates its line
// without a refill ("Prepare For Store").
func (f *L1) StorePFS(p *cpu.Proc, a mem.Addr, nbytes uint64) sim.Time {
	if ln := f.c.Access(a, true); ln != nil {
		if ln.State != cache.Shared {
			return storeHit(p, ln)
		}
		p.Task().Sync()
		if done, ok := f.proto.Upgrade(p.Now(), a); ok {
			return done
		}
	} else {
		p.Task().Sync()
	}
	t := p.Now()
	if f.proto != nil {
		t = f.proto.PFSMiss(t, a)
	}
	_, ev := f.c.InsertPFS(a, t)
	f.evict(t, a, ev)
	return t
}

// storeHit writes a line held Exclusive or Modified: E -> M is silent,
// and the store waits for a fill still in flight.
func storeHit(p *cpu.Proc, ln *cache.Line) sim.Time {
	ln.State = cache.Modified
	ln.Dirty = true
	return max(p.Now(), ln.FillDone)
}

// Miss services one accounted miss of the given class on line a at
// time at: the transaction, the fetch (through the protocol, or
// straight from the L2), the install with its victim write-back, and
// the miss count and service-time records. It returns the fill time.
func (f *L1) Miss(class txntrace.Class, at sim.Time, a mem.Addr) sim.Time {
	f.txn.Begin(class, f.core, uint64(a.Line()), at)
	var done sim.Time
	st := cache.Exclusive
	if class == txntrace.WriteMiss {
		st = cache.Modified
	}
	if f.proto != nil {
		done, st = f.proto.Fetch(class, at, a)
		// A protocol installs the line inside the transaction, so the
		// victim write-back joins the miss's tree.
		f.install(done, a, st, class)
	} else {
		t := f.net.BusControl(at, f.cluster)
		done, _ = f.unc.ReadLine(t, f.cluster, a)
		done = f.net.BusData(done, f.cluster, mem.LineSize)
	}
	switch class {
	case txntrace.ReadMiss:
		f.stats.ReadMisses++
		f.stats.ReadMissLatency += done - at
	case txntrace.WriteMiss:
		f.stats.WriteMisses++
		f.stats.WriteMissLatency += done - at
	}
	f.txn.End(done)
	if f.proto == nil {
		f.install(done, a, st, class)
	}
	return done
}

// install fills line a at time at in state st for a miss of the given
// class.
func (f *L1) install(at sim.Time, a mem.Addr, st cache.State, class txntrace.Class) {
	ln, ev := f.c.Insert(a, st, at)
	ln.Dirty = st == cache.Modified
	ln.Prefetched = class == txntrace.Prefetch
	f.evict(at, a, ev)
}

// evict tells the protocol about a new line and writes a dirty victim
// back to the L2 over the local bus; the core does not wait for it.
func (f *L1) evict(at sim.Time, a mem.Addr, ev cache.Evicted) {
	if f.proto != nil {
		f.proto.Installed(a.Line(), ev)
	}
	if ev.Valid && ev.Dirty {
		t := f.net.BusData(at, f.cluster, mem.LineSize)
		f.unc.WriteLine(t, f.cluster, ev.Addr, mem.LineSize, true)
	}
}
