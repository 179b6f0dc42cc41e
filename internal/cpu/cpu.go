// Package cpu models the study's processor cores: in-order Tensilica
// LX-style 3-slot VLIW cores (Table 2) with up to one load/store per
// instruction, a 16 KB instruction cache, and an 8-entry store buffer
// that lets loads bypass store misses (weak consistency). The core is
// pure issue accounting: one VLIW instruction per cycle, with stalls
// charged to the paper's four execution-time buckets — Useful (which
// includes fetch and non-memory pipeline stalls, as in Figure 2), Sync,
// load stalls and store-buffer stalls.
//
// A Proc is driven by workload code running as a sim.Task coroutine; the
// attached ProcMem (the coherent-cache model in internal/coher or the
// streaming model in internal/stream) supplies data-access timing.
package cpu

import (
	"fmt"

	"repro/internal/ledger"
	"repro/internal/mem"
	"repro/internal/sim"
)

// StoreBufferEntries is the default depth of the store buffer that
// allows loads to bypass outstanding store misses.
const StoreBufferEntries = 8

// Tracer receives timeline spans (see internal/trace); nil disables
// collection.
type Tracer interface {
	Add(track int, name string, start, dur sim.Time)
}

// FlushClasser lets a memory model classify its Finish-time drain in
// the cycle ledger: the streaming model's Flush waits on DMA completion
// (ledger.DMAWait), everything else drains at synchronization cost
// (ledger.SyncWait, the default). The Figure 2 bucket stays Sync either
// way.
type FlushClasser interface {
	FlushClass() ledger.Class
}

// ProcMem is the per-core data-memory model.
type ProcMem interface {
	// Load returns the time the loaded data is available to the core.
	// It may sync the task with the engine.
	Load(p *Proc, a mem.Addr) sim.Time
	// Store returns the time the store completes in the memory system;
	// nbytes is how much of the line starting at a this store (or the
	// burst it represents) covers — write-gathering policies need it.
	// Completion may be far in the future; the core's store buffer
	// absorbs it.
	Store(p *Proc, a mem.Addr, nbytes uint64) sim.Time
	// StorePFS is a store that allocates its line without a refill
	// ("Prepare For Store"); models without caches treat it as Store.
	StorePFS(p *Proc, a mem.Addr, nbytes uint64) sim.Time
	// Flush completes outstanding model state (DMA queues, write
	// buffers) at the end of the workload and returns the drain time.
	Flush(p *Proc) sim.Time
}

// Breakdown is the Figure 2 execution-time decomposition.
type Breakdown struct {
	Useful     sim.Time // issue + fetch + non-memory pipeline stalls
	Sync       sim.Time // locks, barriers, waiting for DMA
	LoadStall  sim.Time
	StoreStall sim.Time
}

// Total returns the sum of all buckets (the core's busy time).
func (b Breakdown) Total() sim.Time {
	return b.Useful + b.Sync + b.LoadStall + b.StoreStall
}

// Config configures one core.
type Config struct {
	Clock sim.Clock
	// StoreBuffer overrides the store-buffer depth (0 = the default 8;
	// 1 approximates a blocking-store, stronger-consistency core).
	StoreBuffer int
	// InstrPerIMiss models the instruction-cache behavior analytically:
	// one I-cache miss is charged every InstrPerIMiss instructions
	// (0 disables; the workload sets it from its code footprint).
	InstrPerIMiss uint64
	// IMissPenalty is the fetch stall per I-cache miss (an L2 round
	// trip); it is charged to Useful, as the paper does.
	IMissPenalty sim.Time
}

// Stats are the core's activity counters.
type Stats struct {
	Instructions uint64 // VLIW instructions issued
	Loads        uint64 // explicit data-structure loads
	Stores       uint64 // explicit data-structure stores
	// LocalAccesses counts the load/store slots of Work-charged
	// instructions: stack, spills and register-resident temporaries that
	// always hit the first-level storage. Real code fills roughly half
	// its 3-slot instructions' memory slot this way; modeling them keeps
	// miss *rates* and first-level access energy comparable to the
	// paper even though the simulator only traces data-structure
	// accesses explicitly.
	LocalAccesses uint64
	IMisses       uint64
	SnoopStalls   uint64 // cycles lost to snoops occupying the D-cache
}

// Add accumulates src into s (aggregating per-core counters).
func (s *Stats) Add(src Stats) {
	s.Instructions += src.Instructions
	s.Loads += src.Loads
	s.Stores += src.Stores
	s.LocalAccesses += src.LocalAccesses
	s.IMisses += src.IMisses
	s.SnoopStalls += src.SnoopStalls
}

// Snapshot emits the counters in a fixed order (probe layer); the
// per-epoch delta of instructions is the compute-throughput series.
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("instructions", float64(s.Instructions))
	put("loads", float64(s.Loads))
	put("stores", float64(s.Stores))
	put("local_accesses", float64(s.LocalAccesses))
	put("imisses", float64(s.IMisses))
	put("snoop_stalls", float64(s.SnoopStalls))
}

// Proc is one simulated core.
type Proc struct {
	id      int
	cluster int
	task    *sim.Task
	cfg     Config
	memory  ProcMem

	bd       Breakdown
	stats    Stats
	imissAcc uint64

	// led is the fine-grained cycle ledger; nil disables it, leaving one
	// nil compare per charge site on the hot path (the probe layer's
	// sentinel pattern; BenchmarkLedgerDisabled gates the cost). Every
	// bd charge below is mirrored by exactly one ledger charge over the
	// same duration, which is what makes the conservation invariant
	// (ledger classes sum to finish time) hold by construction.
	led *ledger.Ledger
	// pfShadow marks that the in-flight stall the memory model just
	// reported is covered by an earlier prefetch (set via
	// MarkPrefetchShadow, consumed by the next Load charge). Only ever
	// set when led != nil.
	pfShadow bool

	snoopDebt uint64 // snoop probes not yet converted into stall cycles

	storeBuf []sim.Time
	sbHead   int
	sbLen    int

	tracer Tracer

	finished   bool
	finishTime sim.Time
}

// New returns a core; the caller attaches it to a task and a memory model
// via Bind before use.
func New(id, cluster int, cfg Config) *Proc {
	depth := cfg.StoreBuffer
	if depth <= 0 {
		depth = StoreBufferEntries
	}
	return &Proc{id: id, cluster: cluster, cfg: cfg, storeBuf: make([]sim.Time, depth)}
}

// Bind attaches the core to its simulation task and memory model.
func (p *Proc) Bind(task *sim.Task, m ProcMem) {
	p.task = task
	p.memory = m
}

// SetTracer attaches a span collector (nil disables tracing).
func (p *Proc) SetTracer(t Tracer) { p.tracer = t }

// SetLedger attaches a cycle ledger (nil disables accounting).
func (p *Proc) SetLedger(l *ledger.Ledger) { p.led = l }

// Ledger returns the attached cycle ledger (nil when disabled).
func (p *Proc) Ledger() *ledger.Ledger { return p.led }

// charge mirrors a breakdown charge into the ledger when enabled.
func (p *Proc) charge(c ledger.Class, d sim.Time) {
	if p.led != nil {
		p.led.Charge(c, d)
	}
}

// MarkPrefetchShadow tells the core that the stall its memory model is
// about to report comes from a line an earlier prefetch already had in
// flight, so the next Load charge classifies it as ledger.PrefetchShadow
// instead of LoadStall. The coherent model's hit path calls it; a no-op
// when the ledger is disabled.
func (p *Proc) MarkPrefetchShadow() {
	if p.led != nil {
		p.pfShadow = true
	}
}

func (p *Proc) span(name string, start, dur sim.Time) {
	if p.tracer != nil && dur > 0 {
		p.tracer.Add(p.id, name, start, dur)
	}
}

// SetICache reconfigures the analytic I-cache model (workload Setup
// hooks call this before execution starts).
func (p *Proc) SetICache(instrPerMiss uint64, penalty sim.Time) {
	p.cfg.InstrPerIMiss = instrPerMiss
	p.cfg.IMissPenalty = penalty
}

// ID returns the core index.
func (p *Proc) ID() int { return p.id }

// Cluster returns the core's cluster index.
func (p *Proc) Cluster() int { return p.cluster }

// Clock returns the core's clock domain.
func (p *Proc) Clock() sim.Clock { return p.cfg.Clock }

// Task returns the simulation task driving this core.
func (p *Proc) Task() *sim.Task { return p.task }

// Mem returns the attached memory model (workloads type-assert it for
// model-specific operations such as DMA).
func (p *Proc) Mem() ProcMem { return p.memory }

// Now returns the core's local time.
func (p *Proc) Now() sim.Time { return p.task.Time() }

// Breakdown returns the execution-time decomposition so far.
func (p *Proc) Breakdown() Breakdown { return p.bd }

// Stats returns the core's counters.
func (p *Proc) Stats() Stats { return p.stats }

// StoreBufOccupancy returns how many store-buffer entries hold stores
// still outstanding at time now (probe-layer gauge; entries whose
// completion time has passed have logically drained even if the ring has
// not been popped yet).
func (p *Proc) StoreBufOccupancy(now sim.Time) int {
	n := 0
	for i := 0; i < p.sbLen; i++ {
		if p.storeBuf[(p.sbHead+i)%len(p.storeBuf)] > now {
			n++
		}
	}
	return n
}

// FinishTime returns the core's local time when Finish was called.
func (p *Proc) FinishTime() sim.Time {
	if !p.finished {
		panic(fmt.Sprintf("cpu: core %d not finished", p.id))
	}
	return p.finishTime
}

// chargeUseful issues n instructions (n cycles) and applies the analytic
// I-cache model.
func (p *Proc) chargeUseful(n uint64) {
	d := p.cfg.Clock.Cycles(n)
	p.task.Advance(d)
	p.bd.Useful += d
	p.charge(ledger.Compute, d)
	p.stats.Instructions += n
	p.stats.LocalAccesses += n / 2
	if p.cfg.InstrPerIMiss == 0 {
		return
	}
	p.imissAcc += n
	for p.imissAcc >= p.cfg.InstrPerIMiss {
		p.imissAcc -= p.cfg.InstrPerIMiss
		p.stats.IMisses++
		p.task.Advance(p.cfg.IMissPenalty)
		p.bd.Useful += p.cfg.IMissPenalty
		p.charge(ledger.Compute, p.cfg.IMissPenalty)
	}
}

// applySnoopDebt converts pending snoop probes into stall cycles. A snoop
// occupies the D-cache for one cycle and stalls the core only when it
// collides with a load/store in the same cycle; with at most one
// load/store slot per 3-wide instruction, roughly every other probe
// collides with an access-bound core.
func (p *Proc) applySnoopDebt() {
	if p.snoopDebt < 2 {
		return
	}
	cycles := p.snoopDebt / 2
	p.snoopDebt %= 2
	d := p.cfg.Clock.Cycles(cycles)
	p.task.Advance(d)
	p.bd.LoadStall += d
	p.charge(ledger.LoadStall, d)
	p.stats.SnoopStalls += cycles
}

// AddSnoopProbe records that another agent probed this core's D-cache.
// Called by the coherence layer.
func (p *Proc) AddSnoopProbe() { p.snoopDebt++ }

// Work issues n instructions of pure computation.
func (p *Proc) Work(n uint64) { p.chargeUseful(n) }

// WaitUntil advances the core to time t, charging the wait to the Sync
// bucket (used by synchronization primitives and DMA waits). It is a
// full synchronization point: the task yields so that other agents'
// earlier events execute first, which keeps protocol state transitions
// at phase boundaries in timestamp order. (Sync audit, PR 2: callers
// read shared primitive or DMA state right after WaitUntil returns, so
// the yield must stay; the engine elides the yield itself whenever this
// core is already globally minimal.)
func (p *Proc) WaitUntil(t sim.Time) { p.waitUntil(t, ledger.SyncWait) }

// WaitUntilDMA is WaitUntil with the wait classified as ledger.DMAWait
// (the streaming model's DMA completion waits); the Figure 2 bucket is
// still Sync, as the paper counts DMA waits as synchronization.
func (p *Proc) WaitUntilDMA(t sim.Time) { p.waitUntil(t, ledger.DMAWait) }

func (p *Proc) waitUntil(t sim.Time, c ledger.Class) {
	if now := p.task.Time(); t > now {
		p.bd.Sync += t - now
		p.charge(c, t-now)
		p.span("sync-wait", now, t-now)
		p.task.SetTime(t)
	}
	p.task.Sync()
}

// AddSync charges d of synchronization time without advancing the clock
// (used when a primitive has already moved the task's clock, e.g. after
// an Unblock).
func (p *Proc) AddSync(d sim.Time) {
	p.bd.Sync += d
	p.charge(ledger.SyncWait, d)
}

// AddDMAWait is AddSync with the ledger class ledger.DMAWait (a DMA
// completion wait whose clock movement already happened via Unblock).
func (p *Proc) AddDMAWait(d sim.Time) {
	p.bd.Sync += d
	p.charge(ledger.DMAWait, d)
}

// Load issues one load instruction to address a and blocks until the
// data is available.
func (p *Proc) Load(a mem.Addr) {
	p.chargeUseful(1)
	p.applySnoopDebt()
	p.stats.Loads++
	done := p.memory.Load(p, a)
	if now := p.task.Time(); done > now {
		p.bd.LoadStall += done - now
		if p.pfShadow {
			p.charge(ledger.PrefetchShadow, done-now)
		} else {
			p.charge(ledger.LoadStall, done-now)
		}
		p.span("load-stall", now, done-now)
		p.task.SetTime(done)
	}
	p.pfShadow = false
}

// Store issues one store instruction to address a. The store retires into
// the store buffer; the core stalls only when the buffer is full.
func (p *Proc) Store(a mem.Addr) { p.store(a, 4, false) }

// StorePFS issues a "Prepare For Store" non-allocating-refill store.
func (p *Proc) StorePFS(a mem.Addr) { p.store(a, 4, true) }

func (p *Proc) store(a mem.Addr, nbytes uint64, pfs bool) {
	p.chargeUseful(1)
	p.applySnoopDebt()
	p.stats.Stores++
	// The store buffer gates issue: at most StoreBufferEntries store
	// misses are outstanding in the memory system. Pop completed
	// entries; if still full, the core stalls until the oldest miss
	// finishes and only then issues the new one.
	now := p.task.Time()
	depth := len(p.storeBuf)
	for p.sbLen > 0 && p.storeBuf[p.sbHead] <= now {
		p.sbHead = (p.sbHead + 1) % depth
		p.sbLen--
	}
	if p.sbLen == depth {
		oldest := p.storeBuf[p.sbHead]
		p.bd.StoreStall += oldest - now
		p.charge(ledger.StoreStall, oldest-now)
		p.span("store-stall", now, oldest-now)
		p.task.SetTime(oldest)
		p.sbHead = (p.sbHead + 1) % depth
		p.sbLen--
	}
	var done sim.Time
	if pfs {
		done = p.memory.StorePFS(p, a, nbytes)
	} else {
		done = p.memory.Store(p, a, nbytes)
	}
	if done <= p.task.Time() {
		return
	}
	p.storeBuf[(p.sbHead+p.sbLen)%len(p.storeBuf)] = done
	p.sbLen++
}

// LoadN issues count loads of elemSize-byte elements starting at a,
// walking sequentially. Issue cycles are charged per element; the memory
// system is consulted once per cache line, which is exact for an in-order
// core on a linear walk.
func (p *Proc) LoadN(a mem.Addr, elemSize, count uint64) {
	if count == 0 {
		return
	}
	if elemSize == 0 || elemSize > mem.LineSize {
		panic("cpu: LoadN element size must be 1..32 bytes")
	}
	end := a + mem.Addr(count*elemSize)
	for la := a.Line(); la < end; la += mem.LineSize {
		// Elements whose first byte falls in this line.
		lo, hi := la, la+mem.LineSize
		if a > lo {
			lo = a
		}
		if end < hi {
			hi = end
		}
		n := elemsIn(lo, hi, a, elemSize)
		if n == 0 {
			continue
		}
		p.chargeUseful(n - 1)
		p.stats.Loads += n - 1
		p.Load(lo)
	}
}

// StoreN issues count stores of elemSize-byte elements starting at a.
func (p *Proc) StoreN(a mem.Addr, elemSize, count uint64) {
	p.storeN(a, elemSize, count, false)
}

// StorePFSN issues count PFS stores of elemSize-byte elements starting
// at a. Workloads use it for output-only streams.
func (p *Proc) StorePFSN(a mem.Addr, elemSize, count uint64) {
	p.storeN(a, elemSize, count, true)
}

func (p *Proc) storeN(a mem.Addr, elemSize, count uint64, pfs bool) {
	if count == 0 {
		return
	}
	if elemSize == 0 || elemSize > mem.LineSize {
		panic("cpu: StoreN element size must be 1..32 bytes")
	}
	end := a + mem.Addr(count*elemSize)
	for la := a.Line(); la < end; la += mem.LineSize {
		lo, hi := la, la+mem.LineSize
		if a > lo {
			lo = a
		}
		if end < hi {
			hi = end
		}
		n := elemsIn(lo, hi, a, elemSize)
		if n == 0 {
			continue
		}
		p.chargeUseful(n - 1)
		p.stats.Stores += n - 1
		p.store(lo, uint64(hi-lo), pfs)
	}
}

// elemsIn counts elements of size elemSize anchored at base whose first
// byte lies in [lo, hi).
func elemsIn(lo, hi, base mem.Addr, elemSize uint64) uint64 {
	if hi <= lo {
		return 0
	}
	// First element index whose address >= lo.
	first := (uint64(lo-base) + elemSize - 1) / elemSize
	last := (uint64(hi-base) - 1) / elemSize // element containing hi-1
	if fa := base + mem.Addr(first*elemSize); fa >= hi {
		return 0
	}
	return last - first + 1
}

// Finish drains the store buffer and the memory model and records the
// core's completion time. Call it at the end of the workload body. The
// memory model's drain time is charged to the Sync bucket under the
// model's FlushClasser class.
func (p *Proc) Finish() {
	now := p.task.Time()
	for p.sbLen > 0 {
		done := p.storeBuf[p.sbHead]
		p.sbHead = (p.sbHead + 1) % len(p.storeBuf)
		p.sbLen--
		if done > now {
			p.bd.StoreStall += done - now
			p.charge(ledger.StoreStall, done-now)
			p.task.SetTime(done)
			now = done
		}
	}
	if d := p.memory.Flush(p); d > p.task.Time() {
		wait := d - p.task.Time()
		p.bd.Sync += wait
		c := ledger.SyncWait
		if fc, ok := p.memory.(FlushClasser); ok {
			c = fc.FlushClass()
		}
		p.charge(c, wait)
		p.task.SetTime(d)
	}
	p.finished = true
	p.finishTime = p.task.Time()
}
