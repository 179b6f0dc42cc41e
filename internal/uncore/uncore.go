// Package uncore assembles the parts of the memory system that both
// models share (Figure 1): the global crossbar, the 512 KB 16-way shared
// L2 with a single 2.2 ns port, and the off-chip DRAM channel. The
// cache-coherent model's L1 miss handling (internal/coher) and the
// streaming model's DMA engines (internal/dma) both sit on top of it.
//
// The L2 is non-inclusive. It allocates on reads, allocates dirty without
// a refill when a full line is written (an L1 writeback or a full-line DMA
// store — the paper: "The L2 cache avoids refills on write misses when DMA
// transfers overwrite entire lines"), and refills from DRAM before merging
// a partial-line write.
//
// Nothing in this package yields to the simulation engine: every entry
// point assumes the calling task has already Synced (it is the globally
// minimal task), so the bank and channel calendars here are mutated in
// timestamp order by construction. That assumption is what the Sync
// calls audited in internal/coher, internal/stream and internal/dma
// establish — keep it in mind before adding a call path that reaches
// the uncore without a preceding Sync.
package uncore

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/txntrace"
)

// Config sizes the shared memory system.
type Config struct {
	L2Size    uint64 // total capacity across banks
	L2Assoc   int
	L2Banks   int // address-interleaved banks, one port each (Figure 1)
	L2Latency sim.Time
	DRAM      dram.Config
	// Channels is the number of address-interleaved DRAM channels, each
	// with the configured bandwidth (the paper's "multiple memory
	// channels" bandwidth-scaling alternative). Default 1.
	Channels int
}

// DefaultConfig is the paper's Table 2 shared hierarchy: one 512 KB
// 16-way L2 bank and one memory channel.
func DefaultConfig() Config {
	return Config{
		L2Size:    512 * 1024,
		L2Assoc:   16,
		L2Banks:   1,
		L2Latency: 2200 * sim.Picosecond,
		DRAM:      dram.DefaultConfig(),
		Channels:  1,
	}
}

// Stats counts L2-level activity beyond the tag-array counters.
type Stats struct {
	ReadRequests  uint64 // line reads arriving from clusters
	WriteRequests uint64 // line writes arriving from clusters
	L2ReadHits    uint64
	L2WriteNoFill uint64 // full-line writes allocated without refill
	L2Refills     uint64 // partial-line writes that forced a DRAM refill
	L2Writebacks  uint64 // dirty L2 victims written to DRAM
}

// ctrlMsgBytes is the size charged on the crossbar for an address/command
// message.
const ctrlMsgBytes = 8

// Uncore is the shared global memory system. The L2 is split into
// address-interleaved banks (at line granularity), each with one port;
// DRAM may have several address-interleaved channels.
type Uncore struct {
	cfg     Config
	net     *noc.Network
	l2s     []*cache.Cache
	l2Ports []*sim.Server
	drams   []*dram.Channel
	stats   Stats
	txn     *txntrace.Tracer // nil = transaction tracing disabled

	// bankSel and chanSel interleave line addresses across the L2 banks
	// and the DRAM channels.
	bankSel, chanSel mem.Divisor
}

// New builds the shared hierarchy on the given network.
func New(cfg Config, net *noc.Network) *Uncore {
	if cfg.L2Banks <= 0 {
		cfg.L2Banks = 1
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	u := &Uncore{
		cfg:     cfg,
		net:     net,
		bankSel: mem.NewDivisor(uint64(cfg.L2Banks)),
		chanSel: mem.NewDivisor(uint64(cfg.Channels)),
	}
	for i := 0; i < cfg.L2Banks; i++ {
		u.l2s = append(u.l2s, cache.New(cache.Config{
			Name:  fmt.Sprintf("l2.%d", i),
			Size:  cfg.L2Size / uint64(cfg.L2Banks),
			Assoc: cfg.L2Assoc,
		}))
		u.l2Ports = append(u.l2Ports, sim.NewServer(fmt.Sprintf("l2.port%d", i)))
	}
	for i := 0; i < cfg.Channels; i++ {
		u.drams = append(u.drams, dram.NewChannel(cfg.DRAM))
	}
	return u
}

// Network returns the interconnect.
func (u *Uncore) Network() *noc.Network { return u.net }

// bankOf selects the L2 bank for a line address.
func (u *Uncore) bankOf(a mem.Addr) int {
	return int(u.bankSel.Mod(uint64(a) >> mem.LineShift))
}

// chanOf selects the DRAM channel for a line address.
func (u *Uncore) chanOf(a mem.Addr) int {
	return int(u.chanSel.Mod(uint64(a) >> mem.LineShift))
}

// l2For returns the tag array holding a.
func (u *Uncore) l2For(a mem.Addr) *cache.Cache { return u.l2s[u.bankOf(a)] }

// The tracer's sites of the uncore's hops and outcome tags.
var (
	dramRead  = txntrace.NewSite("dram", "read", "")
	dramWrite = txntrace.NewSite("dram", "write", "")
	l2Access  = txntrace.NewSite("l2", "access", "")
	l2HitTag  = txntrace.NewTag("l2=hit")
	l2MissTag = txntrace.NewTag("l2=miss")
)

// dramAccess routes an access to its channel, recording the channel
// service interval as a hop on the active transaction.
func (u *Uncore) dramAccess(at sim.Time, a mem.Addr, nbytes uint64, write bool) sim.Time {
	done := u.drams[u.chanOf(a)].Access(at, a, nbytes, write)
	if u.txn != nil {
		site := dramRead
		if write {
			site = dramWrite
		}
		u.txn.HopNum(site, at, done, txntrace.TagChannel, uint64(u.chanOf(a)))
	}
	return done
}

// L2 returns bank 0's tag array (the whole L2 in the default single-bank
// configuration); multi-bank callers use L2Bank/L2Stats.
func (u *Uncore) L2() *cache.Cache { return u.l2s[0] }

// L2Banks returns the number of L2 banks.
func (u *Uncore) L2Banks() int { return len(u.l2s) }

// L2Bank returns bank i's tag array.
func (u *Uncore) L2Bank(i int) *cache.Cache { return u.l2s[i] }

// L2Stats returns the aggregate tag-array statistics across banks.
func (u *Uncore) L2Stats() cache.Stats {
	var out cache.Stats
	for _, c := range u.l2s {
		out.Add(c.Stats())
	}
	return out
}

// DRAM returns channel 0 (for stats and tests with one channel).
func (u *Uncore) DRAM() *dram.Channel { return u.drams[0] }

// Channels returns the number of DRAM channels.
func (u *Uncore) Channels() int { return len(u.drams) }

// DRAMStats returns aggregate channel statistics.
func (u *Uncore) DRAMStats() dram.Stats {
	var out dram.Stats
	for _, c := range u.drams {
		out.Add(c.Stats())
	}
	return out
}

// ChannelBusy returns the cumulative DRAM data-pin busy time summed
// across channels (the probe layer's channel-utilization series).
func (u *Uncore) ChannelBusy() sim.Time {
	var t sim.Time
	for _, c := range u.drams {
		t += c.ChannelBusy()
	}
	return t
}

// EachServer calls fn on every resource calendar of the shared
// hierarchy: the network's buses and crossbar ports, the L2 ports and
// every DRAM channel and bank server.
func (u *Uncore) EachServer(fn func(*sim.Server)) {
	u.net.EachServer(fn)
	for _, p := range u.l2Ports {
		fn(p)
	}
	for _, c := range u.drams {
		c.EachServer(fn)
	}
}

// SetHorizon makes every calendar of the shared hierarchy prune behind
// e's clock (sim.Server.SetHorizon). Every machine built on an uncore
// calls it once, before the first Acquire: every arrival at a shared
// resource happens at or after the engine clock. DRAM refresh caps its
// own servers' horizon below it.
func (u *Uncore) SetHorizon(e *sim.Engine) {
	u.EachServer(func(s *sim.Server) { s.SetHorizon(e) })
}

// AvgChannelUtilization returns the mean busy fraction of the DRAM
// data pins across channels over [0, end].
func (u *Uncore) AvgChannelUtilization(end sim.Time) float64 {
	s := 0.0
	for _, c := range u.drams {
		s += c.ChannelUtilization(end)
	}
	return s / float64(len(u.drams))
}

// Stats returns a snapshot of the uncore counters.
func (u *Uncore) Stats() Stats { return u.stats }

// SetTxnTrace attaches the run's transaction tracer (nil disables it).
func (u *Uncore) SetTxnTrace(t *txntrace.Tracer) { u.txn = t }

// L2PortBusy returns the total time the L2 ports were occupied (summed
// across banks).
func (u *Uncore) L2PortBusy() sim.Time {
	var t sim.Time
	for _, p := range u.l2Ports {
		t += p.BusyTime()
	}
	return t
}

// Config returns the configuration.
func (u *Uncore) Config() Config { return u.cfg }

// l2Access reserves the bank port for a and returns the time the access
// completes.
func (u *Uncore) l2Access(at sim.Time, a mem.Addr) sim.Time {
	start := u.l2Ports[u.bankOf(a)].Acquire(at, u.cfg.L2Latency)
	done := start + u.cfg.L2Latency
	if u.txn != nil {
		if start > at {
			u.txn.HopNum(l2Access, at, done, txntrace.TagPortWait, uint64(start-at))
		} else {
			u.txn.Hop(l2Access, at, done)
		}
	}
	return done
}

// evictL2 handles an L2 victim, writing it to DRAM if dirty.
func (u *Uncore) evictL2(at sim.Time, ev cache.Evicted) {
	if ev.Valid && ev.Dirty {
		u.stats.L2Writebacks++
		u.dramAccess(at, ev.Addr, mem.LineSize, true)
	}
}

// ReadLine reads the 32-byte line at a on behalf of cluster, starting at
// the time the request leaves the cluster bus. It returns the time the
// data arrives back at the cluster and whether the L2 hit.
func (u *Uncore) ReadLine(at sim.Time, cluster int, a mem.Addr) (done sim.Time, l2Hit bool) {
	u.stats.ReadRequests++
	// The line read is its own (sub-)transaction: provisionally an L2
	// hit, reclassified once the tag lookup misses. Nested inside a CC
	// miss or DMA beat it attaches to that parent; standalone callers
	// (e.g. gather-buffer flushes) make it a root.
	u.txn.Begin(txntrace.L2Hit, cluster, uint64(a), at)
	t := u.net.ToGlobal(at, cluster, ctrlMsgBytes)
	t = u.l2Access(t, a)
	if ln := u.l2For(a).Access(a, false); ln != nil {
		u.stats.L2ReadHits++
		if ln.FillDone > t {
			t = ln.FillDone
		}
		done = u.net.FromGlobal(t, cluster, mem.LineSize)
		u.txn.Tag(l2HitTag)
		u.txn.End(done)
		return done, true
	}
	u.txn.SetClass(txntrace.DRAMFill)
	u.txn.Tag(l2MissTag)
	t = u.dramAccess(t, a.Line(), mem.LineSize, false)
	_, ev := u.l2For(a).Insert(a, cache.Exclusive, t)
	u.evictL2(t, ev)
	done = u.net.FromGlobal(t, cluster, mem.LineSize)
	u.txn.End(done)
	return done, false
}

// WriteLine writes nbytes of the line at a from cluster. fullLine reports
// whether the whole 32-byte line is being overwritten (writebacks and
// full-line DMA stores), in which case a miss allocates without a refill.
// It returns the time the write has been accepted by the L2.
func (u *Uncore) WriteLine(at sim.Time, cluster int, a mem.Addr, nbytes uint64, fullLine bool) sim.Time {
	u.stats.WriteRequests++
	t := u.net.ToGlobal(at, cluster, ctrlMsgBytes+nbytes)
	t = u.l2Access(t, a)
	if ln := u.l2For(a).Access(a, true); ln != nil {
		ln.Dirty = true
		if ln.FillDone > t {
			t = ln.FillDone
		}
		return t
	}
	if fullLine {
		u.stats.L2WriteNoFill++
		ln, ev := u.l2For(a).Insert(a, cache.Modified, t)
		ln.Dirty = true
		u.evictL2(t, ev)
		return t
	}
	// Partial-line write miss: refill from DRAM, then merge.
	u.stats.L2Refills++
	t = u.dramAccess(t, a.Line(), mem.LineSize, false)
	ln, ev := u.l2For(a).Insert(a, cache.Modified, t)
	ln.Dirty = true
	u.evictL2(t, ev)
	return t
}

// ReadLineUncached reads a line bypassing L2 allocation (used for DMA
// gather traffic that software knows has no reuse). The L2 is still
// checked because it may hold a newer dirty copy.
func (u *Uncore) ReadLineUncached(at sim.Time, cluster int, a mem.Addr) sim.Time {
	u.stats.ReadRequests++
	t := u.net.ToGlobal(at, cluster, ctrlMsgBytes)
	t = u.l2Access(t, a)
	if ln := u.l2For(a).Access(a, false); ln != nil {
		u.stats.L2ReadHits++
		if ln.FillDone > t {
			t = ln.FillDone
		}
		return u.net.FromGlobal(t, cluster, mem.LineSize)
	}
	t = u.dramAccess(t, a.Line(), mem.LineSize, false)
	return u.net.FromGlobal(t, cluster, mem.LineSize)
}

// MinBurst is the smallest useful DRAM transaction: scatter/gather DMA
// elements smaller than this still cost a full burst on the channel
// ("memory and interconnect channels are typically optimized for block
// transfers and may not be bandwidth efficient for strided or
// scatter/gather accesses").
const MinBurst = 8

// ReadSparse reads one scatter/gather element of nbytes at a, bypassing
// L2 allocation (sparse gathers have no line-granularity reuse to cache).
// The L2 is still probed for a dirty copy.
func (u *Uncore) ReadSparse(at sim.Time, cluster int, a mem.Addr, nbytes uint64) sim.Time {
	if nbytes > mem.LineSize {
		panic("uncore: sparse element larger than a line")
	}
	u.stats.ReadRequests++
	t := u.net.ToGlobal(at, cluster, ctrlMsgBytes)
	t = u.l2Access(t, a)
	if ln := u.l2For(a).Access(a, false); ln != nil {
		u.stats.L2ReadHits++
		if ln.FillDone > t {
			t = ln.FillDone
		}
		return u.net.FromGlobal(t, cluster, nbytes)
	}
	burst := nbytes
	if burst < MinBurst {
		burst = MinBurst
	}
	t = u.dramAccess(t, a, burst, false)
	return u.net.FromGlobal(t, cluster, nbytes)
}

// WriteSparse writes one scatter element of nbytes at a. The write is
// narrow, so it merges in DRAM at MinBurst granularity without a refill
// (write masks), matching what a memory controller's write-combining
// does for scatter DMA.
func (u *Uncore) WriteSparse(at sim.Time, cluster int, a mem.Addr, nbytes uint64) sim.Time {
	if nbytes > mem.LineSize {
		panic("uncore: sparse element larger than a line")
	}
	u.stats.WriteRequests++
	t := u.net.ToGlobal(at, cluster, ctrlMsgBytes+nbytes)
	t = u.l2Access(t, a)
	if ln := u.l2For(a).Access(a, true); ln != nil {
		ln.Dirty = true
		return t
	}
	burst := nbytes
	if burst < MinBurst {
		burst = MinBurst
	}
	return u.dramAccess(t, a, burst, true)
}

// FlushDirty writes every dirty L2 line to DRAM (end-of-run accounting so
// that produced-but-resident output data appears in off-chip traffic
// consistently for both models).
func (u *Uncore) FlushDirty(at sim.Time) sim.Time {
	t := at
	for _, bank := range u.l2s {
		for _, a := range bank.FlushAll() {
			t = u.dramAccess(t, a, mem.LineSize, true)
			u.stats.L2Writebacks++
		}
	}
	return t
}
