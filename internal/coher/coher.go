// Package coher implements the cache-coherent memory model (Section 3.2):
// per-core 32 KB 2-way write-back/write-allocate L1 data caches kept
// coherent with a MESI write-invalidate protocol over the hierarchical
// interconnect. Requests are first broadcast on the requester's cluster
// bus; if they cannot be satisfied within the cluster (or are upgrades),
// they are broadcast to all other clusters and the shared L2. Snoop
// probes occupy the target D-cache for a cycle and may stall its core.
//
// The package also provides the per-core cpu.ProcMem implementation
// (Mem), including the optional tagged hardware prefetcher and the
// "Prepare For Store" / no-write-allocate store policies of Section 5.5.
package coher

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/ledger"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// Config configures the coherent L1 level.
type Config struct {
	L1Size  uint64
	L1Assoc int
	// PrefetchDepth enables the tagged hardware stream prefetcher when
	// positive ("runs a configurable number of cache lines ahead").
	PrefetchDepth int
	// WriteAllocate selects the L1 write policy. The paper's default is
	// write-allocate; false enables the full no-write-allocate policy
	// with a write-gathering buffer (the Section 5.5 footnote).
	WriteAllocate bool
	// SnoopFilter enables a RegionScout-style coarse-grain filter (the
	// paper's reference [35]): requests to regions no other cache holds
	// skip the global broadcast and remote snoop probes entirely.
	SnoopFilter bool
	// RegionBytes is the filter granularity (default 1 KB).
	RegionBytes uint64
}

// DefaultConfig is the paper's Table 2 cache-coherent configuration.
func DefaultConfig() Config {
	return Config{L1Size: 32 * 1024, L1Assoc: 2, WriteAllocate: true}
}

// Stats counts protocol activity across the domain.
type Stats struct {
	ReadMisses       uint64
	WriteMisses      uint64
	Upgrades         uint64
	PFSMisses        uint64 // PFS stores that allocated without refill
	C2CCluster       uint64 // misses served by a cache in the same cluster
	C2CRemote        uint64 // misses served by a remote cluster's cache
	GlobalBroadcasts uint64
	Invalidations    uint64 // copies killed by upgrades/write misses
	L1WritebacksL2   uint64 // dirty L1 victims written to the L2
	PrefetchFills    uint64
	PrefetchUseless  uint64 // prefetched lines evicted before any demand
	GatherFlushes    uint64 // write-gather buffer lines sent to the L2
	FilteredSnoops   uint64 // broadcasts avoided by the region filter

	// Latency accounting for the average demand read-miss and write-miss
	// service times (diagnostics and the EXPERIMENTS.md tables).
	ReadMissLatency  sim.Time
	WriteMissLatency sim.Time
}

// Snapshot emits the headline protocol counters in a fixed order (probe
// layer); the per-epoch C2C deltas are the communication-phase series.
// Latency accumulators stay out: they are diagnostics, not time series.
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("read_misses", float64(s.ReadMisses))
	put("write_misses", float64(s.WriteMisses))
	put("upgrades", float64(s.Upgrades))
	put("c2c_cluster", float64(s.C2CCluster))
	put("c2c_remote", float64(s.C2CRemote))
	put("global_broadcasts", float64(s.GlobalBroadcasts))
	put("invalidations", float64(s.Invalidations))
	put("l1_writebacks_l2", float64(s.L1WritebacksL2))
	put("prefetch_fills", float64(s.PrefetchFills))
	put("prefetch_useless", float64(s.PrefetchUseless))
	put("filtered_snoops", float64(s.FilteredSnoops))
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

// Domain is the set of coherent L1 caches over one uncore.
type Domain struct {
	cfg   Config
	net   *noc.Network
	unc   *uncore.Uncore
	procs []*cpu.Proc
	l1s   []*cache.Cache
	pref  []*prefetch.Prefetcher
	gath  []*gatherBuffer
	stats Stats
	lat   *ledger.Latency  // nil = latency histograms disabled
	txn   *txntrace.Tracer // nil = transaction tracing disabled
	// The RegionScout filter state, array-backed (see table.go):
	// regions[i] counts core i's resident lines per region, and
	// regionOwners counts, per region, how many cores hold at least one
	// line there — making the shared-region query O(1) instead of a map
	// probe per core. regions is nil when the filter is disabled.
	regions      []regionTable
	regionOwners regionTable
	regShift     uint // log2(RegionBytes), rounded up to a power of two
}

// regionIndex returns the filter-region index of an address.
func (d *Domain) regionIndex(a mem.Addr) uint64 {
	return uint64(a) >> d.regShift
}

// regionTrack updates core i's region population by delta lines,
// keeping the per-region owner count in step.
func (d *Domain) regionTrack(i int, a mem.Addr, delta int32) {
	if d.regions == nil {
		return
	}
	r := d.regionIndex(a)
	old, now := d.regions[i].add(r, delta)
	switch {
	case old == 0 && now > 0:
		d.regionOwners.add(r, 1)
	case old > 0 && now == 0:
		d.regionOwners.add(r, -1)
	}
}

// regionShared reports whether any core other than self holds lines in
// a's region. With the filter disabled it is conservatively true.
func (d *Domain) regionShared(self int, a mem.Addr) bool {
	if d.regions == nil {
		return true
	}
	r := d.regionIndex(a)
	holders := d.regionOwners.get(r)
	if d.regions[self].get(r) > 0 {
		return holders > 1
	}
	return holders > 0
}

// NewDomain builds the coherent L1 level for the given cores.
func NewDomain(cfg Config, unc *uncore.Uncore, procs []*cpu.Proc) *Domain {
	if cfg.RegionBytes == 0 {
		cfg.RegionBytes = 1024
	}
	d := &Domain{cfg: cfg, net: unc.Network(), unc: unc, procs: procs}
	for i := range procs {
		d.l1s = append(d.l1s, cache.New(cache.Config{
			Name:  fmt.Sprintf("l1d%d", i),
			Size:  cfg.L1Size,
			Assoc: cfg.L1Assoc,
		}))
		d.pref = append(d.pref, prefetch.New(cfg.PrefetchDepth))
		d.gath = append(d.gath, newGatherBuffer())
	}
	if cfg.SnoopFilter {
		d.regShift = regionShift(cfg.RegionBytes)
		d.regions = make([]regionTable, len(procs))
	}
	return d
}

// Mem returns the cpu.ProcMem for core i.
func (d *Domain) Mem(i int) *Mem { return &Mem{d: d, core: i} }

// L1 returns core i's data cache (stats, tests).
func (d *Domain) L1(i int) *cache.Cache { return d.l1s[i] }

// Prefetcher returns core i's prefetcher.
func (d *Domain) Prefetcher(i int) *prefetch.Prefetcher { return d.pref[i] }

// Stats returns a snapshot of the protocol counters.
func (d *Domain) Stats() Stats { return d.stats }

// SetLatency attaches the run's service-time histograms (nil disables
// recording).
func (d *Domain) SetLatency(l *ledger.Latency) { d.lat = l }

// SetTxnTrace attaches the run's transaction tracer (nil disables it).
func (d *Domain) SetTxnTrace(t *txntrace.Tracer) { d.txn = t }

// tag annotates the active transaction with an outcome (no-op when
// tracing is off or nothing is active).
func (d *Domain) tag(s string) {
	if d.txn != nil {
		d.txn.Active().AddTag(s)
	}
}

// Uncore returns the shared hierarchy.
func (d *Domain) Uncore() *uncore.Uncore { return d.unc }

// snoopCluster probes every other L1 in cluster cl for line a, charging
// snoop-probe occupancy to their cores. It returns the first owner found.
func (d *Domain) snoopCluster(cl int, self int, a mem.Addr) (owner int, ln *cache.Line) {
	owner = -1
	lo, hi := d.clusterRange(cl)
	for i := lo; i < hi; i++ {
		if i == self || i >= len(d.l1s) {
			continue
		}
		d.procs[i].AddSnoopProbe()
		if l := d.l1s[i].Snoop(a); l != nil && owner == -1 {
			owner, ln = i, l
		}
	}
	return owner, ln
}

func (d *Domain) clusterRange(cl int) (lo, hi int) {
	per := d.net.Config().CoresPerClust
	return cl * per, (cl + 1) * per
}

// snoopRemote broadcasts to every cluster other than cl, probing all
// their caches. It returns the owning core (-1 if none) and the time the
// last snoop response is available at the global crossbar.
func (d *Domain) snoopRemote(at sim.Time, cl int, a mem.Addr) (owner int, ln *cache.Line, done sim.Time) {
	d.stats.GlobalBroadcasts++
	owner = -1
	done = at
	t := d.net.ToGlobal(at, cl, ctrlBytes)
	for oc := 0; oc < d.net.Clusters(); oc++ {
		if oc == cl {
			continue
		}
		tc := d.net.FromGlobal(t, oc, ctrlBytes)
		tc = d.net.BusControl(tc, oc)
		lo, hi := d.clusterRange(oc)
		for i := lo; i < hi && i < len(d.l1s); i++ {
			d.procs[i].AddSnoopProbe()
			if l := d.l1s[i].Snoop(a); l != nil && owner == -1 {
				owner, ln = i, l
			}
		}
		if tc > done {
			done = tc
		}
	}
	return owner, ln, done
}

const ctrlBytes = 8

// insertL1 installs a line into core i's L1, handling the displaced
// victim (dirty victims are written back to the L2 over the local bus;
// the core does not wait for the writeback).
func (d *Domain) insertL1(at sim.Time, i int, a mem.Addr, st cache.State, fill sim.Time) *cache.Line {
	ln, ev := d.l1s[i].Insert(a, st, fill)
	d.regionTrack(i, a, 1)
	if ev.Valid {
		d.regionTrack(i, ev.Addr, -1)
		if ev.Prefetched {
			d.stats.PrefetchUseless++
		}
		if ev.Dirty {
			d.stats.L1WritebacksL2++
			cl := d.procs[i].Cluster()
			t := d.net.BusData(at, cl, mem.LineSize)
			d.unc.WriteLine(t, cl, ev.Addr, mem.LineSize, true)
		}
	}
	return ln
}

// readMiss services a demand read miss (or a prefetch when pf is set)
// for core i. It returns the time the line is filled.
func (d *Domain) readMiss(at sim.Time, i int, a mem.Addr, pf bool) sim.Time {
	if d.txn != nil {
		class := txntrace.ReadMiss
		if pf {
			class = txntrace.Prefetch
		}
		d.txn.Begin(class, i, uint64(a.Line()), at)
	}
	done := d.readMiss1(at, i, a, pf)
	if !pf {
		d.stats.ReadMissLatency += done - at
		if d.lat != nil {
			d.lat.ReadMiss.Record(uint64(done - at))
		}
	}
	d.txn.End(done)
	return done
}

func (d *Domain) readMiss1(at sim.Time, i int, a mem.Addr, pf bool) sim.Time {
	a = a.Line()
	if !pf {
		d.stats.ReadMisses++
	} else {
		d.stats.PrefetchFills++
	}
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)

	// Step 1: snoop within the cluster.
	if owner, oln := d.snoopCluster(cl, i, a); owner != -1 {
		d.stats.C2CCluster++
		if d.txn != nil {
			d.tag("src=c2c_cluster")
			d.tag("mesi=" + oln.State.String() + "->S")
		}
		t = d.net.BusData(t, cl, mem.LineSize)
		if oln.State == cache.Modified && oln.Dirty {
			// Owner supplies dirty data and writes it back to the L2 so
			// both copies can be Shared and clean.
			d.unc.WriteLine(t, cl, a, mem.LineSize, true)
		}
		oln.State = cache.Shared
		oln.Dirty = false
		ln := d.insertL1(t, i, a, cache.Shared, t)
		ln.Prefetched = pf
		return t
	}

	// Step 2: broadcast to the other clusters and the L2 — unless the
	// region filter proves no cache can hold the line.
	var owner int
	var oln *cache.Line
	tSnoop := t
	if d.cfg.SnoopFilter && !d.regionShared(i, a) {
		d.stats.FilteredSnoops++
		d.tag("snoop=filtered")
		owner = -1
	} else {
		owner, oln, tSnoop = d.snoopRemote(t, cl, a)
	}
	if owner != -1 && oln.State == cache.Modified {
		d.stats.C2CRemote++
		d.tag("src=owner_remote_m")
		ocl := d.procs[owner].Cluster()
		td := d.net.BusData(tSnoop, ocl, mem.LineSize)
		td = d.net.ToGlobal(td, ocl, mem.LineSize)
		if oln.Dirty {
			d.unc.WriteLine(td, ocl, a, mem.LineSize, true)
		}
		td = d.net.FromGlobal(td, cl, mem.LineSize)
		td = d.net.BusData(td, cl, mem.LineSize)
		oln.State = cache.Shared
		oln.Dirty = false
		ln := d.insertL1(td, i, a, cache.Shared, td)
		ln.Prefetched = pf
		return td
	}

	// Step 3: the L2/DRAM supplies the data. Remote clean owners are
	// downgraded to Shared.
	newState := cache.Exclusive
	if owner != -1 {
		oln.State = cache.Shared
		newState = cache.Shared
	}
	if d.txn != nil {
		d.tag("src=l2")
		d.tag("mesi=I->" + newState.String())
	}
	done, _ := d.unc.ReadLine(t, cl, a)
	if done < tSnoop {
		done = tSnoop
	}
	done = d.net.BusData(done, cl, mem.LineSize)
	ln := d.insertL1(done, i, a, newState, done)
	ln.Prefetched = pf
	return done
}

// invalidateOthers kills every other copy of line a. withinOnly limits
// the broadcast to the requester's cluster (legal when the requester saw
// a cluster-local E/M owner, which MESI guarantees is the only copy).
// It returns the time ownership is granted.
func (d *Domain) invalidateOthers(at sim.Time, i int, a mem.Addr, withinOnly bool) sim.Time {
	cl := d.procs[i].Cluster()
	lo, hi := d.clusterRange(cl)
	for c := lo; c < hi && c < len(d.l1s); c++ {
		if c == i {
			continue
		}
		d.procs[c].AddSnoopProbe()
		d.invalidate(c, a)
	}
	if withinOnly {
		return at
	}
	_, _, tSnoop := d.snoopRemote(at, cl, a)
	for c := range d.l1s {
		clo, chi := d.clusterRange(cl)
		if c >= clo && c < chi {
			continue // already done above
		}
		d.invalidate(c, a)
	}
	return tSnoop
}

// writeMiss services a store miss for core i with the write-allocate
// policy: a read-for-ownership that fetches the line (the "superfluous
// refill" for output-only data) and invalidates every other copy.
func (d *Domain) writeMiss(at sim.Time, i int, a mem.Addr) sim.Time {
	d.txn.Begin(txntrace.WriteMiss, i, uint64(a.Line()), at)
	done := d.writeMiss1(at, i, a)
	d.stats.WriteMissLatency += done - at
	if d.lat != nil {
		d.lat.WriteMiss.Record(uint64(done - at))
	}
	d.txn.End(done)
	return done
}

func (d *Domain) writeMiss1(at sim.Time, i int, a mem.Addr) sim.Time {
	a = a.Line()
	d.stats.WriteMisses++
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)

	// Cluster-local M/E owner: take the data and ownership locally.
	if owner, oln := d.snoopCluster(cl, i, a); owner != -1 {
		if d.txn != nil {
			d.tag("src=c2c_cluster")
			d.tag("mesi=" + oln.State.String() + "->M")
		}
		exclusiveOwner := oln.State == cache.Modified || oln.State == cache.Exclusive
		t = d.net.BusData(t, cl, mem.LineSize)
		dirty := oln.Dirty
		d.invalidate(owner, a)
		if !exclusiveOwner {
			// Shared: other copies may exist anywhere; broadcast.
			t2 := d.invalidateOthers(t, i, a, false)
			if t2 > t {
				t = t2
			}
		}
		_ = dirty // ownership moves with the data; the store dirties it
		ln := d.insertL1(t, i, a, cache.Modified, t)
		ln.Dirty = true
		return t
	}

	// No cluster owner: global broadcast invalidation + fetch — unless
	// the region filter proves no cache can hold the line.
	var owner int
	var oln *cache.Line
	tSnoop := t
	if d.cfg.SnoopFilter && !d.regionShared(i, a) {
		d.stats.FilteredSnoops++
		d.tag("snoop=filtered")
		owner = -1
	} else {
		owner, oln, tSnoop = d.snoopRemote(t, cl, a)
	}
	if owner != -1 && oln.State == cache.Modified {
		// Remote dirty owner transfers the line with ownership.
		d.tag("src=owner_remote_m")
		ocl := d.procs[owner].Cluster()
		td := d.net.BusData(tSnoop, ocl, mem.LineSize)
		td = d.net.ToGlobal(td, ocl, mem.LineSize)
		td = d.net.FromGlobal(td, cl, mem.LineSize)
		td = d.net.BusData(td, cl, mem.LineSize)
		d.invalidate(owner, a)
		d.killRemaining(a, i)
		ln := d.insertL1(td, i, a, cache.Modified, td)
		ln.Dirty = true
		return td
	}
	d.killRemaining(a, i)
	if d.txn != nil {
		d.tag("src=l2")
		d.tag("mesi=I->M")
	}
	done, _ := d.unc.ReadLine(t, cl, a)
	if done < tSnoop {
		done = tSnoop
	}
	done = d.net.BusData(done, cl, mem.LineSize)
	ln := d.insertL1(done, i, a, cache.Modified, done)
	ln.Dirty = true
	return done
}

// killRemaining invalidates stray copies after a global broadcast has
// already been charged.
func (d *Domain) killRemaining(a mem.Addr, except int) {
	for c := range d.l1s {
		if c == except {
			continue
		}
		d.invalidate(c, a)
	}
}

// invalidate removes core c's copy of line a, keeping the region filter
// and statistics consistent.
func (d *Domain) invalidate(c int, a mem.Addr) (present bool) {
	present, _ = d.l1s[c].Invalidate(a)
	if present {
		d.stats.Invalidations++
		d.regionTrack(c, a.Line(), -1)
	}
	return present
}

// upgrade services a store hit on a Shared line: broadcast invalidation
// without data movement.
func (d *Domain) upgrade(at sim.Time, i int, a mem.Addr) sim.Time {
	a = a.Line()
	d.stats.Upgrades++
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)
	lo, hi := d.clusterRange(cl)
	for c := lo; c < hi && c < len(d.l1s); c++ {
		if c == i {
			continue
		}
		d.procs[c].AddSnoopProbe()
		d.invalidate(c, a)
	}
	// Upgrades always broadcast beyond the cluster ("the request cannot
	// be satisfied within one cluster (e.g., upgrade request)") — unless
	// the region filter proves no remote copies can exist.
	if d.cfg.SnoopFilter && !d.regionShared(i, a) {
		d.stats.FilteredSnoops++
		return t
	}
	t2 := d.invalidateOthers(t, i, a, false)
	if t2 > t {
		t = t2
	}
	return t
}

// pfsMiss services a PFS store to an absent line: ownership without data.
func (d *Domain) pfsMiss(at sim.Time, i int, a mem.Addr) sim.Time {
	a = a.Line()
	d.stats.PFSMisses++
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)
	t2 := d.invalidateOthers(t, i, a, false)
	if t2 > t {
		t = t2
	}
	ln, ev := d.l1s[i].InsertPFS(a, t)
	_ = ln
	d.regionTrack(i, a, 1)
	if ev.Valid {
		d.regionTrack(i, ev.Addr, -1)
		if ev.Prefetched {
			d.stats.PrefetchUseless++
		}
		if ev.Dirty {
			d.stats.L1WritebacksL2++
			wt := d.net.BusData(t, cl, mem.LineSize)
			d.unc.WriteLine(wt, cl, ev.Addr, mem.LineSize, true)
		}
	}
	return t
}

// CheckInvariants verifies MESI invariants across all L1s: a line that is
// Modified or Exclusive anywhere has exactly one copy. Tests call it
// after workloads run.
func (d *Domain) CheckInvariants() error {
	total := 0
	for _, c := range d.l1s {
		total += c.Occupancy()
	}
	lines := newLineTable(total)
	for _, c := range d.l1s {
		for _, a := range c.Lines() {
			switch c.Lookup(a).State {
			case cache.Modified, cache.Exclusive:
				lines.addOwner(a)
			case cache.Shared:
				lines.addSharer(a)
			}
		}
	}
	var err error
	lines.each(func(a mem.Addr, owners, sharers uint16) {
		if err != nil {
			return
		}
		if owners > 1 {
			err = fmt.Errorf("line %v has %d exclusive owners", a, owners)
		} else if owners == 1 && sharers > 0 {
			err = fmt.Errorf("line %v is exclusive with %d sharers", a, sharers)
		}
	})
	return err
}
