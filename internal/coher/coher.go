// Package coher implements the cache-coherent memory model (Section 3.2):
// per-core 32 KB 2-way write-back/write-allocate L1 data caches kept
// coherent with a MESI write-invalidate protocol over the hierarchical
// interconnect. Requests are first broadcast on the requester's cluster
// bus; if they cannot be satisfied within the cluster (or are upgrades),
// they are broadcast to all other clusters and the shared L2. Snoop
// probes occupy the target D-cache for a cycle and may stall its core.
//
// The per-core cpu.ProcMem (Mem) is the private L1 front end of
// internal/incoher with MESI plugged in as its protocol; the protocol
// carries the optional tagged hardware prefetcher and the "Prepare For
// Store" / no-write-allocate store policies of Section 5.5.
package coher

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/incoher"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/prefetch"
	"repro/internal/sim"
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

// Stats counts protocol activity across the domain. The miss counts
// are the L1 front ends' (incoher.Stats, which also carries the miss
// service times).
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
}

// Snapshot emits the headline protocol counters in a fixed order (probe
// layer); the per-epoch C2C deltas are the communication-phase series.
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

// Domain is the set of coherent L1 caches over one uncore.
type Domain struct {
	cfg   Config
	net   *noc.Network
	unc   *uncore.Uncore
	procs []*cpu.Proc
	mems  []*Mem
	l1s   []*cache.Cache // mems[i].Cache(), for snooping
	stats Stats
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
	for i, p := range procs {
		m := &Mem{
			L1: incoher.NewL1(i, p.Cluster(), cache.Config{
				Name:  fmt.Sprintf("l1d%d", i),
				Size:  cfg.L1Size,
				Assoc: cfg.L1Assoc,
			}, unc),
			d:    d,
			core: i,
			pref: prefetch.New(cfg.PrefetchDepth),
		}
		m.SetProtocol(m)
		d.mems = append(d.mems, m)
		d.l1s = append(d.l1s, m.Cache())
	}
	if cfg.SnoopFilter {
		d.regShift = regionShift(cfg.RegionBytes)
		d.regions = make([]regionTable, len(procs))
	}
	return d
}

// Mem returns the cpu.ProcMem for core i.
func (d *Domain) Mem(i int) *Mem { return d.mems[i] }

// L1 returns core i's data cache (stats, tests).
func (d *Domain) L1(i int) *cache.Cache { return d.l1s[i] }

// Stats returns a snapshot of the protocol counters.
func (d *Domain) Stats() Stats {
	st := d.stats
	for _, m := range d.mems {
		ms := m.Stats()
		st.ReadMisses += ms.ReadMisses
		st.WriteMisses += ms.WriteMisses
	}
	return st
}

// mesiTags[from][to] is the "mesi=<from>-><to>" outcome tag of a state
// transition, built once so tagging a traced miss allocates nothing.
var mesiTags = func() (t [4][4]string) {
	for from := cache.Invalid; from <= cache.Modified; from++ {
		for to := cache.Invalid; to <= cache.Modified; to++ {
			t[from][to] = "mesi=" + from.String() + "->" + to.String()
		}
	}
	return t
}()

// tag annotates core i's active miss transaction with an outcome.
func (d *Domain) tag(i int, s string) { d.mems[i].Tag(s) }

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

// readMiss runs the MESI read (or, with pf, prefetch) transaction for
// core i's miss on a. It returns when the line arrives and the state to
// install it in.
func (d *Domain) readMiss(at sim.Time, i int, a mem.Addr, pf bool) (sim.Time, cache.State) {
	a = a.Line()
	if pf {
		d.stats.PrefetchFills++
	}
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)

	// Step 1: snoop within the cluster.
	if owner, oln := d.snoopCluster(cl, i, a); owner != -1 {
		d.stats.C2CCluster++
		d.tag(i, "src=c2c_cluster")
		d.tag(i, mesiTags[oln.State][cache.Shared])
		t = d.net.BusData(t, cl, mem.LineSize)
		if oln.State == cache.Modified && oln.Dirty {
			// Owner supplies dirty data and writes it back to the L2 so
			// both copies can be Shared and clean.
			d.unc.WriteLine(t, cl, a, mem.LineSize, true)
		}
		oln.State = cache.Shared
		oln.Dirty = false
		return t, cache.Shared
	}

	// Step 2: broadcast to the other clusters and the L2 — unless the
	// region filter proves no cache can hold the line.
	var owner int
	var oln *cache.Line
	tSnoop := t
	if d.cfg.SnoopFilter && !d.regionShared(i, a) {
		d.stats.FilteredSnoops++
		d.tag(i, "snoop=filtered")
		owner = -1
	} else {
		owner, oln, tSnoop = d.snoopRemote(t, cl, a)
	}
	if owner != -1 && oln.State == cache.Modified {
		d.stats.C2CRemote++
		d.tag(i, "src=owner_remote_m")
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
		return td, cache.Shared
	}

	// Step 3: the L2/DRAM supplies the data. Remote clean owners are
	// downgraded to Shared.
	newState := cache.Exclusive
	if owner != -1 {
		oln.State = cache.Shared
		newState = cache.Shared
	}
	d.tag(i, "src=l2")
	d.tag(i, mesiTags[cache.Invalid][newState])
	done, _ := d.unc.ReadLine(t, cl, a)
	if done < tSnoop {
		done = tSnoop
	}
	return d.net.BusData(done, cl, mem.LineSize), newState
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

// writeMiss runs the write-allocate transaction for core i's store
// miss on a: a read-for-ownership that fetches the line (the
// "superfluous refill" for output-only data) and invalidates every other
// copy. It returns when the line arrives, to be installed Modified.
func (d *Domain) writeMiss(at sim.Time, i int, a mem.Addr) sim.Time {
	a = a.Line()
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)

	// Cluster-local M/E owner: take the data and ownership locally.
	if owner, oln := d.snoopCluster(cl, i, a); owner != -1 {
		d.tag(i, "src=c2c_cluster")
		d.tag(i, mesiTags[oln.State][cache.Modified])
		exclusiveOwner := oln.State == cache.Modified || oln.State == cache.Exclusive
		t = d.net.BusData(t, cl, mem.LineSize)
		d.invalidate(owner, a)
		if !exclusiveOwner {
			// Shared: other copies may exist anywhere; broadcast.
			t = max(t, d.invalidateOthers(t, i, a, false))
		}
		return t
	}

	// No cluster owner: global broadcast invalidation + fetch — unless
	// the region filter proves no cache can hold the line.
	var owner int
	var oln *cache.Line
	tSnoop := t
	if d.cfg.SnoopFilter && !d.regionShared(i, a) {
		d.stats.FilteredSnoops++
		d.tag(i, "snoop=filtered")
		owner = -1
	} else {
		owner, oln, tSnoop = d.snoopRemote(t, cl, a)
	}
	if owner != -1 && oln.State == cache.Modified {
		// Remote dirty owner transfers the line with ownership.
		d.tag(i, "src=owner_remote_m")
		ocl := d.procs[owner].Cluster()
		td := d.net.BusData(tSnoop, ocl, mem.LineSize)
		td = d.net.ToGlobal(td, ocl, mem.LineSize)
		td = d.net.FromGlobal(td, cl, mem.LineSize)
		td = d.net.BusData(td, cl, mem.LineSize)
		d.invalidate(owner, a)
		d.killRemaining(a, i)
		return td
	}
	d.killRemaining(a, i)
	d.tag(i, "src=l2")
	d.tag(i, mesiTags[cache.Invalid][cache.Modified])
	done, _ := d.unc.ReadLine(t, cl, a)
	if done < tSnoop {
		done = tSnoop
	}
	return d.net.BusData(done, cl, mem.LineSize)
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
	return max(t, d.invalidateOthers(t, i, a, false))
}

// pfsMiss gains ownership of line a without data for core i's PFS
// store to an absent line, returning when ownership is granted.
func (d *Domain) pfsMiss(at sim.Time, i int, a mem.Addr) sim.Time {
	a = a.Line()
	d.stats.PFSMisses++
	cl := d.procs[i].Cluster()
	t := d.net.BusControl(at, cl)
	return max(t, d.invalidateOthers(t, i, a, false))
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
