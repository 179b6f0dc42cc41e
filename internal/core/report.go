package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/ledger"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// Report is the measurement record of one run: the Figure 2 execution
// breakdown, traffic (Figure 3), energy (Figure 4) and the raw counters
// behind the paper's tables.
type Report struct {
	Model   Model
	Cores   int
	CoreMHz uint64

	// Wall is the execution time: the latest core finish time.
	Wall sim.Time
	// PerCore is each core's execution-time decomposition.
	PerCore []cpu.Breakdown
	// Breakdown is the decomposition of the critical path, scaled so the
	// buckets are averages across cores (the stacked bars of Figure 2
	// show per-core averages normalized to the sequential run).
	Breakdown cpu.Breakdown

	Instructions  uint64
	TotalLoads    uint64 // load instructions across cores
	TotalStores   uint64 // store instructions across cores
	LocalAccesses uint64 // always-hitting stack/temporary accesses

	L1   cache.Stats // aggregate CC L1s, or the STR 8 KB caches
	L2   cache.Stats
	DRAM dram.Stats
	Net  noc.Stats
	Unc  uncore.Stats

	// CC-only protocol counters (zero for STR).
	ReadMisses, WriteMisses, Upgrades, PFSMisses uint64
	C2CCluster, C2CRemote                        uint64
	L1WritebacksL2                               uint64
	PrefetchFills, PrefetchUseless               uint64
	GatherFlushes                                uint64
	FilteredSnoops                               uint64

	// STR-only counters (zero for CC).
	DMACommands uint64
	DMAGetBytes uint64
	DMAPutBytes uint64
	LSAccesses  uint64

	// Mean service times, comparable field-for-field across models: the
	// miss latencies are the first-level demand misses of whichever model
	// ran (CC/INC L1s, or the STR 8 KB cache), the DMA latencies are
	// whole command queue-to-completion times (STR only, zero for CC).
	// Always accumulated — these are sums over counters the models keep
	// anyway, independent of CycleLedger.
	AvgReadMissLatency  sim.Time
	AvgWriteMissLatency sim.Time
	AvgDMAGetLatency    sim.Time
	AvgDMAPutLatency    sim.Time

	// Cycles and Latency are the cycle-accounting layer's blocks,
	// present only when Config.CycleLedger was set: every core cycle
	// attributed to the ledger taxonomy (conserving the wall time
	// exactly), and the memory system's service-time distributions.
	Cycles  *ledger.Summary        `json:",omitempty"`
	Latency *ledger.LatencySummary `json:",omitempty"`

	Counts energy.Counts
	Energy energy.Breakdown

	// Resource utilizations over the run (busy time / wall time):
	// useful for spotting which structure binds a configuration.
	ChannelUtil float64 // DRAM data pins
	L2PortUtil  float64
	AvgBusUtil  float64 // mean across cluster buses

	// Engine is the event engine's self-metrics for the run: fast-path
	// Sync hit rate, dispatch counts, heap pressure. A simulator-health
	// record rather than a model measurement.
	Engine sim.Metrics
	// Servers aggregates calendar-maintenance counters across the
	// interconnect, L2-port, DRAM channel and bank servers.
	Servers sim.ServerMetrics
}

// report gathers counters after the engine has drained.
func (s *System) report() *Report {
	r := &Report{
		Model:   s.cfg.Model,
		Cores:   s.cfg.Cores,
		CoreMHz: s.cfg.CoreMHz,
		L2:      s.unc.L2Stats(),
		DRAM:    s.unc.DRAMStats(),
		Net:     s.net.Stats(),
		Unc:     s.unc.Stats(),
	}
	for _, p := range s.procs {
		bd := p.Breakdown()
		r.PerCore = append(r.PerCore, bd)
		if ft := p.FinishTime(); ft > r.Wall {
			r.Wall = ft
		}
		r.Instructions += p.Stats().Instructions
		r.TotalLoads += p.Stats().Loads
		r.TotalStores += p.Stats().Stores
		r.LocalAccesses += p.Stats().LocalAccesses
		r.Breakdown.Useful += bd.Useful
		r.Breakdown.Sync += bd.Sync
		r.Breakdown.LoadStall += bd.LoadStall
		r.Breakdown.StoreStall += bd.StoreStall
	}
	// Average the buckets per core: the total then reads as "time" on
	// the same scale as Wall for a balanced workload.
	n := sim.Time(uint64(s.cfg.Cores))
	r.Breakdown.Useful /= n
	r.Breakdown.Sync /= n
	r.Breakdown.LoadStall /= n
	r.Breakdown.StoreStall /= n

	switch s.cfg.Model {
	case CC:
		st := s.dom.Stats()
		r.ReadMisses = st.ReadMisses
		r.WriteMisses = st.WriteMisses
		r.Upgrades = st.Upgrades
		r.PFSMisses = st.PFSMisses
		r.C2CCluster = st.C2CCluster
		r.C2CRemote = st.C2CRemote
		r.L1WritebacksL2 = st.L1WritebacksL2
		r.PrefetchFills = st.PrefetchFills
		r.PrefetchUseless = st.PrefetchUseless
		r.GatherFlushes = st.GatherFlushes
		r.FilteredSnoops = st.FilteredSnoops
	case STR:
		var da dma.Stats
		for _, m := range s.strs {
			ds := m.DMA().Stats()
			da.Add(ds)
			r.DMACommands += ds.Commands
			r.DMAGetBytes += ds.GetBytes
			r.DMAPutBytes += ds.PutBytes
			ls := m.LocalStore().Stats()
			r.LSAccesses += ls.Reads + ls.Writes + ls.DMABeats
		}
		r.AvgDMAGetLatency = da.AvgGetLatency()
		r.AvgDMAPutLatency = da.AvgPutLatency()
	}
	ms := s.missStats()
	r.AvgReadMissLatency = ms.AvgReadMissLatency()
	r.AvgWriteMissLatency = ms.AvgWriteMissLatency()
	r.L1 = s.l1Stats()
	r.Engine = s.eng.Metrics()
	s.net.AddServerMetrics(&r.Servers)
	s.unc.AddServerMetrics(&r.Servers)
	r.Counts = s.energyCounts(r)
	r.Energy = energy.Default90nm().Compute(r.Counts, r.Wall, s.cfg.Cores)
	if r.Wall > 0 {
		r.ChannelUtil = s.unc.AvgChannelUtilization(r.Wall)
		r.L2PortUtil = float64(s.unc.L2PortBusy()) / float64(r.Wall)
		r.AvgBusUtil = s.net.AvgBusUtilization(r.Wall)
	}
	if s.cfg.CycleLedger {
		leds := make([]*ledger.Ledger, len(s.procs))
		finish := make([]sim.Time, len(s.procs))
		for i, p := range s.procs {
			leds[i] = p.Ledger()
			finish[i] = p.FinishTime()
		}
		r.Cycles = ledger.NewSummary(r.Wall, leds, finish)
		r.Latency = s.lat.Summary()
	}
	return r
}

func (s *System) energyCounts(r *Report) energy.Counts {
	clock := sim.MHz(s.cfg.CoreMHz)
	totalCycles := uint64(s.cfg.Cores) * clock.ToCycles(r.Wall)
	idle := uint64(0)
	if totalCycles > r.Instructions {
		idle = totalCycles - r.Instructions
	}
	c := energy.Counts{
		Instructions:    r.Instructions,
		CoreCycles:      r.Instructions,
		IdleCycles:      idle,
		ICacheAccesses:  r.Instructions,
		BusDataBytes:    r.Net.BusDataBytes,
		BusControl:      r.Net.BusControl,
		XbarBytes:       r.Net.XbarBytes,
		XbarMsgs:        r.Net.XbarMsgs,
		L2Accesses:      r.L2.Reads + r.L2.Writes + r.L2.Fills,
		DRAMBytes:       r.DRAM.ReadBytes + r.DRAM.WriteBytes,
		DRAMActivations: r.DRAM.RowMisses,
	}
	switch s.cfg.Model {
	case CC, INC:
		c.L1Accesses = r.L1.Reads + r.L1.Writes + r.L1.Fills + r.LocalAccesses
		c.L1Snoops = r.L1.SnoopLookups
	case STR:
		// Stack/temporary traffic goes through the 8 KB cache.
		c.SmallAccesses = r.L1.Reads + r.L1.Writes + r.L1.Fills + r.LocalAccesses
		c.LSAccesses = r.LSAccesses
	}
	return c
}

// WallCycles returns the execution time in core cycles.
func (r *Report) WallCycles() uint64 {
	return sim.MHz(r.CoreMHz).ToCycles(r.Wall)
}

// OffChipBandwidth returns the average off-chip traffic rate in MB/s
// (10^6 bytes per second), the Table 3 metric.
func (r *Report) OffChipBandwidth() float64 {
	if r.Wall == 0 {
		return 0
	}
	return float64(r.DRAM.TotalBytes()) / r.Wall.Seconds() / 1e6
}

// L1MissRate returns L1 data misses per load/store instruction — the
// paper's Table 3 metric. (The tag arrays are consulted once per line
// on bulk sequential accesses, so the raw tag-array miss ratio would
// overstate the per-instruction rate.)
func (r *Report) L1MissRate() float64 {
	ops := r.TotalLoads + r.TotalStores + r.LocalAccesses
	if ops == 0 {
		return 0
	}
	return float64(r.L1.Misses()) / float64(ops)
}

// L2MissRate returns the fraction of L2 accesses that missed.
func (r *Report) L2MissRate() float64 { return r.L2.MissRate() }

// InstrPerL1Miss returns total instructions per L1 data miss (Table 3).
func (r *Report) InstrPerL1Miss() float64 {
	m := r.L1.Misses()
	if m == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(m)
}

// CyclesPerL2Miss returns wall cycles per L2 data miss (Table 3): how
// often, in single-clock cycles, the system as a whole takes an L2 miss.
func (r *Report) CyclesPerL2Miss() float64 {
	m := r.L2.Misses()
	if m == 0 {
		return 0
	}
	return float64(r.WallCycles()) / float64(m)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d cores @ %d MHz: %v", r.Model, r.Cores, r.CoreMHz, r.Wall)
	if r.Instructions >= 10_000_000 {
		fmt.Fprintf(&b, " (%d Minstr", r.Instructions/1_000_000)
	} else {
		fmt.Fprintf(&b, " (%d Kinstr", r.Instructions/1_000)
	}
	fmt.Fprintf(&b, ", %.1f MB/s off-chip)\n", r.OffChipBandwidth())
	tot := float64(r.Breakdown.Total())
	if tot > 0 {
		fmt.Fprintf(&b, "  useful %.1f%%  sync %.1f%%  load %.1f%%  store %.1f%%\n",
			100*float64(r.Breakdown.Useful)/tot,
			100*float64(r.Breakdown.Sync)/tot,
			100*float64(r.Breakdown.LoadStall)/tot,
			100*float64(r.Breakdown.StoreStall)/tot)
	}
	fmt.Fprintf(&b, "  off-chip: %d KB read, %d KB written; energy %.3g mJ\n",
		r.DRAM.ReadBytes/1024, r.DRAM.WriteBytes/1024, r.Energy.Total()*1e3)
	fmt.Fprintf(&b, "  utilization: dram %.0f%%  l2 port %.0f%%  buses %.0f%%\n",
		100*r.ChannelUtil, 100*r.L2PortUtil, 100*r.AvgBusUtil)
	return b.String()
}
