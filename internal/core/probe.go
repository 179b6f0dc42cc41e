package core

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/incoher"
	"repro/internal/ledger"
	"repro/internal/probe"
	"repro/internal/sim"
)

// attachProbe registers every model's counters with the recorder. All
// sources are read-only closures re-evaluated at each epoch tick, so
// attaching a probe cannot perturb the event order (the invariant
// internal/probe documents and TestProbeDoesNotPerturbReports pins).
//
// Metric naming: "<unit>.<counter>" for snapshot sources, bare dotted
// names for gauges. Cumulative busy times are exported in femtoseconds
// as Counters ("*_busy_fs"); their per-epoch delta over the interval is
// the utilization series.
func (s *System) attachProbe(r *probe.Recorder) {
	// Engine self-metrics: fast-path hit rate and dispatch throughput
	// over time, plus the instantaneous event-queue depth.
	r.AddSnapshot("engine", func(put func(string, float64)) {
		s.eng.Metrics().Snapshot(put)
	})
	r.AddGauge("engine.heap_depth", probe.Level, func(sim.Time) float64 {
		return float64(s.eng.QueueLen())
	})

	// Core issue counters (aggregated) and store-buffer fill.
	r.AddSnapshot("cpu", func(put func(string, float64)) {
		var agg cpu.Stats
		for _, p := range s.procs {
			agg.Add(p.Stats())
		}
		agg.Snapshot(put)
	})
	r.AddGauge("cpu.storebuf", probe.Level, func(now sim.Time) float64 {
		n := 0
		for _, p := range s.procs {
			n += p.StoreBufOccupancy(now)
		}
		return float64(n)
	})

	// First-level storage: the CC/INC L1s or the STR 8 KB caches.
	r.AddSnapshot("l1", func(put func(string, float64)) {
		s.l1Stats().Snapshot(put)
	})

	// Shared hierarchy.
	r.AddSnapshot("l2", func(put func(string, float64)) {
		s.unc.L2Stats().Snapshot(put)
	})
	r.AddGauge("l2.port_busy_fs", probe.Counter, func(sim.Time) float64 {
		return float64(s.unc.L2PortBusy())
	})
	r.AddSnapshot("dram", func(put func(string, float64)) {
		s.unc.DRAMStats().Snapshot(put)
	})
	r.AddGauge("dram.channel_busy_fs", probe.Counter, func(sim.Time) float64 {
		return float64(s.unc.ChannelBusy())
	})
	r.AddSnapshot("noc", func(put func(string, float64)) {
		s.net.Stats().Snapshot(put)
	})
	r.AddGauge("noc.bus_busy_fs", probe.Counter, func(sim.Time) float64 {
		return float64(s.net.BusBusy())
	})
	r.AddGauge("noc.xbar_busy_fs", probe.Counter, func(sim.Time) float64 {
		return float64(s.net.XbarBusy())
	})

	// Cycle-accounting classes aggregated across cores (Idle excluded:
	// it is derived from wall minus finish at report time).
	if s.cfg.CycleLedger {
		r.AddSnapshot("cycles", func(put func(string, float64)) {
			var agg ledger.Ledger
			for _, p := range s.procs {
				agg.Add(p.Ledger())
			}
			agg.Snapshot(put)
		})
	}

	// Model-specific sources.
	switch s.cfg.Model {
	case CC:
		r.AddSnapshot("coher", func(put func(string, float64)) {
			s.dom.Stats().Snapshot(put)
		})
	case INC:
		r.AddSnapshot("inc", func(put func(string, float64)) {
			s.missStats().Snapshot(put)
		})
	case STR:
		r.AddSnapshot("dma", func(put func(string, float64)) {
			var agg dma.Stats
			for _, m := range s.strs {
				agg.Add(m.DMA().Stats())
			}
			agg.Snapshot(put)
		})
		r.AddGauge("dma.queued", probe.Level, func(sim.Time) float64 {
			n := 0
			for _, m := range s.strs {
				n += m.DMA().QueuedCommands()
			}
			return float64(n)
		})
		r.AddGauge("dma.busy", probe.Level, func(sim.Time) float64 {
			n := 0
			for _, m := range s.strs {
				if m.DMA().Busy() {
					n++
				}
			}
			return float64(n)
		})
	}
}

// l1Stats aggregates the first-level tag arrays of whichever model is
// built (shared by report() and the probe's "l1" source).
func (s *System) l1Stats() cache.Stats {
	var agg cache.Stats
	for _, l1 := range s.l1s {
		agg.Add(l1.Cache().Stats())
	}
	return agg
}

// missStats aggregates the first level's miss accounting across cores
// (shared by report() and the probe's "inc" source).
func (s *System) missStats() incoher.Stats {
	var agg incoher.Stats
	for _, l1 := range s.l1s {
		agg.Add(l1.Stats())
	}
	return agg
}
