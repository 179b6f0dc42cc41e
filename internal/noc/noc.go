// Package noc models the study's hierarchical on-chip interconnect
// (Table 2, Figure 1): cores are grouped in clusters of four around a
// 32-byte-wide bidirectional bus (2-cycle latency after arbitration), and
// clusters reach the shared L2 through a global crossbar with 16-byte
// pipelined ports (2.5 ns latency). Network clocks stay fixed when the
// core clock is scaled, as in the paper's Section 5.3 experiments.
package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/txntrace"
)

// Config describes the interconnect.
type Config struct {
	Clusters      int       // number of 4-core clusters
	Clock         sim.Clock // network clock domain (fixed at 800 MHz)
	BusBytes      uint64    // local bus width per cycle
	BusLatency    sim.Time  // local bus arbitration + propagation
	XbarBytes     uint64    // crossbar port width per cycle
	XbarLatency   sim.Time  // crossbar pipeline latency
	CoresPerClust int
}

// DefaultConfig returns the paper's interconnect for n cores.
func DefaultConfig(nCores int) Config { return DefaultConfigClustered(nCores, 4) }

// DefaultConfigClustered is DefaultConfig with an explicit cluster size
// (an ablation knob; the paper fixes it at 4).
func DefaultConfigClustered(nCores, perCluster int) Config {
	if perCluster <= 0 {
		perCluster = 4
	}
	clusters := (nCores + perCluster - 1) / perCluster
	clk := sim.MHz(800)
	return Config{
		Clusters:      clusters,
		Clock:         clk,
		BusBytes:      32,
		BusLatency:    clk.Cycles(2), // "2 cycle latency (after arbitration)"
		XbarBytes:     16,
		XbarLatency:   2500 * sim.Picosecond, // "2.5ns latency (pipelined)"
		CoresPerClust: perCluster,
	}
}

// Stats counts interconnect activity for the traffic and energy reports.
type Stats struct {
	BusDataBytes uint64 // data payload moved over cluster buses
	BusControl   uint64 // address/command slots (snoops, requests)
	XbarBytes    uint64 // payload through the global crossbar
	XbarMsgs     uint64
}

// Network is the assembled interconnect.
type Network struct {
	cfg   Config
	buses []*sim.Pipe // one per cluster
	toL2  []*sim.Pipe // per-cluster crossbar output port (towards L2)
	frL2  []*sim.Pipe // per-cluster crossbar input port (from L2)
	stats Stats
	txn   *txntrace.Tracer // nil = transaction tracing disabled
}

// New returns a network with cfg.
func New(cfg Config) *Network {
	if cfg.Clusters <= 0 {
		panic("noc: no clusters")
	}
	n := &Network{cfg: cfg}
	for i := 0; i < cfg.Clusters; i++ {
		n.buses = append(n.buses, sim.NewPipe(fmt.Sprintf("bus%d", i), cfg.BusBytes, cfg.Clock, cfg.BusLatency))
		n.toL2 = append(n.toL2, sim.NewPipe(fmt.Sprintf("xbar.out%d", i), cfg.XbarBytes, cfg.Clock, cfg.XbarLatency))
		n.frL2 = append(n.frL2, sim.NewPipe(fmt.Sprintf("xbar.in%d", i), cfg.XbarBytes, cfg.Clock, cfg.XbarLatency))
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats { return n.stats }

// SetTxnTrace attaches the run's transaction tracer (nil disables it).
func (n *Network) SetTxnTrace(t *txntrace.Tracer) { n.txn = t }

// The tracer's sites of the four transfer kinds.
var (
	busData    = txntrace.NewSite("noc", "bus_data", "")
	busControl = txntrace.NewSite("noc", "bus_control", "")
	toGlobal   = txntrace.NewSite("noc", "to_global", "")
	fromGlobal = txntrace.NewSite("noc", "from_global", "")
)

// xfer runs one tracked transfer and reports it to the tracer, which
// records the arbitration wait and a hop at site on the active
// transaction.
func (n *Network) xfer(p *sim.Pipe, at sim.Time, nbytes uint64, site txntrace.Site) sim.Time {
	done, wait := p.TransferTracked(at, nbytes)
	n.txn.Transfer(site, at, done, wait)
	return done
}

// ClusterOf maps a core index to its cluster.
func (n *Network) ClusterOf(core int) int { return core / n.cfg.CoresPerClust }

// Clusters returns the number of clusters.
func (n *Network) Clusters() int { return n.cfg.Clusters }

// BusData moves nbytes of payload across a cluster's bus, returning
// delivery time.
func (n *Network) BusData(at sim.Time, cluster int, nbytes uint64) sim.Time {
	n.stats.BusDataBytes += nbytes
	return n.xfer(n.buses[cluster], at, nbytes, busData)
}

// BusControl occupies one command slot on a cluster's bus (a coherence
// request, snoop result, or DMA command), returning delivery time.
func (n *Network) BusControl(at sim.Time, cluster int) sim.Time {
	n.stats.BusControl++
	return n.xfer(n.buses[cluster], at, n.cfg.BusBytes, busControl) // one bus cycle
}

// ToGlobal moves nbytes from a cluster to the global side (L2/DRAM
// direction) through the cluster's crossbar output port.
func (n *Network) ToGlobal(at sim.Time, cluster int, nbytes uint64) sim.Time {
	n.stats.XbarBytes += nbytes
	n.stats.XbarMsgs++
	return n.xfer(n.toL2[cluster], at, nbytes, toGlobal)
}

// FromGlobal moves nbytes from the global side back into a cluster.
func (n *Network) FromGlobal(at sim.Time, cluster int, nbytes uint64) sim.Time {
	n.stats.XbarBytes += nbytes
	n.stats.XbarMsgs++
	return n.xfer(n.frL2[cluster], at, nbytes, fromGlobal)
}

// BusUtilization returns the busy fraction of a cluster bus over [0, end].
func (n *Network) BusUtilization(cluster int, end sim.Time) float64 {
	return n.buses[cluster].Utilization(end)
}

// AvgBusUtilization returns the mean busy fraction across all cluster
// buses over [0, end].
func (n *Network) AvgBusUtilization(end sim.Time) float64 {
	if end == 0 || len(n.buses) == 0 {
		return 0
	}
	s := 0.0
	for _, b := range n.buses {
		s += b.Utilization(end)
	}
	return s / float64(len(n.buses))
}

// BusBusy returns the cumulative busy time summed over cluster buses;
// the probe layer differentiates it into a bus-utilization series.
func (n *Network) BusBusy() sim.Time {
	var t sim.Time
	for _, b := range n.buses {
		t += b.BusyTime()
	}
	return t
}

// XbarBusy returns the cumulative busy time summed over the crossbar
// ports in both directions.
func (n *Network) XbarBusy() sim.Time {
	var t sim.Time
	for _, p := range n.toL2 {
		t += p.BusyTime()
	}
	for _, p := range n.frL2 {
		t += p.BusyTime()
	}
	return t
}

// EachServer calls fn on the calendar of every bus and crossbar port.
func (n *Network) EachServer(fn func(*sim.Server)) {
	for _, b := range n.buses {
		fn(&b.Server)
	}
	for _, p := range n.toL2 {
		fn(&p.Server)
	}
	for _, p := range n.frL2 {
		fn(&p.Server)
	}
}

// Snapshot emits the counters in a fixed order (probe layer).
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("bus_data_bytes", float64(s.BusDataBytes))
	put("bus_control", float64(s.BusControl))
	put("xbar_bytes", float64(s.XbarBytes))
	put("xbar_msgs", float64(s.XbarMsgs))
}
