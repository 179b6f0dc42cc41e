// Package memsys is the public API of this repository: a reproduction of
// "Comparing Memory Systems for Chip Multiprocessors" (Leverich et al.,
// ISCA 2007) as an execution-driven CMP simulator with both of the
// paper's on-chip memory models.
//
// The typical flow is:
//
//	cfg := memsys.DefaultConfig(memsys.CC, 16)
//	cfg.PrefetchDepth = 4
//	rep, err := memsys.Run(cfg, "fir", memsys.ScaleDefault)
//	fmt.Println(rep)
//
// Run builds a machine (Table 2 of the paper: Tensilica-class 3-way
// VLIW cores in clusters of four, hierarchical interconnect, shared
// 512 KB L2, one DRAM channel), instantiates the named workload at the
// requested dataset scale, executes it on every core, verifies the
// computed result against an independent reference, and returns the
// measurement report (Figure 2 execution breakdown, Figure 3 traffic,
// Figure 4 energy, Table 3 metrics).
//
// Lower-level access — assembling systems by hand, writing custom
// workloads — is available through NewSystem and the Workload interface.
package memsys

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/ledger"
	"repro/internal/mem"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/syncprim"
	"repro/internal/trace"
	"repro/internal/txntrace"
	"repro/internal/workload"
)

// Model selects the on-chip memory model.
type Model = core.Model

// The two memory models of the study.
const (
	// CC is the hardware-coherent cache-based model: 32 KB 2-way L1
	// data caches with MESI snooping over the hierarchical network.
	CC = core.CC
	// STR is the software-managed streaming model: 24 KB local stores
	// with DMA engines plus an 8 KB cache for stack/global data.
	STR = core.STR
	// INC is the incoherent cache-based model, the third practical point
	// of the paper's Table 1 design space (an extension beyond the
	// paper's two evaluated models): caches without a coherence
	// protocol; software flushes and invalidates at synchronization
	// points.
	INC = core.INC
)

// Config describes one experimental machine; see core.Config for the
// field documentation.
type Config = core.Config

// System is an assembled machine.
type System = core.System

// Report is the measurement record of one run.
type Report = core.Report

// Cycle-accounting types (internal/ledger), present on a Report when
// Config.CycleLedger is set: CycleSummary attributes every core cycle
// to a fixed class taxonomy (classes sum exactly to the wall time);
// LatencySummary carries the memory system's service-time
// distributions, one LatencyDist of quantiles and power-of-two buckets
// per metric.
type (
	CycleSummary   = ledger.Summary
	LatencySummary = ledger.LatencySummary
	LatencyDist    = ledger.Dist
)

// Workload is a program for the machine. The built-in implementations
// live in internal/workload; external users implement it against the
// aliases below (Proc, Region, Barrier, ...), which expose everything a
// workload needs without importing internal packages.
type Workload = core.Workload

// Proc is one simulated core as seen by workload code: Work/Load/Store
// issue accounting, bulk LoadN/StoreN/StorePFSN helpers, and the
// execution-time breakdown.
type Proc = cpu.Proc

// StreamMem is the streaming model's first level; workload code obtains
// it with p.Mem().(*memsys.StreamMem) to reach the local store and DMA
// engine on STR machines.
type StreamMem = stream.Mem

// Addr is a simulated physical address; Region a named allocation from
// System.AddressSpace().
type (
	Addr   = mem.Addr
	Region = mem.Region
)

// Synchronization primitives for workloads, in simulated time.
type (
	Barrier   = syncprim.Barrier
	Lock      = syncprim.Lock
	TaskQueue = syncprim.TaskQueue
)

// NewBarrier returns a reusable barrier for n participants.
func NewBarrier(name string, n int) *Barrier { return syncprim.NewBarrier(name, n) }

// NewLock returns a FIFO mutex in simulated time.
func NewLock(name string) *Lock { return syncprim.NewLock(name) }

// NewTaskQueue returns a dynamic work-item dispenser over [0, limit).
func NewTaskQueue(name string, limit int) *TaskQueue { return syncprim.NewTaskQueue(name, limit) }

// Scale selects workload dataset sizes.
type Scale = workload.Scale

// Dataset scales: Small for quick runs, Default for benchmarks (same
// shape as the paper at lower cost), Paper for paper-scale inputs.
const (
	ScaleSmall   = workload.ScaleSmall
	ScaleDefault = workload.ScaleDefault
	ScalePaper   = workload.ScalePaper
)

// ParseModel converts a string ("cc", "str", "inc", case-insensitive)
// to a Model.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(s) {
	case "cc":
		return CC, nil
	case "str":
		return STR, nil
	case "inc":
		return INC, nil
	}
	return CC, fmt.Errorf("memsys: unknown model %q (want cc, str or inc)", s)
}

// ParseScale converts a string ("small", "default", "paper") to a Scale.
func ParseScale(s string) (Scale, error) { return workload.ParseScale(s) }

// DefaultConfig returns the paper's default machine for the given model
// and core count: 800 MHz cores, 1.6 GB/s memory channel, no prefetch.
func DefaultConfig(model Model, cores int) Config {
	return core.DefaultConfig(model, cores)
}

// NewSystem assembles a machine.
func NewSystem(cfg Config) *System { return core.New(cfg) }

// FieldError reports one invalid Config field from Config.Validate;
// Field names the Config field, so CLIs can map it back to a flag.
type FieldError = core.FieldError

// FieldErrors extracts every typed *FieldError from a Config.Validate
// result. Nil input yields nil.
func FieldErrors(err error) []*FieldError { return core.FieldErrors(err) }

// Workloads lists the registered workload names: the paper's eleven
// applications plus the pre-optimization and PFS variants.
func Workloads() []string { return workload.Names() }

// NewWorkload instantiates a registered workload at the given scale.
func NewWorkload(name string, scale Scale) (Workload, error) {
	f, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	return f(scale), nil
}

// Trace collects each core's stall and wait time as timeline spans
// named by cycle-ledger class (load_stall, store_stall, sync_wait,
// dma_wait, prefetch_shadow); attach one via Config.Trace and export it
// with WriteChrome for chrome://tracing.
type Trace = trace.Collector

// NewTrace returns an empty span collector with the default cap.
func NewTrace() *Trace { return trace.New() }

// RunError is the interface of every typed simulation failure raised by
// the engine (deadlock, livelock, watchdog abort, task panic). Extract
// it from Run's error with errors.As to reach the EngineState snapshot —
// including the flight recorder's last scheduler events — taken at the
// moment of failure.
type RunError = sim.RunError

// EngineState is the diagnostic snapshot every RunError carries: last
// event time, per-task states, engine self-metrics, and (when a flight
// recorder was armed via Config.FlightRecorder) the recent scheduler
// events that led to the failure.
type EngineState = sim.EngineState

// FlightEvent is one recorded scheduler event in EngineState.Recent.
type FlightEvent = sim.FlightEvent

// Time is a simulated timestamp/duration in femtoseconds.
type Time = sim.Time

// ParseTime parses a simulated duration such as "1us", "2.5ns" or
// "800ps" into a Time.
func ParseTime(s string) (Time, error) { return sim.ParseDuration(s) }

// Probe samples the whole machine on a fixed simulated-time epoch,
// turning cumulative counters into time-resolved series; attach one via
// Config.Probe. Sampling never changes the simulated outcome.
type Probe = probe.Recorder

// NewProbe returns a recorder sampling every interval of simulated time.
func NewProbe(interval Time) *Probe { return probe.NewRecorder(interval) }

// TxnTrace records request-scoped causal traces of individual memory
// transactions: each sampled miss, DMA command or prefetch gets a tree
// of hops through the hierarchy (L1 → snoop/L2 → NoC → DRAM), plus an
// always-on worst-K exemplar reservoir per latency class. Attach one
// via Config.TxnTrace; like Trace and Probe it never changes a report.
type TxnTrace = txntrace.Tracer

// Txn is one recorded transaction tree; TxnHop one interval within it.
type (
	Txn    = txntrace.Txn
	TxnHop = txntrace.Hop
)

// TxnClass is a transaction latency class (read_miss, write_miss,
// l2_hit, dram_fill, dma_get, dma_put, prefetch).
type TxnClass = txntrace.Class

// NewTxnTrace returns a tracer with worst-K exemplar capture on and
// sampled capture off; set SampleEvery/Seed before the run for
// deterministic sampled capture.
func NewTxnTrace() *TxnTrace { return txntrace.New() }

// Run builds a machine, runs the named workload, verifies its output
// and returns the report. A verification failure returns the report
// alongside the error.
func Run(cfg Config, name string, scale Scale) (*Report, error) {
	w, err := NewWorkload(name, scale)
	if err != nil {
		return nil, err
	}
	return NewSystem(cfg).Run(w)
}
