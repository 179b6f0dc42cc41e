// Package core assembles the study's CMP (Figure 1, Table 2) in either
// memory model and runs workloads on it. It is the framework the paper's
// comparison is built on: identical cores, interconnect, L2, DRAM and
// energy model, with only the first-level data storage swapped between
// coherent caches (CC) and local stores + DMA (STR).
package core

import (
	"fmt"

	"repro/internal/coher"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/incoher"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// Model selects the on-chip memory model.
type Model int

// The memory models: the study's two, plus the third practical corner
// of its Table 1 design space as an extension.
const (
	CC  Model = iota // hardware-coherent caches
	STR              // software-managed streaming memory
	// INC is the incoherent cache-based model (Table 1's remaining
	// practical option): hardware locality, software communication.
	INC
)

// String returns the paper's abbreviation.
func (m Model) String() string {
	switch m {
	case CC:
		return "CC"
	case STR:
		return "STR"
	case INC:
		return "INC"
	}
	return "?"
}

// Config describes one experimental machine. The zero value is not
// valid; start from DefaultConfig.
type Config struct {
	Model Model
	// Cores is the number of processors: the paper uses 1, 2, 4, 8, 16.
	Cores int
	// CoreMHz is the core clock: 800, 1600, 3200 or 6400. Network, L2
	// and DRAM clocks stay fixed when this scales (Section 5.3).
	CoreMHz uint64
	// DRAMBandwidthMBps is the memory channel bandwidth: 1600 (default),
	// 3200, 6400 or 12800.
	DRAMBandwidthMBps uint64
	// PrefetchDepth enables the CC hardware prefetcher when positive
	// ("P4" in Figure 7 is depth 4).
	PrefetchDepth int
	// NoWriteAllocate selects the CC no-write-allocate store policy with
	// a write-gathering buffer (Section 5.5 footnote ablation).
	NoWriteAllocate bool
	// SnoopFilter enables the RegionScout-style coarse-grain snoop
	// filter (the traffic-filter enhancement the paper's Section 8
	// points to).
	SnoopFilter bool
	// InstrPerIMiss and IMissPenalty configure the analytic I-cache
	// model; workloads with large code footprints set InstrPerIMiss in
	// Setup (0 = perfect I-cache).
	InstrPerIMiss uint64
	IMissPenalty  sim.Time
	// MaxSimTime aborts runaway simulations when non-zero.
	MaxSimTime sim.Time

	// Ablation knobs beyond the paper's sweeps (zero = Table 2 value).
	L2SizeKB        uint64 // shared L2 capacity override
	L2Banks         int    // address-interleaved L2 banks (default 1)
	DRAMChannels    int    // address-interleaved memory channels (default 1)
	CoresPerCluster int    // cores per local bus (default 4)
	DMAOutstanding  int    // concurrent DMA accesses (default 16)
	StoreBuffer     int    // store-buffer depth (default 8; 1 = blocking stores)

	// CycleLedger adds the cycle-accounting and latency-distribution
	// blocks to the Report: every core cycle attributed to the fixed
	// class taxonomy of internal/ledger (Cycles), and the memory
	// system's service-time histograms (Latency). Cores always keep
	// their ledgers; the histograms come from the transaction tracer, so
	// without TxnTrace the run arms one that keeps no trees. The
	// simulated outcome is identical either way (accounting reads the
	// clocks, it never moves them).
	CycleLedger bool

	// Trace, when non-nil, receives every core's stall and wait time as
	// timeline spans (internal/trace), one per ledger class charge, named
	// by the class and merged when contiguous: per core and class the
	// spans sum to the CycleLedger entry. Like Probe, a Collector belongs
	// to exactly one run.
	Trace *trace.Collector `json:"-"`

	// Probe, when non-nil, samples the whole machine every
	// Probe.Interval() of simulated time (internal/probe). Sampling reads
	// counters only, so the simulated outcome is identical with it on or
	// off. Like Trace, a Recorder belongs to exactly one run.
	Probe *probe.Recorder `json:"-"`

	// FlightRecorder, when positive, arms the engine's flight recorder
	// to retain the last K scheduler events (sim.SetFlightRecorder),
	// embedded in every typed failure's EngineState. Like Trace and
	// Probe it is a run-scoped observer, not part of the simulated
	// machine: it never moves a clock, so the outcome is identical with
	// it on or off, and the run layer excludes it from the memo key.
	FlightRecorder int `json:"flight_recorder,omitempty"`

	// TxnTrace, when non-nil, records per-transaction causal traces
	// (internal/txntrace): sampled full trees plus worst-K exemplar
	// reservoirs per latency class. Like Trace and Probe it is a
	// run-scoped observer behind the nil-sentinel pattern — it reads
	// clocks, never moves them — so the report is byte-identical with
	// it attached or not.
	TxnTrace *txntrace.Tracer `json:"-"`
}

// DefaultConfig is the paper's default machine: 800 MHz cores, 1.6 GB/s
// channel, no prefetching, write-allocate caches.
func DefaultConfig(model Model, cores int) Config {
	return Config{
		Model:             model,
		Cores:             cores,
		CoreMHz:           800,
		DRAMBandwidthMBps: 1600,
		IMissPenalty:      20 * sim.Nanosecond,
		MaxSimTime:        20 * sim.Second,
	}
}

// System is one assembled machine.
type System struct {
	cfg   Config
	eng   *sim.Engine
	as    *mem.AddressSpace
	net   *noc.Network
	unc   *uncore.Uncore
	procs []*cpu.Proc
	mems  []cpu.ProcMem    // each core's first level
	l1s   []*incoher.L1    // the private cache inside each mems[i]
	dom   *coher.Domain    // CC only
	strs  []*stream.Mem    // STR only
	txn   *txntrace.Tracer // cfg.TxnTrace, or a tree-less one for CycleLedger
	ran   bool
}

// Workload is a program for the machine: Setup allocates data and
// synchronization, Run executes on every core concurrently, and Verify
// checks the computed result against an independent reference.
type Workload interface {
	Name() string
	Setup(sys *System)
	Run(p *cpu.Proc)
	Verify() error
}

// InlineWorkload is the former opt-in for running a core's body as a
// sim.Runnable state machine. System no longer consults it: every core
// runs its Workload.Run body as a coroutine task. It stays declared for
// code built against the older API.
type InlineWorkload interface {
	InlineBody(p *cpu.Proc) sim.Runnable
}

// New assembles a machine. It panics when the configuration is invalid;
// callers that need a typed error instead call cfg.Validate first (the
// run layer does, so a bad config fails before any task spawns).
func New(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ncfg := noc.DefaultConfig(cfg.Cores)
	if cfg.CoresPerCluster > 0 {
		ncfg = noc.DefaultConfigClustered(cfg.Cores, cfg.CoresPerCluster)
	}
	s := &System{
		cfg: cfg,
		eng: sim.NewEngine(),
		as:  mem.NewAddressSpace(),
		net: noc.New(ncfg),
	}
	s.eng.MaxTime = cfg.MaxSimTime
	if cfg.FlightRecorder > 0 {
		s.eng.SetFlightRecorder(cfg.FlightRecorder)
	}
	ucfg := uncore.DefaultConfig()
	ucfg.DRAM = dram.DefaultConfig()
	if cfg.DRAMBandwidthMBps != 0 {
		ucfg.DRAM.BandwidthMBps = cfg.DRAMBandwidthMBps
	}
	if cfg.L2SizeKB != 0 {
		ucfg.L2Size = cfg.L2SizeKB * 1024
	}
	if cfg.L2Banks > 0 {
		ucfg.L2Banks = cfg.L2Banks
	}
	if cfg.DRAMChannels > 0 {
		ucfg.Channels = cfg.DRAMChannels
	}
	s.unc = uncore.New(ucfg, s.net)
	s.unc.SetHorizon(s.eng)

	clock := sim.MHz(cfg.CoreMHz)
	for i := 0; i < cfg.Cores; i++ {
		s.procs = append(s.procs, cpu.New(i, s.net.ClusterOf(i), cpu.Config{
			Clock:         clock,
			StoreBuffer:   cfg.StoreBuffer,
			InstrPerIMiss: cfg.InstrPerIMiss,
			IMissPenalty:  cfg.IMissPenalty,
		}))
	}
	switch cfg.Model {
	case CC:
		ccfg := coher.DefaultConfig()
		ccfg.PrefetchDepth = cfg.PrefetchDepth
		ccfg.WriteAllocate = !cfg.NoWriteAllocate
		ccfg.SnoopFilter = cfg.SnoopFilter
		s.dom = coher.NewDomain(ccfg, s.unc, s.procs)
		for i := range s.procs {
			m := s.dom.Mem(i)
			s.mems, s.l1s = append(s.mems, m), append(s.l1s, m.L1)
		}
	case STR:
		scfg := stream.DefaultConfig()
		scfg.DMAOutstanding = cfg.DMAOutstanding
		for i, p := range s.procs {
			m := stream.New(i, p.Cluster(), scfg, s.unc)
			s.strs = append(s.strs, m)
			s.mems, s.l1s = append(s.mems, m), append(s.l1s, m.L1)
		}
	case INC:
		for i, p := range s.procs {
			m := incoher.New(i, p.Cluster(), incoher.DefaultConfig(), s.unc)
			s.mems, s.l1s = append(s.mems, m), append(s.l1s, m.L1)
		}
	default:
		panic("core: unknown model")
	}
	s.txn = cfg.TxnTrace
	if s.txn == nil && cfg.CycleLedger {
		s.txn = &txntrace.Tracer{K: -1}
	}
	if s.txn != nil {
		s.attachTxnTrace(s.txn)
	}
	return s
}

// attachTxnTrace arms the memory system's observer: every layer shares
// one Tracer (model code runs single-threaded in event order, so the
// shared tracer needs no locks).
func (s *System) attachTxnTrace(t *txntrace.Tracer) {
	s.unc.SetTxnTrace(t)
	s.net.SetTxnTrace(t)
	for _, l1 := range s.l1s {
		l1.SetTxnTrace(t)
	}
	for i, m := range s.strs {
		m.DMA().SetTxnTrace(t, i)
	}
}

// Config returns the machine configuration.
func (s *System) Config() Config { return s.cfg }

// Abort requests cooperative cancellation of a running simulation (the
// per-job watchdog calls it from a timer goroutine). The engine acts on
// it only at a dispatch boundary inside sim.Engine.Run, unwinding Run
// with a typed *sim.AbortError carrying a progress dump; once the event
// loop has returned and the report is being finalized, Abort is a no-op
// (see DESIGN.md). Safe to call from any goroutine, any number of times;
// the first reason wins.
func (s *System) Abort(reason string) { s.eng.Abort(reason) }

// Model returns the memory model.
func (s *System) Model() Model { return s.cfg.Model }

// Cores returns the core count.
func (s *System) Cores() int { return s.cfg.Cores }

// AddressSpace returns the global address allocator for workload data.
func (s *System) AddressSpace() *mem.AddressSpace { return s.as }

// Domain returns the coherence domain (CC model only; nil otherwise).
func (s *System) Domain() *coher.Domain { return s.dom }

// StreamMem returns core i's streaming first level (STR model only).
func (s *System) StreamMem(i int) *stream.Mem { return s.strs[i] }

// L1 returns core i's private first-level cache.
func (s *System) L1(i int) *incoher.L1 { return s.l1s[i] }

// Uncore returns the shared hierarchy.
func (s *System) Uncore() *uncore.Uncore { return s.unc }

// SetICacheProfile lets a workload's Setup configure the analytic
// I-cache model before execution.
func (s *System) SetICacheProfile(instrPerMiss uint64) {
	s.cfg.InstrPerIMiss = instrPerMiss
	for _, p := range s.procs {
		p.SetICache(instrPerMiss, s.cfg.IMissPenalty)
	}
}

// Run executes the workload: Setup, concurrent per-core Run bodies, and
// Verify. It returns the measurement report and the verification error,
// if any.
//
// Run is the recovery boundary of a simulation: a panic anywhere in
// Setup, model or workload code — including the engine's typed failures
// (deadlock, livelock past MaxSimTime, Abort, a task-body panic;
// see sim/abort.go) — is caught here and returned as the error, with
// the unfinished task coroutines stopped so a failed run leaks nothing.
// sim.RunError values come back unwrapped, so callers can errors.As
// them for the engine-state snapshot. Calling Run twice still panics:
// that is a caller bug, not a simulation failure.
func (s *System) Run(w Workload) (rep *Report, err error) {
	if s.ran {
		panic("core: System.Run called twice; build a fresh System per run")
	}
	s.ran = true
	defer func() {
		r := recover()
		s.eng.Shutdown()
		if r == nil {
			return
		}
		rep = nil
		if rerr, ok := r.(error); ok {
			err = rerr
			return
		}
		err = &RunPanicError{Value: r}
	}()
	w.Setup(s)
	for i := 0; i < s.cfg.Cores; i++ {
		p := s.procs[i]
		m := s.mems[i]
		s.eng.Spawn(fmt.Sprintf("core%d", i), 0, func(task *sim.Task) {
			p.Bind(task, m, s.cfg.Trace)
			w.Run(p)
			p.Finish()
		})
	}
	for _, m := range s.strs {
		m.Spawn(s.eng)
	}
	if s.cfg.Probe != nil {
		s.attachProbe(s.cfg.Probe)
		s.eng.SetEpoch(s.cfg.Probe.Interval(), s.cfg.Probe.Tick)
	}
	s.eng.Run()
	return s.report(), w.Verify()
}
