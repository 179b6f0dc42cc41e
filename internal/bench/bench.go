// Package bench regenerates every table and figure of the paper's
// evaluation (Table 3, Figures 2 through 10) on the simulator. Each
// generator returns the measured series and writes a plain-text table;
// cmd/paperbench drives them all and EXPERIMENTS.md records the
// paper-versus-measured comparison.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/txntrace"
	"repro/internal/warnonce"
	"repro/internal/workload"
)

// AllApps is the paper's application list in Table 3 order.
var AllApps = []string{
	"mpeg2", "h264", "raytracer", "jpeg-encode", "jpeg-decode",
	"depth", "fem", "fir", "art", "bitonicsort", "mergesort",
}

// Job names one simulation: a machine configuration and a workload.
type Job struct {
	Cfg  core.Config
	Name string
}

// cfgKey identifies a simulation in the memo table. Embedding the whole
// Config keeps the key collision-free by construction: every field —
// including ones added later — participates in equality, so two distinct
// configurations can never alias one cache slot.
type cfgKey struct {
	name string
	cfg  core.Config
}

func keyOf(cfg core.Config, name string) cfgKey {
	// Config.Normalize strips the run-scoped observers (tracer, probe,
	// flight recorder): they are not part of the machine's identity, so
	// the struct stays comparable and observed runs memoize against
	// unobserved ones. The persistent result store hashes the same
	// normalized config, so memo identity and store identity agree.
	return cfgKey{name: name, cfg: cfg.Normalize()}
}

// Record describes one fresh simulation for machine-readable run
// artifacts (paperbench's manifest.jsonl): the full configuration, the
// measurement report, and how long the simulation took on the host.
// Memoized cache hits do not produce records — a record is one actual
// engine run; neither do results recalled from the Store.
type Record struct {
	Name   string       `json:"workload"`
	Cfg    core.Config  `json:"config"`
	Report *core.Report `json:"report,omitempty"`
	Err    string       `json:"error,omitempty"`
	HostNS int64        `json:"host_ns"`
	// Failure diagnostics, present only when Err is set: the error kind,
	// how many attempts were made (retries count), and the engine-state
	// snapshot for failures the engine produced one for.
	ErrKind     string           `json:"error_kind,omitempty"`
	Attempts    int              `json:"attempts,omitempty"`
	EngineState *sim.EngineState `json:"engine_state,omitempty"`
	// Pool-residency diagnostics: how long the job waited for a worker
	// slot after admission, and each attempt's wall time (len > 1 means
	// the watchdog or a panic forced retries). Together with HostNS they
	// let manifest analysis distinguish queue pressure from slow sims.
	QueueWaitNS int64   `json:"queue_wait_ns"`
	AttemptsNS  []int64 `json:"attempts_ns,omitempty"`
	// TailExemplars is the run's transaction-tracer digest — per latency
	// class, how many transactions were observed and the slowest one's
	// identity — present when the Runner armed per-run tracers
	// (TxnExemplars) or the caller attached one via Config.TxnTrace.
	TailExemplars []txntrace.ClassSummary `json:"tail_exemplars,omitempty"`
	// Txn is the run's tracer itself, for callers that export the
	// exemplar trees (paperbench's -txn-trace sink). Never serialized:
	// the digest above is the manifest form.
	Txn *txntrace.Tracer `json:"-"`
}

// flight is one simulation's singleflight slot: the first requester of a
// key becomes its leader and simulates; everyone else waits on done.
type flight struct {
	done chan struct{}
	rep  *core.Report
	err  error
	// enqueuedAt stamps admission so queue_wait_ns works with or without
	// a Campaign attached; span is the job's telemetry handle (nil-safe).
	enqueuedAt time.Time
	span       *telemetry.Span
}

// Runner executes workload/configuration pairs on a bounded worker pool
// with memoization, so shared baselines (e.g. the 1-core CC run every
// figure normalizes to) are simulated once. Each simulation is an
// isolated sim.Engine world, so independent keys run concurrently;
// requests for a key already in flight wait for the running simulation
// instead of repeating it. All methods are safe for concurrent use.
//
// Two-phase usage: Prefetch fans a figure's whole grid out to the pool
// without blocking, then the figure generator collects results with the
// blocking Run in its usual deterministic order. Because simulations are
// deterministic and memoized, figure output is byte-identical at any
// worker count.
type Runner struct {
	Scale workload.Scale
	// Progress, when non-nil, receives one line per fresh simulation,
	// serialized through a single collector goroutine and prefixed with
	// a completed-count [12/88]. Set it before the first Run or Prefetch.
	Progress io.Writer
	// Workers bounds concurrent simulations; 0 means
	// runtime.GOMAXPROCS(0). Set it before the first Run or Prefetch.
	Workers int
	// OnRecord, when non-nil, receives one Record per fresh simulation
	// as it completes. It is called from worker goroutines concurrently;
	// the callback must be safe for concurrent use. Set it before the
	// first Run or Prefetch.
	OnRecord func(Record)
	// JobTimeout, when positive, arms a wall-clock watchdog per job: a
	// simulation still running after this much host time is cancelled
	// cooperatively (core.System.Abort) and fails with a timeout
	// JobError carrying the engine's progress dump. Zero disables it.
	JobTimeout time.Duration
	// Retries is the per-job retry budget for retryable failures
	// (timeouts and panics; see JobError.Retryable). Attempts are spaced
	// by exponential backoff whose jitter derives from the deterministic
	// job key, not the clock. Deterministic failures are never retried.
	Retries int
	// Telemetry, when non-nil, receives per-job lifecycle spans and
	// campaign counters (internal/telemetry) for the -http endpoints and
	// the TTY status line. Purely observational: figure output is
	// byte-identical with it attached or not. Set it before the first
	// Run or Prefetch. All Campaign methods are nil-safe, so the zero
	// Runner needs no guards.
	Telemetry *telemetry.Campaign
	// Store, when non-nil, is the persistent cross-campaign result store
	// (paperbench -store, or -resume's DIR/store): each admitted job
	// probes it before simulating and a hit resolves the flight without
	// running the engine — no Record, no ok/failed movement, a "(store)"
	// progress marker — while a miss simulates normally and writes the
	// verified report back. Store keys include the Runner's dataset
	// Scale, so campaigns sharing one store directory at different
	// -scale values never serve each other's reports. Corrupt or
	// version-mismatched records are misses by construction (the store
	// deletes corrupt ones), so an un-trustworthy
	// store can only cost time, never correctness. Set it before the
	// first Run or Prefetch.
	Store *resultstore.Store
	// FlightRecorder sizes the engine flight recorder armed for every
	// fresh simulation (the last K scheduler events, embedded in typed
	// failures' engine-state snapshots): 0 means the default of 256
	// events, negative disables recording. The recorder is run-scoped —
	// excluded from the memo key and from manifest configs — and its
	// disabled cost on the engine is one nil compare per record site.
	FlightRecorder int
	// TxnExemplars, when positive, arms a per-run transaction tracer
	// (internal/txntrace) for every fresh simulation with that worst-K
	// exemplar reservoir depth per latency class. Run-scoped like the
	// flight recorder: excluded from memo and store identity, reports
	// stay byte-identical. Each fresh Record then carries the run's
	// tracer and its tail_exemplars digest, and campaign telemetry
	// aggregates the per-class rollups. A caller-set Config.TxnTrace
	// wins over the Runner's arming.
	TxnExemplars int

	initOnce  sync.Once
	closeOnce sync.Once
	sem       chan struct{} // worker slots
	progCh    chan string
	progWG    sync.WaitGroup

	storeWarn warnonce.Warner // store write failures surface once, not per-job

	mu        sync.Mutex
	cache     map[cfgKey]*flight
	scheduled int // simulations admitted to the pool (the "/88")
	completed int // simulations finished (the "12")
	okCount   int // fresh simulations that succeeded
	failCount int // fresh simulations that failed (after retries)
	storeHits int // jobs answered by the persistent store
}

// defaultFlightRecorder is the per-job flight-recorder depth when the
// Runner's FlightRecorder field is zero: enough events to cover the
// whole dispatch chain around a deadlock or watchdog abort while
// keeping a ring small enough to embed in manifest records.
const defaultFlightRecorder = 256

// NewRunner returns a Runner at the given dataset scale.
func NewRunner(scale workload.Scale) *Runner {
	return &Runner{Scale: scale, cache: map[cfgKey]*flight{}}
}

// init sizes the pool and starts the progress collector on first use.
func (r *Runner) init() {
	r.initOnce.Do(func() {
		n := r.Workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, n)
		r.Telemetry.SetWorkers(n)
		if r.Progress != nil {
			r.progCh = make(chan string, 64)
			r.progWG.Add(1)
			go func() {
				defer r.progWG.Done()
				for line := range r.progCh {
					io.WriteString(r.Progress, line)
				}
			}()
		}
	})
}

// Close drains the progress collector. Call it after the last Run when
// Progress is set; the Runner must not be used afterwards. Idempotent:
// a second Close — including after a zero-job campaign — is a safe
// no-op (closeOnce guards the channel close, so double-Close can never
// panic even as Close grows more teardown).
func (r *Runner) Close() {
	r.init()
	r.closeOnce.Do(func() {
		if r.progCh != nil {
			close(r.progCh)
			r.progWG.Wait()
			r.progCh = nil
		}
	})
}

// admit returns the flight for a key, creating it (leader=true) if this
// caller is the first to request it.
func (r *Runner) admit(cfg core.Config, name string) (fl *flight, leader bool) {
	r.init()
	key := keyOf(cfg, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if fl, ok := r.cache[key]; ok {
		r.Telemetry.MemoHit()
		return fl, false
	}
	fl = &flight{done: make(chan struct{}), enqueuedAt: time.Now()}
	fl.span = r.Telemetry.Enqueue(name, cfgLabel(cfg))
	r.cache[key] = fl
	r.scheduled++
	return fl, true
}

// cfgLabel is the short config descriptor spans carry in /progress,
// mirroring the progress line's fields.
func cfgLabel(cfg core.Config) string {
	return fmt.Sprintf("%v %d cores @%d MHz bw=%d pf=%d",
		cfg.Model, cfg.Cores, cfg.CoreMHz, cfg.DRAMBandwidthMBps, cfg.PrefetchDepth)
}

// simulate runs one admitted job — with validation, watchdog and retry
// budget — and publishes its result. Any failure becomes a structured
// *JobError on the flight; nothing a job does can panic the pool.
func (r *Runner) simulate(fl *flight, cfg core.Config, name string) {
	defer close(fl.done)
	started := time.Now()
	queueWait := started.Sub(fl.enqueuedAt)
	fl.span.Start()
	// Probe the persistent store before simulating. A verified hit
	// resolves the flight like a memo hit from a previous campaign: no
	// Record (nothing ran here), no ok/fail movement, and the progress
	// line carries a "(store)" marker so a resumed campaign's log shows
	// what was recalled versus re-simulated.
	if r.Store != nil {
		if rep, ok := r.Store.Get(cfg, name, r.Scale.String()); ok {
			fl.rep = rep
			fl.span.StoreHit()
			r.mu.Lock()
			r.completed++
			r.storeHits++
			done, total := r.completed, r.scheduled
			r.mu.Unlock()
			if r.progCh != nil {
				r.progCh <- fmt.Sprintf("# [%d/%d] %-14s %v %2d cores @%4d MHz bw=%d pf=%d (store)\n",
					done, total, name, cfg.Model, cfg.Cores, cfg.CoreMHz, cfg.DRAMBandwidthMBps, cfg.PrefetchDepth)
			}
			return
		}
	}
	rep, tr, attemptsNS, jerr := r.attemptWithRetries(cfg, name, fl.span)
	fl.rep = rep
	if jerr != nil {
		fl.err = jerr // typed-nil guard: only assign a non-nil *JobError
		fl.span.Fail(string(jerr.Kind))
	} else {
		fl.span.Done()
		r.Telemetry.RecordRun(rep.Latency, sim.MHz(cfg.CoreMHz).Period, tr)
		// Persist the verified result. A failed write never fails the
		// job — the report is already in hand — and the first failure is
		// warned once; the store's PutErrors counter tracks the rest.
		if r.Store != nil && rep != nil {
			if perr := r.Store.Put(cfg, name, r.Scale.String(), rep); perr != nil {
				r.storeWarn.Warnf("# result store: write failed (further errors counted, not repeated): %v", perr)
			}
		}
	}
	if r.OnRecord != nil {
		rec := Record{Name: name, Cfg: cfg, Report: rep, HostNS: time.Since(started).Nanoseconds(),
			QueueWaitNS: queueWait.Nanoseconds(), AttemptsNS: attemptsNS}
		if tr != nil {
			rec.Txn = tr
			rec.TailExemplars = tr.Summary()
		}
		if jerr != nil {
			rec.Err = jerr.Error()
			rec.ErrKind = string(jerr.Kind)
			rec.Attempts = jerr.Attempts
			rec.EngineState = jerr.State
		}
		r.OnRecord(rec)
	}

	r.mu.Lock()
	r.completed++
	if jerr != nil {
		r.failCount++
	} else {
		r.okCount++
	}
	done, total := r.completed, r.scheduled
	r.mu.Unlock()
	if r.progCh != nil {
		status := ""
		if jerr != nil {
			status = fmt.Sprintf(" FAILED (%s)", jerr.Kind)
		}
		r.progCh <- fmt.Sprintf("# [%d/%d] %-14s %v %2d cores @%4d MHz bw=%d pf=%d%s\n",
			done, total, name, cfg.Model, cfg.Cores, cfg.CoreMHz, cfg.DRAMBandwidthMBps, cfg.PrefetchDepth, status)
	}
}

// attemptWithRetries drives the retry loop: one attempt, plus up to
// Retries more for retryable failures, spaced by deterministic backoff.
// It returns each attempt's wall time alongside the result, and walks
// the span through retrying → running around every backoff.
func (r *Runner) attemptWithRetries(cfg core.Config, name string, sp *telemetry.Span) (*core.Report, *txntrace.Tracer, []int64, *JobError) {
	var attemptsNS []int64
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		rep, tr, jerr := r.attempt(cfg, name)
		d := time.Since(t0)
		attemptsNS = append(attemptsNS, d.Nanoseconds())
		sp.Attempt(d)
		if jerr == nil {
			return rep, tr, attemptsNS, nil
		}
		jerr.Attempts = attempt + 1
		if attempt >= r.Retries || !jerr.Retryable() {
			return nil, nil, attemptsNS, jerr
		}
		sp.Retry()
		time.Sleep(backoffDelay(name, cfg, attempt))
		sp.Start()
	}
}

// attempt runs the job once. Validation happens before core.New, so a
// bad configuration fails typed and synchronously — no goroutine ever
// spawns for it; the watchdog (JobTimeout) covers the simulation run.
func (r *Runner) attempt(cfg core.Config, name string) (*core.Report, *txntrace.Tracer, *JobError) {
	f, ferr := workload.Get(name)
	if ferr != nil {
		return nil, nil, &JobError{Name: name, Cfg: cfg, Kind: ErrWorkload, Attempts: 1, Err: ferr}
	}
	if verr := keyOf(cfg, name).cfg.Validate(); verr != nil {
		return nil, nil, &JobError{Name: name, Cfg: cfg, Kind: ErrConfig, Attempts: 1, Err: verr}
	}
	// Arm the flight recorder for this run (it is run-scoped: keyOf
	// strips it, and Record.Cfg carries the caller's value, so manifests
	// and memo identity are unchanged). A caller-set size wins; else the
	// Runner's default, so every typed failure in a campaign carries the
	// event tail that led there.
	if cfg.FlightRecorder == 0 {
		switch {
		case r.FlightRecorder > 0:
			cfg.FlightRecorder = r.FlightRecorder
		case r.FlightRecorder == 0:
			cfg.FlightRecorder = defaultFlightRecorder
		}
	} else if cfg.FlightRecorder < 0 {
		cfg.FlightRecorder = 0
	}
	// Arm a fresh transaction tracer per attempt (run-scoped like the
	// recorder: stripped by keyOf, json:"-" in manifests). A retried
	// attempt's partial tracer is discarded with the attempt.
	tr := cfg.TxnTrace
	if tr == nil && r.TxnExemplars > 0 {
		tr = &txntrace.Tracer{K: r.TxnExemplars}
		cfg.TxnTrace = tr
	}
	sys := core.New(cfg)
	if r.JobTimeout > 0 {
		watchdog := time.AfterFunc(r.JobTimeout, func() {
			sys.Abort(fmt.Sprintf("watchdog: job exceeded %v wall clock", r.JobTimeout))
		})
		defer watchdog.Stop()
	}
	rep, err := sys.Run(f(r.Scale))
	if err != nil {
		return nil, nil, classify(name, cfg, err)
	}
	return rep, tr, nil
}

// Outcome returns how many fresh simulations succeeded and failed so
// far. Memoized and store-served results are not counted: they reflect
// work already done.
func (r *Runner) Outcome() (ok, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.okCount, r.failCount
}

// StoreHits returns how many admitted jobs the persistent result store
// answered without simulating.
func (r *Runner) StoreHits() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeHits
}

// Prefetch fans jobs out to the worker pool without blocking. Keys
// already cached or in flight are skipped; errors surface when the
// corresponding Run collects the result. The whole grid is admitted
// before any worker starts, so the progress denominator covers it.
func (r *Runner) Prefetch(jobs []Job) {
	type admitted struct {
		job Job
		fl  *flight
	}
	var fresh []admitted
	for _, j := range jobs {
		if fl, leader := r.admit(j.Cfg, j.Name); leader {
			fresh = append(fresh, admitted{j, fl})
		}
	}
	for _, a := range fresh {
		go func(a admitted) {
			r.sem <- struct{}{}
			defer func() { <-r.sem }()
			r.simulate(a.fl, a.job.Cfg, a.job.Name)
		}(a)
	}
}

// Run simulates (or recalls, or awaits) one configuration.
func (r *Runner) Run(cfg core.Config, name string) (*core.Report, error) {
	fl, leader := r.admit(cfg, name)
	if leader {
		r.sem <- struct{}{}
		r.simulate(fl, cfg, name)
		<-r.sem
	} else {
		<-fl.done
	}
	if fl.err != nil {
		// Every collection of a failed key is one poisoned figure cell
		// (the ERR markers); count the blast radius for telemetry.
		r.Telemetry.ErrCell()
	}
	return fl.rep, fl.err
}

// baselineCfg is the run the paper normalizes to: one 800 MHz CC core,
// default bandwidth.
func baselineCfg() core.Config { return core.DefaultConfig(core.CC, 1) }

// baseline returns the sequential cache-based baseline run.
func (r *Runner) baseline(name string) (*core.Report, error) {
	return r.Run(baselineCfg(), name)
}

// Bar is one stacked execution-time bar, normalized to a baseline run.
// Err marks a cell whose simulation failed: it renders as ERR in the
// table and is omitted from the chart, so one bad configuration costs
// one marker, not the figure.
type Bar struct {
	Label                     string
	Useful, Sync, Load, Store float64
	Total                     float64
	Err                       bool
}

// errBar is the placeholder for a failed execution-time cell.
func errBar(label string) Bar { return Bar{Label: label, Err: true} }

// normBar converts a report into a baseline-normalized stacked bar. The
// stack heights follow Figure 2: per-core average time in each bucket
// over the baseline's total time.
func normBar(label string, rep, base *core.Report) Bar {
	bt := float64(base.Wall)
	bd := rep.Breakdown
	return Bar{
		Label:  label,
		Useful: float64(bd.Useful) / bt,
		Sync:   float64(bd.Sync) / bt,
		Load:   float64(bd.LoadStall) / bt,
		Store:  float64(bd.StoreStall) / bt,
		Total:  float64(rep.Wall) / bt,
	}
}

func writeBars(w io.Writer, title string, bars []Bar) {
	tb := stats.NewTable(title, "config", "useful", "sync", "load", "store", "total")
	ch := stats.Chart{SegNames: []string{"useful", "sync", "load", "store"}, Max: 1.0}
	for _, b := range bars {
		if b.Err {
			tb.Row(b.Label, "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		tb.Row(b.Label, b.Useful, b.Sync, b.Load, b.Store, b.Total)
		ch.Bars = append(ch.Bars, stats.StackedBar{
			Label:    b.Label,
			Segments: []float64{b.Useful, b.Sync, b.Load, b.Store},
		})
	}
	tb.WriteText(w)
	ch.Write(w)
}

// TrafficBar is one off-chip-traffic bar, normalized to a baseline.
// Err marks a failed cell, as on Bar.
type TrafficBar struct {
	Label       string
	Read, Write float64
	Err         bool
}

// errTraffic is the placeholder for a failed traffic cell.
func errTraffic(label string) TrafficBar { return TrafficBar{Label: label, Err: true} }

func normTraffic(label string, rep, base *core.Report) TrafficBar {
	bt := float64(base.DRAM.TotalBytes())
	if bt == 0 {
		bt = 1
	}
	return TrafficBar{
		Label: label,
		Read:  float64(rep.DRAM.ReadBytes) / bt,
		Write: float64(rep.DRAM.WriteBytes) / bt,
	}
}

func writeTraffic(w io.Writer, title string, bars []TrafficBar) {
	tb := stats.NewTable(title, "config", "read", "write", "total")
	ch := stats.Chart{SegNames: []string{"read", "write"}, Max: 1.0}
	for _, b := range bars {
		if b.Err {
			tb.Row(b.Label, "ERR", "ERR", "ERR")
			continue
		}
		tb.Row(b.Label, b.Read, b.Write, b.Read+b.Write)
		ch.Bars = append(ch.Bars, stats.StackedBar{Label: b.Label, Segments: []float64{b.Read, b.Write}})
	}
	tb.WriteText(w)
	ch.Write(w)
}

// EnergyBar is one stacked energy bar (Figure 4's components),
// normalized to a baseline run's total energy. Err marks a failed cell,
// as on Bar.
type EnergyBar struct {
	Label                                     string
	Core, ICache, DCache, LMem, Net, L2, DRAM float64
	Total                                     float64
	Err                                       bool
}

// errEnergy is the placeholder for a failed energy cell.
func errEnergy(label string) EnergyBar { return EnergyBar{Label: label, Err: true} }

func normEnergy(label string, rep, base *core.Report) EnergyBar {
	bt := base.Energy.Total()
	e := rep.Energy
	return EnergyBar{
		Label:  label,
		Core:   e.Core / bt,
		ICache: e.ICache / bt,
		DCache: e.DCache / bt,
		LMem:   e.LMem / bt,
		Net:    e.Network / bt,
		L2:     e.L2 / bt,
		DRAM:   e.DRAM / bt,
		Total:  e.Total() / bt,
	}
}

func writeEnergy(w io.Writer, title string, bars []EnergyBar) {
	tb := stats.NewTable(title, "config", "core", "i$", "d$", "lmem", "net", "l2", "dram", "total")
	ch := stats.Chart{SegNames: []string{"core", "i$", "d$", "lmem", "net", "l2", "dram"}, Max: 1.0}
	for _, b := range bars {
		if b.Err {
			tb.Row(b.Label, "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		tb.Row(b.Label, b.Core, b.ICache, b.DCache, b.LMem, b.Net, b.L2, b.DRAM, b.Total)
		ch.Bars = append(ch.Bars, stats.StackedBar{
			Label:    b.Label,
			Segments: []float64{b.Core, b.ICache, b.DCache, b.LMem, b.Net, b.L2, b.DRAM},
		})
	}
	tb.WriteText(w)
	ch.Write(w)
}

// Table2 prints the system parameters (Table 2) as configured.
func Table2(w io.Writer) {
	cfg := core.DefaultConfig(core.CC, 16)
	fmt.Fprintln(w, "Table 2: CMP system parameters")
	rows := [][2]string{
		{"Cores", "1, 2, 4, 8 or 16 Tensilica-class 3-way VLIW, 7-stage"},
		{"Core clock", "800 MHz (default), 1.6, 3.2 or 6.4 GHz"},
		{"I-cache", "16 KB 2-way, 32 B lines (analytic model)"},
		{"CC data storage", "32 KB 2-way L1 D-cache, MESI, write-back/write-allocate"},
		{"STR data storage", "24 KB local store + 8 KB 2-way cache"},
		{"Store buffer", "8 entries, loads bypass store misses (weak consistency)"},
		{"Prefetcher", "tagged, 8-miss history, 4 streams, configurable depth"},
		{"DMA engine", "16 outstanding 32 B accesses, command queuing"},
		{"Local network", "32 B bidirectional bus per 4-core cluster, 2-cycle latency"},
		{"Global crossbar", "16 B ports per cluster/L2 bank, 2.5 ns pipelined"},
		{"L2", "512 KB 16-way, 1 port, 2.2 ns, non-inclusive"},
		{"DRAM", fmt.Sprintf("one channel at %d MB/s (1600/3200/6400/12800), 70 ns random access", cfg.DRAMBandwidthMBps)},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-18s %s\n", r[0], r[1])
	}
}

// Table3Row is one application's memory characterization. Err marks an
// application whose measurement run failed; its row renders as ERR.
type Table3Row struct {
	App            string
	L1MissRate     float64
	L2MissRate     float64
	InstrPerL1Miss float64
	CyclesPerL2    float64
	OffChipMBps    float64
	Err            bool
}

// Table3 measures the memory characteristics of all applications on the
// cache-based model with 16 cores at 800 MHz, as the paper's Table 3.
// Failed applications keep their row (marked ERR); the returned error is
// a *GridError summarizing them, nil when every run succeeded.
func (r *Runner) Table3(w io.Writer) ([]Table3Row, error) {
	var jobs []Job
	for _, app := range AllApps {
		jobs = append(jobs, Job{core.DefaultConfig(core.CC, 16), app})
	}
	r.Prefetch(jobs)
	g := &gridTracker{}
	var rows []Table3Row
	for _, app := range AllApps {
		rep, err := r.Run(core.DefaultConfig(core.CC, 16), app)
		if !g.cell(err) {
			rows = append(rows, Table3Row{App: app, Err: true})
			continue
		}
		rows = append(rows, Table3Row{
			App:            app,
			L1MissRate:     rep.L1MissRate(),
			L2MissRate:     rep.L2MissRate(),
			InstrPerL1Miss: rep.InstrPerL1Miss(),
			CyclesPerL2:    rep.CyclesPerL2Miss(),
			OffChipMBps:    rep.OffChipBandwidth(),
		})
	}
	fmt.Fprintln(w, "Table 3: memory characteristics (CC, 16 cores @ 800 MHz)")
	fmt.Fprintf(w, "  %-14s %10s %10s %12s %12s %12s\n",
		"app", "L1D-miss%", "L2D-miss%", "instr/L1miss", "cyc/L2miss", "offchip MB/s")
	for _, row := range rows {
		if row.Err {
			fmt.Fprintf(w, "  %-14s %10s %10s %12s %12s %12s\n",
				row.App, "ERR", "ERR", "ERR", "ERR", "ERR")
			continue
		}
		fmt.Fprintf(w, "  %-14s %10.2f %10.1f %12.1f %12.1f %12.1f\n",
			row.App, row.L1MissRate*100, row.L2MissRate*100,
			row.InstrPerL1Miss, row.CyclesPerL2, row.OffChipMBps)
	}
	return rows, g.finish(w, "Table 3")
}

// coreCounts are Figure 2's x axis.
var coreCounts = []int{2, 4, 8, 16}

// Figure2 produces the execution-time comparison for every application:
// CC and STR at 2-16 cores, normalized to one caching core.
func (r *Runner) Figure2(w io.Writer, apps []string) (map[string][]Bar, error) {
	if apps == nil {
		apps = AllApps
	}
	var jobs []Job
	for _, app := range apps {
		jobs = append(jobs, Job{baselineCfg(), app})
		for _, n := range coreCounts {
			for _, model := range []core.Model{core.CC, core.STR} {
				jobs = append(jobs, Job{core.DefaultConfig(model, n), app})
			}
		}
	}
	r.Prefetch(jobs)
	g := &gridTracker{}
	out := map[string][]Bar{}
	for _, app := range apps {
		base, err := r.baseline(app)
		if !g.cell(err) {
			fmt.Fprintf(w, "# Figure 2 [%s]: baseline failed, figure skipped: %v\n", app, err)
			continue
		}
		var bars []Bar
		for _, n := range coreCounts {
			for _, model := range []core.Model{core.CC, core.STR} {
				label := fmt.Sprintf("%s-%d", model, n)
				rep, err := r.Run(core.DefaultConfig(model, n), app)
				if !g.cell(err) {
					bars = append(bars, errBar(label))
					continue
				}
				bars = append(bars, normBar(label, rep, base))
			}
		}
		out[app] = bars
		writeBars(w, fmt.Sprintf("Figure 2 [%s]: normalized execution time", app), bars)
	}
	return out, g.finish(w, "Figure 2")
}

// fig34Apps are the applications Figures 3 and 4 report.
var fig34Apps = []string{"fem", "mpeg2", "fir", "bitonicsort"}

// Figure3 produces off-chip traffic at 16 cores, normalized to one
// caching core.
func (r *Runner) Figure3(w io.Writer) (map[string][]TrafficBar, error) {
	r.Prefetch(fig34Jobs())
	g := &gridTracker{}
	out := map[string][]TrafficBar{}
	for _, app := range fig34Apps {
		base, err := r.baseline(app)
		if !g.cell(err) {
			fmt.Fprintf(w, "# Figure 3 [%s]: baseline failed, figure skipped: %v\n", app, err)
			continue
		}
		var bars []TrafficBar
		for _, model := range []core.Model{core.CC, core.STR} {
			rep, err := r.Run(core.DefaultConfig(model, 16), app)
			if !g.cell(err) {
				bars = append(bars, errTraffic(model.String()))
				continue
			}
			bars = append(bars, normTraffic(model.String(), rep, base))
		}
		out[app] = bars
		writeTraffic(w, fmt.Sprintf("Figure 3 [%s]: normalized off-chip traffic (16 cores)", app), bars)
	}
	return out, g.finish(w, "Figure 3")
}

// Figure4 produces the energy comparison at 16 cores, normalized to one
// caching core.
func (r *Runner) Figure4(w io.Writer) (map[string][]EnergyBar, error) {
	r.Prefetch(fig34Jobs())
	g := &gridTracker{}
	out := map[string][]EnergyBar{}
	for _, app := range fig34Apps {
		base, err := r.baseline(app)
		if !g.cell(err) {
			fmt.Fprintf(w, "# Figure 4 [%s]: baseline failed, figure skipped: %v\n", app, err)
			continue
		}
		var bars []EnergyBar
		for _, model := range []core.Model{core.CC, core.STR} {
			rep, err := r.Run(core.DefaultConfig(model, 16), app)
			if !g.cell(err) {
				bars = append(bars, errEnergy(model.String()))
				continue
			}
			bars = append(bars, normEnergy(model.String(), rep, base))
		}
		out[app] = bars
		writeEnergy(w, fmt.Sprintf("Figure 4 [%s]: normalized energy (16 cores)", app), bars)
	}
	return out, g.finish(w, "Figure 4")
}

// fig34Jobs is the shared grid of Figures 3 and 4: both models at 16
// cores plus the baseline, per reported app.
func fig34Jobs() []Job {
	var jobs []Job
	for _, app := range fig34Apps {
		jobs = append(jobs, Job{baselineCfg(), app})
		for _, model := range []core.Model{core.CC, core.STR} {
			jobs = append(jobs, Job{core.DefaultConfig(model, 16), app})
		}
	}
	return jobs
}

// fig5Apps are the computational-scaling applications of Figure 5.
var fig5Apps = []string{"mpeg2", "fir", "bitonicsort"}

// clockSweep is Figure 5's x axis.
var clockSweep = []uint64{800, 1600, 3200, 6400}

// Figure5 sweeps the core clock at 16 cores.
func (r *Runner) Figure5(w io.Writer) (map[string][]Bar, error) {
	var jobs []Job
	for _, app := range fig5Apps {
		jobs = append(jobs, Job{baselineCfg(), app})
		for _, mhz := range clockSweep {
			for _, model := range []core.Model{core.CC, core.STR} {
				cfg := core.DefaultConfig(model, 16)
				cfg.CoreMHz = mhz
				jobs = append(jobs, Job{cfg, app})
			}
		}
	}
	r.Prefetch(jobs)
	g := &gridTracker{}
	out := map[string][]Bar{}
	for _, app := range fig5Apps {
		base, err := r.baseline(app)
		if !g.cell(err) {
			fmt.Fprintf(w, "# Figure 5 [%s]: baseline failed, figure skipped: %v\n", app, err)
			continue
		}
		var bars []Bar
		for _, mhz := range clockSweep {
			for _, model := range []core.Model{core.CC, core.STR} {
				cfg := core.DefaultConfig(model, 16)
				cfg.CoreMHz = mhz
				label := fmt.Sprintf("%s-%.1fGHz", model, float64(mhz)/1000)
				rep, err := r.Run(cfg, app)
				if !g.cell(err) {
					bars = append(bars, errBar(label))
					continue
				}
				bars = append(bars, normBar(label, rep, base))
			}
		}
		out[app] = bars
		writeBars(w, fmt.Sprintf("Figure 5 [%s]: clock scaling (16 cores)", app), bars)
	}
	return out, g.finish(w, "Figure 5")
}

// bwSweep is Figure 6's x axis.
var bwSweep = []uint64{1600, 3200, 6400, 12800}

// Figure6 sweeps off-chip bandwidth for FIR at 16 cores, 3.2 GHz; at
// 12.8 GB/s the cache-based system is additionally run with hardware
// prefetching, as in the paper.
func (r *Runner) Figure6(w io.Writer) ([]Bar, error) {
	jobs := []Job{{baselineCfg(), "fir"}}
	for _, bw := range bwSweep {
		for _, model := range []core.Model{core.CC, core.STR} {
			cfg := core.DefaultConfig(model, 16)
			cfg.CoreMHz = 3200
			cfg.DRAMBandwidthMBps = bw
			jobs = append(jobs, Job{cfg, "fir"})
		}
	}
	pcfg := core.DefaultConfig(core.CC, 16)
	pcfg.CoreMHz = 3200
	pcfg.DRAMBandwidthMBps = 12800
	pcfg.PrefetchDepth = 4
	jobs = append(jobs, Job{pcfg, "fir"})
	r.Prefetch(jobs)

	g := &gridTracker{}
	base, err := r.baseline("fir")
	if !g.cell(err) {
		fmt.Fprintf(w, "# Figure 6 [fir]: baseline failed, figure skipped: %v\n", err)
		return nil, g.finish(w, "Figure 6")
	}
	var bars []Bar
	for _, bw := range bwSweep {
		for _, model := range []core.Model{core.CC, core.STR} {
			cfg := core.DefaultConfig(model, 16)
			cfg.CoreMHz = 3200
			cfg.DRAMBandwidthMBps = bw
			label := fmt.Sprintf("%s-%.1fGB/s", model, float64(bw)/1000)
			rep, err := r.Run(cfg, "fir")
			if !g.cell(err) {
				bars = append(bars, errBar(label))
				continue
			}
			bars = append(bars, normBar(label, rep, base))
		}
	}
	cfg := core.DefaultConfig(core.CC, 16)
	cfg.CoreMHz = 3200
	cfg.DRAMBandwidthMBps = 12800
	cfg.PrefetchDepth = 4
	if rep, err := r.Run(cfg, "fir"); g.cell(err) {
		bars = append(bars, normBar("CC+P4-12.8GB/s", rep, base))
	} else {
		bars = append(bars, errBar("CC+P4-12.8GB/s"))
	}
	writeBars(w, "Figure 6 [fir]: off-chip bandwidth sweep (16 cores @ 3.2 GHz)", bars)
	return bars, g.finish(w, "Figure 6")
}

// Figure7 shows the effect of hardware prefetching (depth 4) on
// MergeSort and 179.art: 2 cores at 3.2 GHz with a 12.8 GB/s channel.
func (r *Runner) Figure7(w io.Writer) (map[string][]Bar, error) {
	var jobs []Job
	for _, app := range []string{"mergesort", "art"} {
		jobs = append(jobs, Job{baselineCfg(), app})
		for _, c := range []struct {
			model core.Model
			pf    int
		}{{core.CC, 0}, {core.CC, 4}, {core.STR, 0}} {
			cfg := core.DefaultConfig(c.model, 2)
			cfg.CoreMHz = 3200
			cfg.DRAMBandwidthMBps = 12800
			cfg.PrefetchDepth = c.pf
			jobs = append(jobs, Job{cfg, app})
		}
	}
	r.Prefetch(jobs)
	g := &gridTracker{}
	out := map[string][]Bar{}
	for _, app := range []string{"mergesort", "art"} {
		base, err := r.baseline(app)
		if !g.cell(err) {
			fmt.Fprintf(w, "# Figure 7 [%s]: baseline failed, figure skipped: %v\n", app, err)
			continue
		}
		mk := func(model core.Model, pf int) core.Config {
			cfg := core.DefaultConfig(model, 2)
			cfg.CoreMHz = 3200
			cfg.DRAMBandwidthMBps = 12800
			cfg.PrefetchDepth = pf
			return cfg
		}
		var bars []Bar
		for _, c := range []struct {
			label string
			cfg   core.Config
		}{
			{"CC", mk(core.CC, 0)},
			{"CC+P4", mk(core.CC, 4)},
			{"STR", mk(core.STR, 0)},
		} {
			rep, err := r.Run(c.cfg, app)
			if !g.cell(err) {
				bars = append(bars, errBar(c.label))
				continue
			}
			bars = append(bars, normBar(c.label, rep, base))
		}
		out[app] = bars
		writeBars(w, fmt.Sprintf("Figure 7 [%s]: hardware prefetching (2 cores @ 3.2 GHz, 12.8 GB/s)", app), bars)
	}
	return out, g.finish(w, "Figure 7")
}

// Figure8 shows "Prepare For Store" effects: off-chip traffic for FIR,
// MergeSort and MPEG-2 (CC vs CC+PFS vs STR at 16 cores, 800 MHz) and
// the FIR energy comparison.
func (r *Runner) Figure8(w io.Writer) (map[string][]TrafficBar, []EnergyBar, error) {
	out := map[string][]TrafficBar{}
	apps := map[string]string{"fir": "fir-pfs", "mergesort": "mergesort-pfs", "mpeg2": "mpeg2-pfs"}
	order := []string{"fir", "mergesort", "mpeg2"}
	var jobs []Job
	for _, app := range order {
		jobs = append(jobs,
			Job{baselineCfg(), app},
			Job{core.DefaultConfig(core.CC, 16), app},
			Job{core.DefaultConfig(core.CC, 16), apps[app]},
			Job{core.DefaultConfig(core.STR, 16), app})
	}
	r.Prefetch(jobs)
	g := &gridTracker{}
	for _, app := range order {
		pfsApp := apps[app]
		base, err := r.baseline(app)
		if !g.cell(err) {
			fmt.Fprintf(w, "# Figure 8 [%s]: baseline failed, figure skipped: %v\n", app, err)
			continue
		}
		var bars []TrafficBar
		for _, c := range []struct{ label, name string }{
			{"CC", app}, {"CC+PFS", pfsApp},
		} {
			rep, err := r.Run(core.DefaultConfig(core.CC, 16), c.name)
			if !g.cell(err) {
				bars = append(bars, errTraffic(c.label))
				continue
			}
			bars = append(bars, normTraffic(c.label, rep, base))
		}
		if rep, err := r.Run(core.DefaultConfig(core.STR, 16), app); g.cell(err) {
			bars = append(bars, normTraffic("STR", rep, base))
		} else {
			bars = append(bars, errTraffic("STR"))
		}
		out[app] = bars
		writeTraffic(w, fmt.Sprintf("Figure 8 [%s]: PFS off-chip traffic (16 cores)", app), bars)
	}
	// FIR energy with PFS.
	var ebars []EnergyBar
	base, err := r.baseline("fir")
	if !g.cell(err) {
		fmt.Fprintf(w, "# Figure 8 [fir]: baseline failed, energy figure skipped: %v\n", err)
		return out, nil, g.finish(w, "Figure 8")
	}
	for _, c := range []struct {
		label, name string
		model       core.Model
	}{
		{"CC", "fir", core.CC},
		{"CC+PFS", "fir-pfs", core.CC},
		{"STR", "fir", core.STR},
	} {
		rep, err := r.Run(core.DefaultConfig(c.model, 16), c.name)
		if !g.cell(err) {
			ebars = append(ebars, errEnergy(c.label))
			continue
		}
		ebars = append(ebars, normEnergy(c.label, rep, base))
	}
	writeEnergy(w, "Figure 8 [fir]: PFS energy (16 cores @ 800 MHz)", ebars)
	return out, ebars, g.finish(w, "Figure 8")
}

// Figure9 compares the original and stream-optimized cache-based MPEG-2
// encoders: traffic and execution time at 2-16 cores.
func (r *Runner) Figure9(w io.Writer) (bars []Bar, traffic []TrafficBar, err error) {
	r.Prefetch(origOptJobs("mpeg2-orig", "mpeg2"))
	g := &gridTracker{}
	base, err := r.baseline("mpeg2-orig")
	if !g.cell(err) {
		fmt.Fprintf(w, "# Figure 9 [mpeg2]: baseline failed, figure skipped: %v\n", err)
		return nil, nil, g.finish(w, "Figure 9")
	}
	for _, n := range coreCounts {
		for _, app := range []string{"mpeg2-orig", "mpeg2"} {
			label := fmt.Sprintf("%s-%d", map[string]string{"mpeg2-orig": "ORIG", "mpeg2": "OPT"}[app], n)
			rep, err := r.Run(core.DefaultConfig(core.CC, n), app)
			if !g.cell(err) {
				bars = append(bars, errBar(label))
				traffic = append(traffic, errTraffic(label))
				continue
			}
			bars = append(bars, normBar(label, rep, base))
			traffic = append(traffic, normTraffic(label, rep, base))
		}
	}
	writeBars(w, "Figure 9 [mpeg2]: stream-programming optimizations, execution time", bars)
	writeTraffic(w, "Figure 9 [mpeg2]: stream-programming optimizations, off-chip traffic", traffic)
	return bars, traffic, g.finish(w, "Figure 9")
}

// Figure10 compares the original and stream-optimized cache-based
// 179.art at 2-16 cores.
func (r *Runner) Figure10(w io.Writer) ([]Bar, error) {
	r.Prefetch(origOptJobs("art-orig", "art"))
	g := &gridTracker{}
	base, err := r.baseline("art-orig")
	if !g.cell(err) {
		fmt.Fprintf(w, "# Figure 10 [179.art]: baseline failed, figure skipped: %v\n", err)
		return nil, g.finish(w, "Figure 10")
	}
	var bars []Bar
	for _, n := range coreCounts {
		for _, app := range []string{"art-orig", "art"} {
			label := fmt.Sprintf("%s-%d", map[string]string{"art-orig": "ORIG", "art": "OPT"}[app], n)
			rep, err := r.Run(core.DefaultConfig(core.CC, n), app)
			if !g.cell(err) {
				bars = append(bars, errBar(label))
				continue
			}
			bars = append(bars, normBar(label, rep, base))
		}
	}
	writeBars(w, "Figure 10 [179.art]: stream-programming optimizations", bars)
	return bars, g.finish(w, "Figure 10")
}

// origOptJobs is the grid Figures 9 and 10 share: the original and
// stream-optimized variants on the CC model at 2-16 cores, plus the
// original's baseline.
func origOptJobs(orig, opt string) []Job {
	jobs := []Job{{baselineCfg(), orig}}
	for _, n := range coreCounts {
		for _, app := range []string{orig, opt} {
			jobs = append(jobs, Job{core.DefaultConfig(core.CC, n), app})
		}
	}
	return jobs
}

// Speedup returns total(b)/total(a) for two bars (how much faster b is).
func Speedup(a, b Bar) float64 { return a.Total / b.Total }

// SortedKeys returns map keys in sorted order (stable test output).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ClockOf is a small helper exposing the core clock for reports.
func ClockOf(mhz uint64) sim.Clock { return sim.MHz(mhz) }
