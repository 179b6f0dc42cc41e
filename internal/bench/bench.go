// Package bench regenerates every table and figure of the paper's
// evaluation (Table 3, Figures 2 through 10) on the simulator. The
// figures are data (Figures): each is a list of panels whose cells name
// their simulations, and one renderer (Runner.Render) runs and draws
// them all. cmd/paperbench drives them and EXPERIMENTS.md records the
// paper-versus-measured comparison.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/txntrace"
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
	// Failure diagnostics, present only when Err is set: the error kind
	// and the engine-state snapshot for failures the engine produced one
	// for.
	ErrKind     string           `json:"error_kind,omitempty"`
	EngineState *sim.EngineState `json:"engine_state,omitempty"`
	// QueueWaitNS is how long the job waited for a worker slot after
	// admission. Together with HostNS it lets manifest analysis tell
	// queue pressure from slow simulations.
	QueueWaitNS int64 `json:"queue_wait_ns"`
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
// without blocking, then Render collects results with the blocking Run
// in the figure's fixed order. Because simulations are
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
	// A job runs once: every other failure reproduces identically, and
	// a timed-out job is re-run by resuming the campaign against its
	// result store (paperbench -resume).
	JobTimeout time.Duration
	// Telemetry, when non-nil, receives per-job lifecycle spans and
	// campaign counters (internal/telemetry) for the -http endpoints and
	// the TTY status line. Purely observational: figure output is
	// byte-identical with it attached or not. Set it before the first
	// Run or Prefetch. All Campaign methods are nil-safe, so the zero
	// Runner needs no guards.
	Telemetry *telemetry.Campaign
	// Store, when non-nil, is the persistent cross-campaign result store
	// (memsim and paperbench -store, or -resume's DIR/store): each
	// admitted job probes it before simulating and a hit resolves the
	// flight without running the engine — no Record, no ok/failed
	// movement, a "(store)" progress marker — while a miss simulates
	// normally and writes the verified report back. A job whose Config
	// carries a caller-attached observer always simulates and writes its
	// report back. Store keys include the Runner's dataset Scale, so
	// campaigns sharing one store directory at different -scale values
	// never serve each other's reports. Corrupt or version-mismatched
	// records are misses by construction (the store deletes corrupt
	// ones), so an un-trustworthy store can only cost time, never
	// correctness. Set it before the first Run or Prefetch.
	Store *resultstore.Store
	// FlightRecorder sizes the engine flight recorder armed for every
	// fresh simulation whose Config sets none (the last K scheduler
	// events, embedded in typed failures' engine-state snapshots); 0
	// disables recording. NewRunner sets 256, enough to cover the
	// dispatch chain around a deadlock or watchdog abort. The recorder
	// is run-scoped — excluded from the memo key and from manifest
	// configs — and its disabled cost on the engine is one nil compare
	// per record site.
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

	mu        sync.Mutex
	cache     map[cfgKey]*flight
	scheduled int // simulations admitted to the pool (the "/88")
	completed int // simulations finished (the "12")
	okCount   int // fresh simulations that succeeded
	failCount int // fresh simulations that failed
	storeHits int // jobs answered by the persistent store
}

// NewRunner returns a Runner at the given dataset scale, with a
// 256-event flight recorder armed for every fresh simulation.
func NewRunner(scale workload.Scale) *Runner {
	return &Runner{Scale: scale, FlightRecorder: 256, cache: map[cfgKey]*flight{}}
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

// simulate runs one admitted job once — with validation and watchdog —
// and publishes its result. Any failure becomes a structured
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
	// what was recalled versus re-simulated. A job whose Config carries a
	// caller-attached observer (Trace, Probe or TxnTrace) skips the probe,
	// since a stored report cannot feed it, but still persists its report.
	if r.Store != nil && cfg.Trace == nil && cfg.Probe == nil && cfg.TxnTrace == nil {
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
	rep, tr, jerr := r.attempt(cfg, name)
	fl.rep = rep
	if jerr != nil {
		fl.err = jerr // typed-nil guard: only assign a non-nil *JobError
		fl.span.Fail(string(jerr.Kind))
	} else {
		fl.span.Done()
		r.Telemetry.RecordRun(rep.Latency, sim.MHz(cfg.CoreMHz).Period, tr)
		// Persist the verified result. A failed write never fails the
		// job — the report is already in hand — so its error is dropped:
		// the store logs its first failure and counts every one in
		// PutErrors.
		if r.Store != nil && rep != nil {
			_ = r.Store.Put(cfg, name, r.Scale.String(), rep)
		}
	}
	if r.OnRecord != nil {
		rec := Record{Name: name, Cfg: cfg, Report: rep, HostNS: time.Since(started).Nanoseconds(),
			QueueWaitNS: queueWait.Nanoseconds()}
		if tr != nil {
			rec.Txn = tr
			rec.TailExemplars = tr.Summary()
		}
		if jerr != nil {
			rec.Err = jerr.Error()
			rec.ErrKind = string(jerr.Kind)
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

// attempt runs the job. Validation of the config core.New will receive
// happens first, so a bad configuration — including a negative flight
// recorder depth — fails typed and synchronously, with no goroutine
// ever spawned for it; the watchdog (JobTimeout) covers the run.
func (r *Runner) attempt(cfg core.Config, name string) (*core.Report, *txntrace.Tracer, *JobError) {
	f, ferr := workload.Get(name)
	if ferr != nil {
		return nil, nil, &JobError{Name: name, Cfg: cfg, Kind: ErrWorkload, Err: ferr}
	}
	// Arm the flight recorder for this run (it is run-scoped: keyOf
	// strips it, and Record.Cfg carries the caller's value, so manifests
	// and memo identity are unchanged). A caller-set size wins; else the
	// Runner's applies, so every typed failure in a campaign carries the
	// event tail that led there.
	if cfg.FlightRecorder == 0 {
		cfg.FlightRecorder = r.FlightRecorder
	}
	if verr := cfg.Validate(); verr != nil {
		return nil, nil, &JobError{Name: name, Cfg: cfg, Kind: ErrConfig, Err: verr}
	}
	// Arm a fresh transaction tracer (run-scoped like the recorder:
	// stripped by keyOf, json:"-" in manifests).
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
	for _, j := range jobs {
		app := j.Name
		rep, err := r.Run(j.Cfg, app)
		if !g.job(j, err) {
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
