package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"path"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	memsys "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/workload"
)

// job is one simulation: a workload on a machine.
type job struct {
	app   string
	model core.Model
	cores int
}

func (j job) key() string { return fmt.Sprintf("%s/%v/%d", j.app, j.model, j.cores) }

// spec is one benchmark workload: the job list of a pass, how the jobs
// are run, and the host time a pass takes, which sizes a run's job list.
type spec struct {
	name     string
	jobs     []job
	observed bool   // through a fresh bench.Runner per pass, with observers armed
	golden   string // digest every pass must reproduce (see verify)
	// passSeconds is the host time of one pass with two workers on the
	// machine the benchmark was calibrated on (2 vCPUs, Go 1.24). A run
	// of --seconds s executes round(seconds/passSeconds) passes, so its
	// job list is fixed for a given --seconds and comparable across
	// commits however fast either one is.
	passSeconds float64
}

// sweep lists apps × core counts on one model. fir and art overflow the
// L2 and saturate DRAM, bitonicsort fits in it and is bound by
// coherence, NoC and L2 ports, and mergesort spends 40% of its time in
// sync; 2 and 16 cores span the sweep of the paper's figures.
func sweep(model core.Model) []job {
	var js []job
	for _, app := range []string{"fir", "mergesort", "bitonicsort", "art"} {
		for _, n := range []int{2, 16} {
			js = append(js, job{app, model, n})
		}
	}
	return js
}

var specs = []spec{
	{name: "cc-sweep", jobs: sweep(core.CC), passSeconds: 5.4,
		golden: "033a9a3c32ba52dd5d901ef0c1bd07edf161b9e67f72a91ce0a6502a748fba0a"},
	{name: "str-sweep", jobs: sweep(core.STR), passSeconds: 2.45,
		golden: "fb6eb186817b010fdf84906b1f69143047595c20102de4b6baf67b28599ceeca"},
	{name: "observed-campaign", observed: true, passSeconds: 3.9,
		golden: "b7c7c2bd712a9751f86012640a0c863a0e29f9bdf962c48248fd99d392784608", jobs: []job{
			{"fir", core.CC, 8}, {"mergesort", core.CC, 8},
			{"fir", core.STR, 8}, {"mergesort", core.STR, 8},
		}},
}

func specNamed(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) passes(seconds int) int {
	p := int(float64(seconds)/s.passSeconds + 0.5)
	if p < 1 {
		p = 1
	}
	return p
}

// order is pass p's job order under seed: the seed permutes the jobs and
// nothing else, so the simulator sees the same inputs under every seed.
func order(jobs []job, seed int64, pass int) []job {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
	out := make([]job, len(jobs))
	for i, k := range rng.Perm(len(jobs)) {
		out[i] = jobs[k]
	}
	return out
}

// jobResult is one finished job: its digest, what it counted and where
// its host time went.
type jobResult struct {
	key    string
	pass   int
	hash   string // digest of the report (and exported trees), "" on error
	err    error
	instr  uint64
	counts counts

	latency                            time.Duration // dequeue to verified report
	newWL, coreNew, setup, run, verify time.Duration
	queueWait                          time.Duration // bench.Runner only
}

// runResult is one run of a job list.
type runResult struct {
	wall    time.Duration
	jobs    []jobResult
	exports []time.Duration // observed: one WriteJSONL pass per campaign
}

// add appends a run of further passes to r.
func (r *runResult) add(o runResult) {
	r.wall += o.wall
	r.jobs = append(r.jobs, o.jobs...)
	r.exports = append(r.exports, o.exports...)
}

// options are the settings a job list runs under.
type options struct {
	first, passes int // the run's passes are first .. first+passes-1
	workers       int
	seed          int64
	scale         workload.Scale
	spans         *spanLog // nil: untraced
}

func execute(s spec, o options) runResult {
	if s.observed {
		return runObserved(s, o)
	}
	return runSweep(s, o)
}

// config is the machine a job of s runs on. bench.Runner also arms its
// flight recorder and a transaction tracer on the observed workload;
// neither does work before the simulation starts.
func (s spec) config(j job) core.Config {
	cfg := core.DefaultConfig(j.model, j.cores)
	cfg.CycleLedger = s.observed
	return cfg
}

// built is a job's machine before it runs, and when each step of
// building it ended.
type built struct {
	w          core.Workload
	sys        *core.System
	t0, t1, t2 time.Time // factory start, factory end, core.New end
}

// build calls the workload factory and core.New through the public
// memsys path.
func build(j job, cfg core.Config, scale workload.Scale) (built, error) {
	var b built
	b.t0 = time.Now()
	w, err := memsys.NewWorkload(j.app, scale)
	b.t1 = time.Now()
	if err != nil {
		return b, err
	}
	b.w, b.sys = w, memsys.NewSystem(cfg)
	b.t2 = time.Now()
	return b, nil
}

// setupReps is how often a run builds the machines of a pass for
// setup_s; the median of the repetitions is reported.
const setupReps = 31

// setupTime builds every job of a pass and calls Workload.Setup on it,
// one after another and without simulating, setupReps times, and returns
// the median pass total. Timed apart from the closed loop, set-up is not
// inflated by whichever simulation happens to run beside it; each
// repetition starts after a collection, so it does not pay for the
// garbage of the one before.
func setupTime(s spec, o options) (time.Duration, error) {
	totals := make([]time.Duration, setupReps)
	for i := range totals {
		runtime.GC()
		for _, j := range s.jobs {
			b, err := build(j, s.config(j), o.scale)
			if err != nil {
				return 0, err
			}
			b.w.Setup(b.sys)
			totals[i] += time.Since(b.t0)
		}
	}
	sort.Slice(totals, func(a, b int) bool { return totals[a] < totals[b] })
	return totals[setupReps/2], nil
}

// item is one entry of a run's job list.
type item struct {
	j    job
	pass int
}

// jobList lays the passes out back to back, each in its seed's order.
func jobList(s spec, o options) []item {
	var list []item
	for p := o.first; p < o.first+o.passes; p++ {
		for _, j := range order(s.jobs, o.seed, p) {
			list = append(list, item{j, p})
		}
	}
	return list
}

// closedLoop runs items 0..n-1 on a number of workers, each taking the
// next item as soon as its last one is done, and returns the wall time.
func closedLoop(n, workers int, do func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				do(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// runSweep runs the job list through the public memsys path.
func runSweep(s spec, o options) runResult {
	list := jobList(s, o)
	res := make([]jobResult, len(list))
	wall := closedLoop(len(list), o.workers, func(i int) {
		res[i] = runJob(s, list[i].j, list[i].pass, o)
	})
	return runResult{wall: wall, jobs: res}
}

// runJob runs one simulation through the public memsys path and checks it.
func runJob(s spec, j job, pass int, o options) jobResult {
	r := jobResult{key: j.key(), pass: pass}
	b, err := build(j, s.config(j), o.scale)
	if err != nil {
		r.err = err
		return r
	}
	ww, tw := wrap(b.w)
	rep, err := b.sys.Run(ww)
	t3 := time.Now()
	r.newWL, r.coreNew = b.t1.Sub(b.t0), b.t2.Sub(b.t1)
	r.setup, r.verify = tw.setup1.Sub(tw.setup0), tw.verify1.Sub(tw.verify0)
	r.run = t3.Sub(b.t2) - r.setup - r.verify
	if err == nil {
		r.hash, err = reportHash(rep, nil)
	}
	r.err = err
	if rep != nil {
		r.instr = rep.Instructions
		r.counts = countsOf(rep, b.sys)
	}
	r.latency = time.Since(b.t0)
	if o.spans != nil {
		o.spans.job(r.key, pass, b.t0, []stamp{
			{"workload.new", b.t0, b.t1}, {"core.new", b.t1, b.t2},
			{"workload.setup", tw.setup0, tw.setup1}, {"core.run", tw.setup1, tw.verify0},
			{"workload.verify", tw.verify0, tw.verify1},
		})
	}
	return r
}

// timedWorkload times the Setup and Verify calls System.Run makes on the
// workload's behalf, and keeps the System for its layer counters.
type timedWorkload struct {
	core.Workload
	sys                                          *core.System
	new0, new1, setup0, setup1, verify0, verify1 time.Time
}

func (w *timedWorkload) Setup(sys *core.System) {
	w.sys = sys
	if tr := sys.Config().TxnTrace; tr != nil {
		// A bench.Runner job: its Record carries the same tracer.
		byTracer.Store(tr, w)
	}
	w.setup0 = time.Now()
	w.Workload.Setup(sys)
	w.setup1 = time.Now()
}

func (w *timedWorkload) Verify() error {
	w.verify0 = time.Now()
	err := w.Workload.Verify()
	w.verify1 = time.Now()
	return err
}

// timedInline keeps an inline-capable workload inline: without
// InlineBody the STR cores would fall back to goroutines.
type timedInline struct {
	*timedWorkload
	body core.InlineWorkload
}

func (w timedInline) InlineBody(p *cpu.Proc) sim.Runnable { return w.body.InlineBody(p) }

func wrap(w core.Workload) (core.Workload, *timedWorkload) {
	tw := &timedWorkload{Workload: w}
	if iw, ok := w.(core.InlineWorkload); ok {
		return timedInline{tw, iw}, tw
	}
	return tw, tw
}

// reportHash digests a report without its Engine and Servers blocks —
// simulator-health counters a dispatch change may legitimately move —
// followed by the run's exported transaction trees, if any.
func reportHash(rep *core.Report, trees []byte) (string, error) {
	r := *rep
	r.Engine, r.Servers = sim.Metrics{}, sim.ServerMetrics{}
	b, err := json.Marshal(&r)
	if err != nil {
		return "", fmt.Errorf("marshal report: %w", err)
	}
	h := sha256.New()
	h.Write(b)
	h.Write(trees)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// byTracer links a bench.Runner job's Record to the timing wrapper its
// workload was built in, by the transaction tracer the runner armed for
// the job (*txntrace.Tracer -> *timedWorkload).
var byTracer sync.Map

// timedName is the name under which app's timed factory is registered
// for bench.Runner, which calls the workload factory itself.
func timedName(app string) string { return "simbench/" + app }

func init() {
	for _, s := range specs {
		if !s.observed {
			continue
		}
		for _, j := range s.jobs {
			if _, err := workload.Get(timedName(j.app)); err == nil {
				continue // another job of the list runs the same app
			}
			f, err := workload.Get(j.app)
			if err != nil {
				panic(err) // the job lists name registered apps only
			}
			workload.Register(timedName(j.app), func(sc workload.Scale) core.Workload {
				t0 := time.Now()
				ww, tw := wrap(f(sc))
				tw.new0, tw.new1 = t0, time.Now()
				return ww
			})
		}
	}
}

// campaign is one pass of the observed workload: a fresh bench.Runner
// and the records of its runs.
type campaign struct {
	rn    *bench.Runner
	mu    sync.Mutex
	left  int                     // jobs not yet finished
	recs  map[string]bench.Record // by job key
	dones map[string]time.Time    // when each record arrived
}

func newCampaign(s spec, o options) *campaign {
	c := &campaign{rn: bench.NewRunner(o.scale), left: len(s.jobs),
		recs: map[string]bench.Record{}, dones: map[string]time.Time{}}
	c.rn.Workers = o.workers
	c.rn.TxnExemplars = txntrace.DefaultK
	c.rn.OnRecord = func(rec bench.Record) {
		now := time.Now()
		k := job{path.Base(rec.Name), rec.Cfg.Model, rec.Cfg.Cores}.key()
		c.mu.Lock()
		c.recs[k], c.dones[k] = rec, now
		c.mu.Unlock()
	}
	return c
}

// runObserved runs the job list as a closed loop in which each pass is
// its own campaign — a fresh bench.Runner with the cycle ledger on and
// transaction exemplars armed, the `paperbench -only breakdown
// -txn-trace` path. The worker that finishes a campaign's last job
// exports that campaign's trees.
func runObserved(s spec, o options) runResult {
	list := jobList(s, o)
	camps := make([]*campaign, o.passes)
	for p := range camps {
		camps[p] = newCampaign(s, o)
	}
	res := make([]jobResult, len(list))
	exports := make([]time.Duration, o.passes)
	wall := closedLoop(len(list), o.workers, func(i int) {
		it := list[i]
		p := it.pass - o.first
		c := camps[p]
		_, err := c.rn.Run(s.config(it.j), timedName(it.j.app))
		c.mu.Lock()
		res[i] = jobResult{key: it.j.key(), pass: it.pass, err: err}
		c.left--
		last := c.left == 0
		c.mu.Unlock()
		if last {
			exports[p] = c.finish(list, res, it.pass, o.spans)
		}
	})
	return runResult{wall: wall, jobs: res, exports: exports}
}

// finish exports every run's trees in job-key order, as paperbench's
// sink does at campaign end, into a digest rather than onto disk, and
// completes the pass's job results. It returns the export time.
func (c *campaign) finish(list []item, res []jobResult, pass int, spans *spanLog) time.Duration {
	var idx []int
	for i, it := range list {
		if it.pass == pass {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return res[idx[a]].key < res[idx[b]].key })
	var exp time.Duration
	t0 := time.Now()
	for _, i := range idx {
		r := &res[i]
		rec := c.recs[r.key]
		var tw *timedWorkload
		if rec.Txn != nil {
			if v, ok := byTracer.LoadAndDelete(rec.Txn); ok {
				tw = v.(*timedWorkload)
			}
		}
		if r.err == nil && (tw == nil || rec.Report == nil) {
			r.err = fmt.Errorf("%s: runner returned no report, tracer or workload", r.key)
		}
		if r.err != nil {
			continue
		}
		e0 := time.Now()
		trees := &treeSink{h: sha256.New()}
		if err := rec.Txn.WriteJSONL(trees); err != nil {
			r.err = fmt.Errorf("%s: export trees: %w", r.key, err)
			continue
		}
		exp += time.Since(e0)
		r.counts = countsOf(rec.Report, tw.sys)
		r.counts.trees = trees.lines
		r.instr = rec.Report.Instructions
		if err := rec.Report.Cycles.Check(rec.Report.Wall); err != nil {
			r.err = fmt.Errorf("%s: %w", r.key, err)
			continue
		}
		r.hash, r.err = reportHash(rec.Report, trees.h.Sum(nil))
		r.queueWait = time.Duration(rec.QueueWaitNS)
		// The runner's job starts at dequeue and builds the machine
		// (core.New) before it calls the workload factory.
		start := c.dones[r.key].Add(-time.Duration(rec.HostNS))
		r.newWL, r.coreNew = tw.new1.Sub(tw.new0), tw.new0.Sub(start)
		r.setup, r.verify = tw.setup1.Sub(tw.setup0), tw.verify1.Sub(tw.verify0)
		r.run = tw.verify0.Sub(tw.setup1)
		r.latency = time.Duration(rec.HostNS)
		if spans != nil {
			spans.job(r.key, pass, start.Add(-r.queueWait), []stamp{
				{"runner.queue_wait", start.Add(-r.queueWait), start},
				{"core.new", start, tw.new0}, {"workload.new", tw.new0, tw.new1},
				{"workload.setup", tw.setup0, tw.setup1}, {"core.run", tw.setup1, tw.verify0},
				{"workload.verify", tw.verify0, tw.verify1},
			})
		}
	}
	if spans != nil {
		spans.add(0, "txntrace.export", "", pass, t0, time.Now())
	}
	// Done with the campaign: let its runner, reports and trees go.
	c.rn.Close()
	c.rn, c.recs, c.dones = nil, nil, nil
	return exp
}

// treeSink digests exported JSONL; its line count is the tree count.
type treeSink struct {
	h     hash.Hash
	lines uint64
}

func (t *treeSink) Write(p []byte) (int, error) {
	t.lines += uint64(bytes.Count(p, []byte{'\n'}))
	return t.h.Write(p)
}
