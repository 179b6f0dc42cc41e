// Package telemetry is the campaign observability core: a lock-cheap
// span table the experiment runner (internal/bench) feeds with per-job
// lifecycle transitions — enqueued → running → done / failed, or
// enqueued → running → store-hit — plus pool gauges (workers busy, queue
// depth, inflight singleflight keys) and campaign counters (memo hits
// and misses, watchdog aborts, ERR cells), aggregated per figure and
// campaign-wide. The table is exposed three ways: Prometheus text
// rendering (prometheus.go), a JSON progress snapshot with a rate-based
// ETA (Snapshot), and a live in-place TTY status line (status.go);
// Serve (http.go) puts the first two plus net/http/pprof behind an HTTP
// listener.
//
// Zero-perturbation discipline (DESIGN.md): telemetry observes the
// campaign, never the simulations. Transitions happen on the runner's
// own goroutines at job granularity — a handful of mutex operations per
// multi-millisecond simulation — and nothing here is reachable from
// model code, so figure output is byte-identical with a Campaign
// attached or not. Every method is safe for concurrent use and on a nil
// *Campaign (a no-op), so callers need no guards.
package telemetry

import (
	"sync"
	"time"

	"repro/internal/resultstore"
	"repro/internal/stats"
)

// State is a span's position in the job lifecycle. A span is in exactly
// one state, which is what makes the conservation invariant —
// enqueued == queued + running + done + failed + store-hit —
// hold at every instant (TestConservationUnderScrape pins it under the
// race detector while a campaign runs).
type State uint8

const (
	// StateQueued: admitted to the pool, waiting for a worker slot.
	StateQueued State = iota
	// StateRunning: a worker holds the job: it probes the result store
	// and, on a miss, simulates.
	StateRunning
	// StateDone: the simulation succeeded.
	StateDone
	// StateFailed: the simulation failed.
	StateFailed
	// StateStoreHit: the result was served by the persistent result
	// store (-store); the job was admitted but never simulated here.
	StateStoreHit
	numStates
)

var stateNames = [numStates]string{
	"queued", "running", "done", "failed", "store-hit",
}

// String returns the state's wire name ("queued", "running", ...).
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "?"
}

// span is one job's lifecycle record. All fields are guarded by the
// owning Campaign's mutex.
type span struct {
	id        int
	workload  string
	config    string
	figure    string
	state     State
	enqueued  time.Time
	started   time.Time // first transition to running
	ended     time.Time // terminal transition
	queueWait time.Duration
	errKind   string
}

// Span is a caller's handle on one job's lifecycle record; the runner
// holds one per admitted job and reports transitions through it. The
// zero of a nil Campaign's Enqueue is a nil *Span, on which every
// method is a no-op.
type Span struct {
	c *Campaign
	s *span
}

// figureAgg is the per-figure completion rollup.
type figureAgg struct {
	total    int // spans attributed to this figure
	done     int
	failed   int
	store    int
	errCells int
}

// Campaign is the span table plus the campaign-wide counters. The zero
// value is not ready; use NewCampaign. One mutex guards everything:
// transitions are a handful of field writes per job (jobs take
// milliseconds to minutes), so contention is unmeasurable, and a
// concurrent scrape sees a consistent table.
type Campaign struct {
	mu    sync.Mutex
	now   func() time.Time // injectable for deterministic tests
	begun time.Time
	group string // current figure label, set by BeginGroup

	spans   []*span
	byState [numStates]int

	memoHits       uint64 // requests answered from the memo table
	memoMisses     uint64 // requests that admitted a fresh simulation
	watchdogAborts uint64 // failures whose kind was "timeout"
	errCells       uint64 // rendered figure cells backed by a failed job

	figures  map[string]*figureAgg
	figOrder []string

	workers  int // pool size, for utilization readers (0 = unknown)
	complete bool

	// latency holds the campaign-wide service-time histograms (core
	// cycles), one per LatencyClasses entry; txn the per-class
	// transaction-tracer rollups in first-seen order.
	latency  [4]stats.Histogram
	txn      map[string]*txnAgg
	txnOrder []string

	// storeStats, when set, is polled at snapshot time for the result
	// store's counters. The provider must not call back into telemetry
	// (it runs under the campaign mutex); (*resultstore.Store).Stats
	// satisfies that trivially.
	storeStats func() resultstore.Stats
}

// NewCampaign returns an empty campaign whose clock starts now.
func NewCampaign() *Campaign {
	return &Campaign{now: time.Now, begun: time.Now(), figures: map[string]*figureAgg{}}
}

// SetWorkers records the worker-pool size for snapshot readers. Call it
// before serving.
func (c *Campaign) SetWorkers(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.workers = n
	c.mu.Unlock()
}

// SetStoreStats attaches a provider for the persistent result store's
// counters; snapshots and metrics include a store block while one is
// attached. Call it before serving. The provider is invoked under the
// campaign mutex and must not call back into this package.
func (c *Campaign) SetStoreStats(provider func() resultstore.Stats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.storeStats = provider
	c.mu.Unlock()
}

// BeginGroup sets the figure label attributed to subsequently enqueued
// spans ("table3", "fig2", ...). The runner admits each figure's grid
// before collecting it, so the driver calls BeginGroup once per figure;
// jobs shared across figures (memoized baselines) belong to the figure
// that admitted them first.
func (c *Campaign) BeginGroup(figure string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.group = figure
	c.mu.Unlock()
}

// figureOf returns the aggregate for a figure label, creating it in
// first-seen order. Caller holds mu.
func (c *Campaign) figureOf(figure string) *figureAgg {
	if figure == "" {
		return nil
	}
	f, ok := c.figures[figure]
	if !ok {
		f = &figureAgg{}
		c.figures[figure] = f
		c.figOrder = append(c.figOrder, figure)
	}
	return f
}

// Enqueue opens a span for a freshly admitted job (a memo miss): the
// job is in the pool's queue until Start. workload and config label the
// span in snapshots and metrics.
func (c *Campaign) Enqueue(workload, config string) *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &span{
		id:       len(c.spans),
		workload: workload,
		config:   config,
		figure:   c.group,
		state:    StateQueued,
		enqueued: c.now(),
	}
	c.spans = append(c.spans, s)
	c.byState[StateQueued]++
	c.memoMisses++
	if f := c.figureOf(s.figure); f != nil {
		f.total++
	}
	return &Span{c: c, s: s}
}

// MemoHit counts a request answered from the memo table (a duplicate of
// an admitted key). No span opens: the one simulation already
// has one.
func (c *Campaign) MemoHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.memoHits++
	c.mu.Unlock()
}

// ErrCell counts one rendered figure cell backed by a failed job (the
// ERR markers in tables and charts). A single failed simulation can
// poison several cells across figures; this counter tracks the blast
// radius where the failure counters track the cause.
func (c *Campaign) ErrCell() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.errCells++
	if f := c.figureOf(c.group); f != nil {
		f.errCells++
	}
	c.mu.Unlock()
}

// transition moves a span between states, keeping byState conserved.
// Caller holds mu.
func (c *Campaign) transition(s *span, to State) {
	c.byState[s.state]--
	s.state = to
	c.byState[to]++
}

// Start moves the span from queued to running when a worker picks the
// job up, capturing its queue wait for the span's snapshot.
func (sp *Span) Start() {
	if sp == nil {
		return
	}
	c := sp.c
	c.mu.Lock()
	defer c.mu.Unlock()
	s := sp.s
	s.started = c.now()
	s.queueWait = s.started.Sub(s.enqueued)
	c.transition(s, StateRunning)
}

// Done closes the span successfully.
func (sp *Span) Done() { sp.finish(StateDone, "") }

// StoreHit closes the span as answered by the persistent result store:
// the job was admitted (a memo miss) but a verified on-disk record made
// simulation unnecessary. Terminal like Done, but counted apart so
// completion rates and ETAs only reflect real simulations.
func (sp *Span) StoreHit() {
	if sp == nil {
		return
	}
	c := sp.c
	c.mu.Lock()
	defer c.mu.Unlock()
	s := sp.s
	c.transition(s, StateStoreHit)
	s.ended = c.now()
	if f := c.figureOf(s.figure); f != nil {
		f.store++
	}
}

// Fail closes the span as failed, recording the
// failure kind ("deadlock", "timeout", ...). Timeouts are additionally
// counted as watchdog aborts.
func (sp *Span) Fail(kind string) { sp.finish(StateFailed, kind) }

func (sp *Span) finish(to State, kind string) {
	if sp == nil {
		return
	}
	c := sp.c
	c.mu.Lock()
	defer c.mu.Unlock()
	s := sp.s
	c.transition(s, to)
	s.ended = c.now()
	s.errKind = kind
	if f := c.figureOf(s.figure); f != nil {
		if to == StateDone {
			f.done++
		} else {
			f.failed++
		}
	}
	if kind == "timeout" {
		c.watchdogAborts++
	}
}

// SetComplete marks the campaign finished: every figure has rendered
// and no further transitions will arrive. Snapshots and metrics expose
// it so a scraper knows the final numbers are final.
func (c *Campaign) SetComplete() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.complete = true
	c.mu.Unlock()
}
