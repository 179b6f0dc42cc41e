package telemetry

import (
	"time"

	"repro/internal/resultstore"
)

// SpanSnapshot is one job's lifecycle record as served by /progress.
// Times are nanoseconds; zero means "not yet" (e.g. StartedNS while
// queued, EndedNS while running).
type SpanSnapshot struct {
	ID          int    `json:"id"`
	Workload    string `json:"workload"`
	Config      string `json:"config,omitempty"`
	Figure      string `json:"figure,omitempty"`
	State       string `json:"state"`
	EnqueuedNS  int64  `json:"enqueued_ns"`
	StartedNS   int64  `json:"started_ns,omitempty"`
	EndedNS     int64  `json:"ended_ns,omitempty"`
	QueueWaitNS int64  `json:"queue_wait_ns,omitempty"`
	ErrKind     string `json:"err_kind,omitempty"`
}

// FigureSnapshot is one figure's completion rollup.
type FigureSnapshot struct {
	Figure    string `json:"figure"`
	Total     int    `json:"total"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	StoreHits int    `json:"store_hits"`
	ErrCells  int    `json:"err_cells"`
}

// Snapshot is the /progress payload: campaign counters and gauges, the
// per-figure rollup, and the full span table, captured atomically under
// the campaign mutex.
type Snapshot struct {
	Complete  bool  `json:"complete"`
	ElapsedNS int64 `json:"elapsed_ns"`
	Workers   int   `json:"workers,omitempty"`

	Enqueued  int `json:"enqueued"` // spans opened, one per admitted job
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	StoreSpan int `json:"store_hits_spans"`

	MemoHits       uint64 `json:"memo_hits"`
	MemoMisses     uint64 `json:"memo_misses"`
	WatchdogAborts uint64 `json:"watchdog_aborts"`
	ErrCells       uint64 `json:"err_cells"`

	// ETASeconds extrapolates the remaining fresh jobs at the observed
	// completion rate (finished-per-elapsed). Negative means unknown
	// (nothing has finished yet).
	ETASeconds float64 `json:"eta_seconds"`

	// Store holds the persistent result store's counters while one is
	// attached (-store); absent otherwise.
	Store *resultstore.Stats `json:"store,omitempty"`

	// TxnClasses is the transaction tracer's per-class rollup (counts,
	// retained exemplars, campaign-wide slowest transaction) while any
	// run recorded one; absent otherwise.
	TxnClasses []TxnClassSnapshot `json:"txn_classes,omitempty"`

	// LatencyHists carries the campaign latency histograms for the
	// metrics renderer; /progress omits them (the JSON payload would
	// dwarf the span table).
	LatencyHists []LatencyClassSnapshot `json:"-"`

	Figures []FigureSnapshot `json:"figures,omitempty"`
	Spans   []SpanSnapshot   `json:"spans,omitempty"`
}

// nsOf converts a span-relative timestamp to wall nanoseconds since the
// campaign began; zero time stays zero.
func nsOf(begun, t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.Sub(begun).Nanoseconds()
}

// Snapshot captures the whole campaign state at one instant. withSpans
// false omits the span table (the TTY status line only needs the
// aggregates; /progress serves the full table).
func (c *Campaign) Snapshot(withSpans bool) Snapshot {
	if c == nil {
		return Snapshot{ETASeconds: -1}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	elapsed := c.now().Sub(c.begun)
	snap := Snapshot{
		Complete:  c.complete,
		ElapsedNS: elapsed.Nanoseconds(),
		Workers:   c.workers,

		Enqueued:  len(c.spans),
		Queued:    c.byState[StateQueued],
		Running:   c.byState[StateRunning],
		Done:      c.byState[StateDone],
		Failed:    c.byState[StateFailed],
		StoreSpan: c.byState[StateStoreHit],

		MemoHits:       c.memoHits,
		MemoMisses:     c.memoMisses,
		WatchdogAborts: c.watchdogAborts,
		ErrCells:       c.errCells,
	}

	if c.storeStats != nil {
		st := c.storeStats()
		snap.Store = &st
	}

	// The ETA extrapolates only real simulations: store-hit spans are
	// terminal the moment they resolve and would otherwise inflate the
	// completion rate toward zero ETA.
	finished := snap.Done + snap.Failed
	remaining := snap.Queued + snap.Running
	switch {
	case remaining == 0:
		snap.ETASeconds = 0
	case finished == 0 || elapsed <= 0:
		snap.ETASeconds = -1
	default:
		rate := float64(finished) / elapsed.Seconds()
		snap.ETASeconds = float64(remaining) / rate
	}

	for _, class := range c.txnOrder {
		a := c.txn[class]
		snap.TxnClasses = append(snap.TxnClasses, TxnClassSnapshot{
			Class: class, Count: a.count, Exemplars: a.exemplars,
			SlowestID: a.slowestID, SlowestFS: a.slowestFS,
		})
	}
	for i, class := range LatencyClasses {
		if c.latency[i].Count() > 0 {
			snap.LatencyHists = append(snap.LatencyHists, LatencyClassSnapshot{Class: class, Hist: c.latency[i]})
		}
	}

	for _, fig := range c.figOrder {
		f := c.figures[fig]
		snap.Figures = append(snap.Figures, FigureSnapshot{
			Figure:    fig,
			Total:     f.total,
			Done:      f.done,
			Failed:    f.failed,
			StoreHits: f.store,
			ErrCells:  f.errCells,
		})
	}

	if withSpans {
		snap.Spans = make([]SpanSnapshot, 0, len(c.spans))
		for _, s := range c.spans {
			snap.Spans = append(snap.Spans, SpanSnapshot{
				ID:          s.id,
				Workload:    s.workload,
				Config:      s.config,
				Figure:      s.figure,
				State:       s.state.String(),
				EnqueuedNS:  nsOf(c.begun, s.enqueued),
				StartedNS:   nsOf(c.begun, s.started),
				EndedNS:     nsOf(c.begun, s.ended),
				QueueWaitNS: s.queueWait.Nanoseconds(),
				ErrKind:     s.errKind,
			})
		}
	}
	return snap
}
