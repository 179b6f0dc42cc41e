package telemetry

import (
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/txntrace"
)

// LatencyClasses are the per-class campaign latency histograms exported
// as the memsim_latency_cycles family, in render order. They mirror the
// cycle ledger's headline service-time metrics; classes outside this
// list are ignored by RecordLatency.
var LatencyClasses = []string{"read_miss", "write_miss", "dma_get", "dma_put"}

func latencyIndex(class string) int {
	for i, c := range LatencyClasses {
		if c == class {
			return i
		}
	}
	return -1
}

// RecordLatency merges count observations of one latency value (in core
// cycles) into the campaign-wide histogram for class. The runner calls
// it per report bucket, replaying each run's power-of-two latency
// distribution into the campaign aggregate; unknown classes are
// ignored. Purely observational, like every Campaign method.
func (c *Campaign) RecordLatency(class string, cycles, count uint64) {
	if c == nil {
		return
	}
	i := latencyIndex(class)
	if i < 0 {
		return
	}
	c.mu.Lock()
	c.latency[i].RecordN(cycles, count)
	c.mu.Unlock()
}

// RecordRun folds one finished run into the campaign: each bucket of
// its latency block (nil without the cycle ledger) replays into the
// per-class histograms, converted to core cycles of the given clock
// period so runs at different clocks aggregate on one axis, and the
// tracer's class digests (none for a nil tracer) into the txn rollup.
func (c *Campaign) RecordRun(lat *ledger.LatencySummary, period sim.Time, tr *txntrace.Tracer) {
	if c == nil {
		return
	}
	if lat != nil && period > 0 {
		lat.Each(func(class string, d *ledger.Dist) {
			for _, b := range d.Buckets {
				c.RecordLatency(class, uint64(b.HiFS)/uint64(period), b.Count)
			}
		})
	}
	for _, s := range tr.Summary() {
		c.RecordTxnClass(s.Class, s.Count, s.Exemplars, s.SlowestID, s.SlowestFS)
	}
}

// txnAgg aggregates one transaction class across runs (guarded by mu).
type txnAgg struct {
	count     uint64 // transactions observed
	exemplars int    // worst-K trees retained across runs
	slowestID uint64 // trace ID of the slowest transaction seen
	slowestFS uint64 // its end-to-end latency
}

// RecordTxnClass folds one run's transaction-tracer summary for a class
// into the campaign rollup: the observation count accumulates, the
// exemplar count accumulates (each run retains its own worst-K trees),
// and the campaign-wide slowest transaction is kept by latency with the
// lower trace ID as the deterministic tiebreak.
func (c *Campaign) RecordTxnClass(class string, count uint64, exemplars int, slowestID, slowestFS uint64) {
	if c == nil || count == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.txn == nil {
		c.txn = map[string]*txnAgg{}
	}
	a, ok := c.txn[class]
	if !ok {
		a = &txnAgg{}
		c.txn[class] = a
		c.txnOrder = append(c.txnOrder, class)
	}
	a.count += count
	a.exemplars += exemplars
	if slowestFS > a.slowestFS || (slowestFS == a.slowestFS && (a.slowestID == 0 || slowestID < a.slowestID)) {
		a.slowestFS = slowestFS
		a.slowestID = slowestID
	}
}

// TxnClassSnapshot is one transaction class's campaign rollup as served
// by /progress and rendered on /metrics.
type TxnClassSnapshot struct {
	Class     string `json:"class"`
	Count     uint64 `json:"count"`
	Exemplars int    `json:"exemplars"`
	SlowestID uint64 `json:"slowest_id,omitempty"`
	SlowestFS uint64 `json:"slowest_fs,omitempty"`
}

// LatencyClassSnapshot carries one class's campaign-wide latency
// histogram for the metrics renderer (not part of the JSON payload —
// /progress serves the txn rollup, /metrics the full distribution).
type LatencyClassSnapshot struct {
	Class string
	Hist  stats.Histogram
}

// writeLatencyFamily renders the campaign latency histograms as one
// Prometheus histogram family with power-of-two le bounds. A bucket
// holding values in [2^(i-1), 2^i) is exactly the cumulative le=2^i
// bound, so the log-bucket histogram exports losslessly.
func writeLatencyFamily(m *metricWriter, hists []LatencyClassSnapshot) {
	any := false
	for i := range hists {
		if hists[i].Hist.Count() > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	m.header("memsim_latency_cycles", "Campaign-wide memory service-time distributions in core cycles, by latency class.", "histogram")
	for i := range hists {
		h := &hists[i].Hist
		if h.Count() == 0 {
			continue
		}
		class := hists[i].Class
		var cum uint64
		h.Buckets(func(lo, hi, count uint64) {
			cum += count
			if hi == ^uint64(0) {
				// The saturated top bucket has no finite power-of-two
				// bound; it folds into +Inf below.
				return
			}
			m.metric("memsim_latency_cycles_bucket", cum, "class", class, "le", formatUint(hi+1))
		})
		m.metric("memsim_latency_cycles_bucket", h.Count(), "class", class, "le", "+Inf")
		m.metric("memsim_latency_cycles_sum", h.Sum(), "class", class)
		m.metric("memsim_latency_cycles_count", h.Count(), "class", class)
	}
}

// formatUint renders a bucket bound without importing strconv's float
// formatting quirks into the label.
func formatUint(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
