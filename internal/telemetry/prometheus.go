package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (version 0.0.4): `# HELP` / `# TYPE`
// headers followed by samples, label values escaped per the spec
// (backslash, double quote, and newline). Rendered from a Snapshot so
// one lock acquisition covers the whole scrape. Metric names live in
// the memsim_ namespace; memsim_jobs_done_total is the contract metric
// CI reconciles against the manifest record count.

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// metricWriter accumulates exposition text; the error from the
// underlying writer is sticky and returned once at the end.
type metricWriter struct {
	w   io.Writer
	err error
}

func (m *metricWriter) printf(format string, args ...any) {
	if m.err != nil {
		return
	}
	_, m.err = fmt.Fprintf(m.w, format, args...)
}

// header emits the HELP/TYPE preamble for one metric family.
func (m *metricWriter) header(name, help, typ string) {
	m.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// metric emits one sample. labels come as alternating key, value
// pairs; values are escaped here.
func (m *metricWriter) metric(name string, value any, labels ...string) {
	m.printf("%s", name)
	if len(labels) > 0 {
		m.printf("{")
		for i := 0; i+1 < len(labels); i += 2 {
			if i > 0 {
				m.printf(",")
			}
			m.printf(`%s="%s"`, labels[i], escapeLabel(labels[i+1]))
		}
		m.printf("}")
	}
	switch v := value.(type) {
	case float64:
		m.printf(" %g\n", v)
	default:
		m.printf(" %d\n", v)
	}
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteMetrics renders the campaign in Prometheus text format. A nil
// campaign renders nothing (and returns nil), matching the package-wide
// nil-no-op contract.
func (c *Campaign) WriteMetrics(w io.Writer) error {
	if c == nil {
		return nil
	}
	snap := c.Snapshot(false)
	m := &metricWriter{w: w}

	m.header("memsim_jobs_enqueued_total", "Jobs admitted to the campaign (fresh simulations plus store hits).", "counter")
	m.metric("memsim_jobs_enqueued_total", snap.Enqueued)
	m.header("memsim_jobs_done_total", "Jobs whose simulation completed successfully in this campaign.", "counter")
	m.metric("memsim_jobs_done_total", snap.Done)
	m.header("memsim_jobs_failed_total", "Jobs that failed after exhausting retries.", "counter")
	m.metric("memsim_jobs_failed_total", snap.Failed)
	m.header("memsim_jobs_store_hit_total", "Jobs answered by the persistent result store (-store, -resume) without simulating.", "counter")
	m.metric("memsim_jobs_store_hit_total", snap.StoreSpan)

	m.header("memsim_memo_hits_total", "Run requests answered from the in-campaign memo table.", "counter")
	m.metric("memsim_memo_hits_total", snap.MemoHits)
	m.header("memsim_memo_misses_total", "Run requests that admitted a fresh simulation.", "counter")
	m.metric("memsim_memo_misses_total", snap.MemoMisses)
	m.header("memsim_job_retries_total", "Retry attempts started after retryable failures.", "counter")
	m.metric("memsim_job_retries_total", snap.Retries)
	m.header("memsim_watchdog_aborts_total", "Jobs aborted by the per-job watchdog timeout.", "counter")
	m.metric("memsim_watchdog_aborts_total", snap.WatchdogAborts)
	m.header("memsim_err_cells_total", "Figure cells rendered as ERR because their job failed.", "counter")
	m.metric("memsim_err_cells_total", snap.ErrCells)

	m.header("memsim_workers_busy", "Worker slots currently running a simulation attempt.", "gauge")
	m.metric("memsim_workers_busy", snap.Running)
	m.header("memsim_workers", "Size of the worker pool.", "gauge")
	m.metric("memsim_workers", snap.Workers)
	m.header("memsim_queue_depth", "Jobs admitted and waiting for a worker slot.", "gauge")
	m.metric("memsim_queue_depth", snap.Queued)
	m.header("memsim_inflight_keys", "Singleflight keys not yet resolved (queued + running + retrying).", "gauge")
	m.metric("memsim_inflight_keys", snap.Queued+snap.Running+snap.Retrying)

	m.header("memsim_campaign_elapsed_seconds", "Wall time since the campaign began.", "gauge")
	m.metric("memsim_campaign_elapsed_seconds", float64(snap.ElapsedNS)/1e9)
	m.header("memsim_campaign_eta_seconds", "Estimated seconds to finish the remaining jobs at the observed rate (-1 = unknown).", "gauge")
	m.metric("memsim_campaign_eta_seconds", snap.ETASeconds)
	m.header("memsim_campaign_complete", "1 once every figure has rendered and no further transitions will arrive.", "gauge")
	m.metric("memsim_campaign_complete", boolGauge(snap.Complete))

	if st := snap.Store; st != nil {
		m.header("memsim_store_hits_total", "Result-store lookups answered by a verified on-disk record.", "counter")
		m.metric("memsim_store_hits_total", st.Hits)
		m.header("memsim_store_misses_total", "Result-store lookups that found no usable record.", "counter")
		m.metric("memsim_store_misses_total", st.Misses)
		m.header("memsim_store_puts_total", "Records appended to the result-store journal.", "counter")
		m.metric("memsim_store_puts_total", st.Puts)
		m.header("memsim_store_put_errors_total", "Record appends that failed and were rolled back.", "counter")
		m.metric("memsim_store_put_errors_total", st.PutErrors)
		m.header("memsim_store_evictions_total", "Records dropped by the size-capped LRU compaction.", "counter")
		m.metric("memsim_store_evictions_total", st.Evictions)
		m.header("memsim_store_compactions_total", "Atomic journal rewrites triggered by the size cap.", "counter")
		m.metric("memsim_store_compactions_total", st.Compactions)
		m.header("memsim_store_corrupt_records_total", "Corrupt records detected and quarantined (never served).", "counter")
		m.metric("memsim_store_corrupt_records_total", st.Corrupt)
		m.header("memsim_store_recovered_records_total", "Records restored by the opening recovery scan.", "counter")
		m.metric("memsim_store_recovered_records_total", st.Recovered)
		m.header("memsim_store_truncated_bytes_total", "Torn-tail bytes truncated during recovery.", "counter")
		m.metric("memsim_store_truncated_bytes_total", st.TruncatedBytes)
		m.header("memsim_store_records", "Records currently indexed in the store.", "gauge")
		m.metric("memsim_store_records", st.Records)
		m.header("memsim_store_bytes", "Journal size in bytes.", "gauge")
		m.metric("memsim_store_bytes", st.Bytes)
	}

	writeLatencyFamily(m, snap.LatencyHists)

	if len(snap.TxnClasses) > 0 {
		m.header("memsim_txn_transactions_total", "Transactions observed by the per-run tracers, by latency class.", "counter")
		for _, t := range snap.TxnClasses {
			m.metric("memsim_txn_transactions_total", t.Count, "class", t.Class)
		}
		m.header("memsim_txn_exemplars", "Worst-K exemplar transaction trees retained across runs, by latency class.", "gauge")
		for _, t := range snap.TxnClasses {
			m.metric("memsim_txn_exemplars", t.Exemplars, "class", t.Class)
		}
		m.header("memsim_txn_slowest_latency_fs", "End-to-end latency of the campaign's slowest transaction per class, in femtoseconds.", "gauge")
		for _, t := range snap.TxnClasses {
			m.metric("memsim_txn_slowest_latency_fs", t.SlowestFS, "class", t.Class)
		}
		m.header("memsim_txn_slowest_id", "Trace ID of the campaign's slowest transaction per class (pair with the run's -txn-trace sink).", "gauge")
		for _, t := range snap.TxnClasses {
			m.metric("memsim_txn_slowest_id", t.SlowestID, "class", t.Class)
		}
	}

	if len(snap.Figures) > 0 {
		figs := append([]FigureSnapshot(nil), snap.Figures...)
		sort.Slice(figs, func(i, j int) bool { return figs[i].Figure < figs[j].Figure })
		m.header("memsim_figure_jobs_total", "Jobs attributed to each figure, by terminal state.", "counter")
		for _, f := range figs {
			m.metric("memsim_figure_jobs_total", f.Done, "figure", f.Figure, "state", "done")
			m.metric("memsim_figure_jobs_total", f.Failed, "figure", f.Figure, "state", "failed")
			m.metric("memsim_figure_jobs_total", f.StoreHits, "figure", f.Figure, "state", "store-hit")
		}
		m.header("memsim_figure_jobs_pending", "Jobs attributed to each figure not yet in a terminal state.", "gauge")
		for _, f := range figs {
			m.metric("memsim_figure_jobs_pending", f.Total-f.Done-f.Failed-f.StoreHits, "figure", f.Figure)
		}
		m.header("memsim_figure_err_cells_total", "ERR cells rendered per figure.", "counter")
		for _, f := range figs {
			m.metric("memsim_figure_err_cells_total", f.ErrCells, "figure", f.Figure)
		}
	}
	return m.err
}
