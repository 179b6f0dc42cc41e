package telemetry

import (
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// TestEscapeLabel pins the three escapes of the exposition format.
func TestEscapeLabel(t *testing.T) {
	got := escapeLabel("a\\b\"c\nd")
	want := `a\\b\"c\nd`
	if got != want {
		t.Fatalf("escapeLabel = %q, want %q", got, want)
	}
}

// TestWriteMetricsGolden drives a deterministic campaign on a fake
// clock through every counter and gauge, then compares the full
// exposition text byte for byte: metric names, HELP/TYPE headers,
// label escaping (the second figure's label needs all three escapes),
// and value formatting.
func TestWriteMetricsGolden(t *testing.T) {
	c, fc := testCampaign()
	c.SetWorkers(4)

	c.SetStoreStats(func() resultstore.Stats {
		return resultstore.Stats{Records: 7, Bytes: 4096, Hits: 1, Misses: 2, Puts: 3,
			Evictions: 4, Corrupt: 1}
	})

	c.BeginGroup("fig2")
	spA := c.Enqueue("fir", "CC 4 cores @800 MHz bw=1600 pf=0")
	spB := c.Enqueue("aes", "STR 8 cores @3200 MHz bw=6400 pf=0")
	spC := c.Enqueue("fem", "CC 2 cores @800 MHz bw=1600 pf=0")
	c.MemoHit()

	fc.advance(1 * time.Second)
	spA.Start()
	fc.advance(2 * time.Second)
	spA.Done()
	spB.Start()
	fc.advance(1 * time.Second)
	spB.Fail("timeout")
	spC.Start()
	spC.StoreHit()

	c.BeginGroup("tbl\"3\\x\ny")
	c.ErrCell()

	// Campaign latency histograms (bucket replay) and transaction-tracer
	// rollups; the unknown class must be ignored.
	c.RecordLatency("read_miss", 5, 1)
	c.RecordLatency("read_miss", 100, 3)
	c.RecordLatency("dma_get", 1, 2)
	c.RecordLatency("bogus", 9, 9)
	c.RecordTxnClass("read_miss", 42, 4, 17, 123456)
	c.RecordTxnClass("dma_get", 7, 2, 99, 999999)
	c.RecordTxnClass("read_miss", 8, 4, 3, 200000)

	fc.advance(6 * time.Second)
	c.SetComplete()

	var b strings.Builder
	if err := c.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP memsim_jobs_enqueued_total Jobs admitted to the campaign (fresh simulations plus store hits).
# TYPE memsim_jobs_enqueued_total counter
memsim_jobs_enqueued_total 3
# HELP memsim_jobs_done_total Jobs whose simulation completed successfully in this campaign.
# TYPE memsim_jobs_done_total counter
memsim_jobs_done_total 1
# HELP memsim_jobs_failed_total Jobs whose simulation failed in this campaign.
# TYPE memsim_jobs_failed_total counter
memsim_jobs_failed_total 1
# HELP memsim_jobs_store_hit_total Jobs answered by the persistent result store (-store, -resume) without simulating.
# TYPE memsim_jobs_store_hit_total counter
memsim_jobs_store_hit_total 1
# HELP memsim_memo_hits_total Run requests answered from the in-campaign memo table.
# TYPE memsim_memo_hits_total counter
memsim_memo_hits_total 1
# HELP memsim_memo_misses_total Run requests that admitted a fresh simulation.
# TYPE memsim_memo_misses_total counter
memsim_memo_misses_total 3
# HELP memsim_watchdog_aborts_total Jobs aborted by the per-job watchdog timeout.
# TYPE memsim_watchdog_aborts_total counter
memsim_watchdog_aborts_total 1
# HELP memsim_err_cells_total Figure cells rendered as ERR because their job failed.
# TYPE memsim_err_cells_total counter
memsim_err_cells_total 1
# HELP memsim_workers_busy Worker slots currently running a job.
# TYPE memsim_workers_busy gauge
memsim_workers_busy 0
# HELP memsim_workers Size of the worker pool.
# TYPE memsim_workers gauge
memsim_workers 4
# HELP memsim_queue_depth Jobs admitted and waiting for a worker slot.
# TYPE memsim_queue_depth gauge
memsim_queue_depth 0
# HELP memsim_inflight_keys Singleflight keys not yet resolved (queued + running).
# TYPE memsim_inflight_keys gauge
memsim_inflight_keys 0
# HELP memsim_campaign_elapsed_seconds Wall time since the campaign began.
# TYPE memsim_campaign_elapsed_seconds gauge
memsim_campaign_elapsed_seconds 10
# HELP memsim_campaign_eta_seconds Estimated seconds to finish the remaining jobs at the observed rate (-1 = unknown).
# TYPE memsim_campaign_eta_seconds gauge
memsim_campaign_eta_seconds 0
# HELP memsim_campaign_complete 1 once every figure has rendered and no further transitions will arrive.
# TYPE memsim_campaign_complete gauge
memsim_campaign_complete 1
# HELP memsim_store_hits_total Result-store lookups answered by a verified on-disk record.
# TYPE memsim_store_hits_total counter
memsim_store_hits_total 1
# HELP memsim_store_misses_total Result-store lookups that found no usable record.
# TYPE memsim_store_misses_total counter
memsim_store_misses_total 2
# HELP memsim_store_puts_total Records written to the result store, one file each.
# TYPE memsim_store_puts_total counter
memsim_store_puts_total 3
# HELP memsim_store_put_errors_total Record writes that failed; any earlier record for the key stays.
# TYPE memsim_store_put_errors_total counter
memsim_store_put_errors_total 0
# HELP memsim_store_evictions_total Least recently used records deleted to fit the size cap.
# TYPE memsim_store_evictions_total counter
memsim_store_evictions_total 4
# HELP memsim_store_corrupt_records_total Records that failed verification on read and were deleted (never served).
# TYPE memsim_store_corrupt_records_total counter
memsim_store_corrupt_records_total 1
# HELP memsim_store_records Record files in the store.
# TYPE memsim_store_records gauge
memsim_store_records 7
# HELP memsim_store_bytes Bytes of stored record files.
# TYPE memsim_store_bytes gauge
memsim_store_bytes 4096
# HELP memsim_latency_cycles Campaign-wide memory service-time distributions in core cycles, by latency class.
# TYPE memsim_latency_cycles histogram
memsim_latency_cycles_bucket{class="read_miss",le="8"} 1
memsim_latency_cycles_bucket{class="read_miss",le="128"} 4
memsim_latency_cycles_bucket{class="read_miss",le="+Inf"} 4
memsim_latency_cycles_sum{class="read_miss"} 305
memsim_latency_cycles_count{class="read_miss"} 4
memsim_latency_cycles_bucket{class="dma_get",le="2"} 2
memsim_latency_cycles_bucket{class="dma_get",le="+Inf"} 2
memsim_latency_cycles_sum{class="dma_get"} 2
memsim_latency_cycles_count{class="dma_get"} 2
# HELP memsim_txn_transactions_total Transactions observed by the per-run tracers, by latency class.
# TYPE memsim_txn_transactions_total counter
memsim_txn_transactions_total{class="read_miss"} 50
memsim_txn_transactions_total{class="dma_get"} 7
# HELP memsim_txn_exemplars Worst-K exemplar transaction trees retained across runs, by latency class.
# TYPE memsim_txn_exemplars gauge
memsim_txn_exemplars{class="read_miss"} 8
memsim_txn_exemplars{class="dma_get"} 2
# HELP memsim_txn_slowest_latency_fs End-to-end latency of the campaign's slowest transaction per class, in femtoseconds.
# TYPE memsim_txn_slowest_latency_fs gauge
memsim_txn_slowest_latency_fs{class="read_miss"} 200000
memsim_txn_slowest_latency_fs{class="dma_get"} 999999
# HELP memsim_txn_slowest_id Trace ID of the campaign's slowest transaction per class (pair with the run's -txn-trace sink).
# TYPE memsim_txn_slowest_id gauge
memsim_txn_slowest_id{class="read_miss"} 3
memsim_txn_slowest_id{class="dma_get"} 99
# HELP memsim_figure_jobs_total Jobs attributed to each figure, by terminal state.
# TYPE memsim_figure_jobs_total counter
memsim_figure_jobs_total{figure="fig2",state="done"} 1
memsim_figure_jobs_total{figure="fig2",state="failed"} 1
memsim_figure_jobs_total{figure="fig2",state="store-hit"} 1
memsim_figure_jobs_total{figure="tbl\"3\\x\ny",state="done"} 0
memsim_figure_jobs_total{figure="tbl\"3\\x\ny",state="failed"} 0
memsim_figure_jobs_total{figure="tbl\"3\\x\ny",state="store-hit"} 0
# HELP memsim_figure_jobs_pending Jobs attributed to each figure not yet in a terminal state.
# TYPE memsim_figure_jobs_pending gauge
memsim_figure_jobs_pending{figure="fig2"} 0
memsim_figure_jobs_pending{figure="tbl\"3\\x\ny"} 0
# HELP memsim_figure_err_cells_total ERR cells rendered per figure.
# TYPE memsim_figure_err_cells_total counter
memsim_figure_err_cells_total{figure="fig2"} 0
memsim_figure_err_cells_total{figure="tbl\"3\\x\ny"} 1
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
