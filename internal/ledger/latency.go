package ledger

import (
	"io"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Bucket is one non-empty power-of-two histogram bucket.
type Bucket struct {
	LoFS  sim.Time `json:"lo_fs"`
	HiFS  sim.Time `json:"hi_fs"`
	Count uint64   `json:"count"`
}

// Dist is the report form of one histogram: headline quantiles plus the
// non-empty buckets, so a manifest record carries the full (lossy-by-
// factor-two) distribution, not just moments.
type Dist struct {
	Count   uint64   `json:"count"`
	MeanFS  sim.Time `json:"mean_fs"`
	P50FS   sim.Time `json:"p50_fs"`
	P95FS   sim.Time `json:"p95_fs"`
	P99FS   sim.Time `json:"p99_fs"`
	MaxFS   sim.Time `json:"max_fs"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// DistOf summarizes a histogram of femtosecond values; nil when it
// recorded nothing, so empty metrics vanish from JSON instead of
// reading as all-zero distributions.
func DistOf(h *stats.Histogram) *Dist {
	if h.Count() == 0 {
		return nil
	}
	d := &Dist{
		Count:  h.Count(),
		MeanFS: sim.Time(h.Mean()),
		P50FS:  sim.Time(h.P50()),
		P95FS:  sim.Time(h.P95()),
		P99FS:  sim.Time(h.P99()),
		MaxFS:  sim.Time(h.Max()),
	}
	h.Buckets(func(lo, hi, count uint64) {
		d.Buckets = append(d.Buckets, Bucket{LoFS: sim.Time(lo), HiFS: sim.Time(hi), Count: count})
	})
	return d
}

// LatencySummary is the Report's latency block: the memory system's
// service-time distributions, one Dist per metric (nil = no
// observations in this run). The transaction tracer builds it
// (txntrace.Tracer.Latency).
type LatencySummary struct {
	// ReadMiss / WriteMiss are demand misses of the first-level storage:
	// the CC and INC L1s, or the STR 8 KB stack/globals cache — issue to
	// data-available, as seen by the core.
	ReadMiss  *Dist `json:"read_miss,omitempty"`
	WriteMiss *Dist `json:"write_miss,omitempty"`
	// L2Hit / DRAMFill split uncore line reads by where the data came
	// from: the shared L2's port, or a DRAM fill (request leaving the
	// cluster to data back at the cluster).
	L2Hit    *Dist `json:"l2_hit,omitempty"`
	DRAMFill *Dist `json:"dram_fill,omitempty"`
	// DMAGet / DMAPut are whole DMA command latencies: enqueue by the
	// core to last beat complete, queuing included.
	DMAGet *Dist `json:"dma_get,omitempty"`
	DMAPut *Dist `json:"dma_put,omitempty"`
	// NoCAcquire is the arbitration wait of every bus and crossbar
	// transfer: grant time minus arrival at the link.
	NoCAcquire *Dist `json:"noc_acquire,omitempty"`
}

// Each calls f for every non-nil distribution in fixed export order.
func (s *LatencySummary) Each(f func(name string, d *Dist)) {
	for _, e := range []struct {
		name string
		d    *Dist
	}{
		{"read_miss", s.ReadMiss},
		{"write_miss", s.WriteMiss},
		{"l2_hit", s.L2Hit},
		{"dram_fill", s.DRAMFill},
		{"dma_get", s.DMAGet},
		{"dma_put", s.DMAPut},
		{"noc_acquire", s.NoCAcquire},
	} {
		if e.d != nil {
			f(e.name, e.d)
		}
	}
}

// WriteBucketsCSV exports every distribution's non-empty buckets as CSV
// (metric,lo_fs,hi_fs,count) — the memsim -latency-csv payload — and
// returns the write error, if any.
func (s *LatencySummary) WriteBucketsCSV(w io.Writer) error {
	t := stats.NewTable("", "metric", "lo_fs", "hi_fs", "count")
	s.Each(func(name string, d *Dist) {
		for _, b := range d.Buckets {
			t.Row(name, uint64(b.LoFS), uint64(b.HiFS), b.Count)
		}
	})
	return t.WriteCSV(w)
}
