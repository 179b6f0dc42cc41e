// Package dram models the off-chip memory channel of the study: a single
// channel of configurable bandwidth (Table 2: 1.6, 3.2, 6.4 or 12.8 GB/s)
// in front of a small number of DRAM banks with open-page row buffers.
// It stands in for the DRAMsim-based model the paper used: it preserves the
// 70 ns random-access latency, the channel bandwidth ceiling, and the
// row-buffer locality that lets streaming transfers approach that ceiling.
package dram

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// Config describes one memory channel.
type Config struct {
	// BandwidthMBps is the peak channel bandwidth in megabytes per second
	// (10^6 bytes). The paper sweeps 1600, 3200, 6400 and 12800.
	BandwidthMBps uint64
	// Banks is the number of DRAM banks behind the channel.
	Banks int
	// RowBytes is the size of each bank's row buffer.
	RowBytes uint64
	// RowMissLatency is the random-access latency (row activate + access).
	RowMissLatency sim.Time
	// RowHitLatency is the access latency when the row buffer hits.
	RowHitLatency sim.Time
	// RowMissOccupancy is how long a row miss occupies its bank.
	RowMissOccupancy sim.Time
	// RowWindow approximates FR-FCFS controller scheduling: accesses to
	// any of the last RowWindow rows touched in a bank count as row hits,
	// because a real controller's request queue groups same-row requests
	// into batches even when several streams interleave. 1 models a
	// strict in-order open-page controller.
	RowWindow int
	// RefreshInterval and RefreshTime model periodic all-bank refresh:
	// every RefreshInterval the channel is unavailable for RefreshTime
	// (tREFI/tRFC of DDR2-era devices). Zero disables refresh.
	RefreshInterval sim.Time
	RefreshTime     sim.Time
}

// DefaultConfig is the paper's default channel: 1.6 GB/s, 70 ns random
// access. Row-hit timing is chosen so that a sequential stream can reach
// the channel's peak bandwidth while random traffic is bank-limited, which
// is how DDR2-era parts behaved.
func DefaultConfig() Config {
	return Config{
		BandwidthMBps:    1600,
		Banks:            8,
		RowBytes:         2048,
		RowMissLatency:   70 * sim.Nanosecond,
		RowHitLatency:    40 * sim.Nanosecond,
		RowMissOccupancy: 50 * sim.Nanosecond,
		RowWindow:        8,
		RefreshInterval:  7800 * sim.Nanosecond, // tREFI
		RefreshTime:      128 * sim.Nanosecond,  // tRFC
	}
}

// Stats counts channel activity. Bytes are what crossed the pins; the
// energy model and the off-chip-traffic figures are derived from them.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadBytes  uint64
	WriteBytes uint64
	RowHits    uint64
	RowMisses  uint64
	Refreshes  uint64
}

// Channel is one off-chip memory channel.
type Channel struct {
	cfg         Config
	channel     *sim.Server
	banks       []*bank
	stats       Stats
	lastRefresh sim.Time
	// rowSel and bankSel map an address to its row and a row hash to
	// its bank; lineXfer is transferTime(mem.LineSize), the common case.
	rowSel, bankSel mem.Divisor
	lineXfer        sim.Time
}

type bank struct {
	server *sim.Server
	// recent is a small LRU of recently open rows (the FR-FCFS window);
	// recent[0] is the most recent.
	recent []uint64
}

// hitRow reports whether row falls in the bank's reordering window and
// updates the window (MRU insertion).
func (b *bank) hitRow(row uint64, window int) bool {
	for i, r := range b.recent {
		if r == row {
			copy(b.recent[1:i+1], b.recent[:i])
			b.recent[0] = row
			return true
		}
	}
	if len(b.recent) < window {
		b.recent = append(b.recent, 0)
	}
	copy(b.recent[1:], b.recent)
	b.recent[0] = row
	return false
}

// NewChannel returns a channel with the given configuration.
func NewChannel(cfg Config) *Channel {
	if cfg.Banks <= 0 || cfg.BandwidthMBps == 0 || cfg.RowBytes == 0 {
		panic(fmt.Sprintf("dram: invalid config %+v", cfg))
	}
	c := &Channel{
		cfg:     cfg,
		channel: sim.NewServer("dram.channel"),
		rowSel:  mem.NewDivisor(cfg.RowBytes),
		bankSel: mem.NewDivisor(uint64(cfg.Banks)),
	}
	for i := 0; i < cfg.Banks; i++ {
		c.banks = append(c.banks, &bank{server: sim.NewServer(fmt.Sprintf("dram.bank%d", i))})
	}
	c.lineXfer = c.transferTime(mem.LineSize)
	c.capHorizon()
	return c
}

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// transferTime converts a byte count to channel occupancy.
func (c *Channel) transferTime(nbytes uint64) sim.Time {
	// nbytes * 1e15 fs / (MBps * 1e6) bytes-per-second.
	return sim.Time(nbytes * 1_000_000_000 / c.cfg.BandwidthMBps)
}

// bankFor maps an address to its bank and row. Consecutive addresses
// stay in one row until RowBytes; the bank index is then a hash of the
// row index rather than plain modulo, as real controllers permute bank
// bits so that power-of-two-aligned streams from different cores do not
// march through the same bank in lockstep.
func (c *Channel) bankFor(a mem.Addr) (*bank, uint64) {
	rowIdx := c.rowSel.Div(uint64(a))
	h := (rowIdx * 0x9E3779B1) >> 7
	b := c.banks[c.bankSel.Mod(h)]
	return b, rowIdx
}

// Access performs one read or write of nbytes at address a, arriving at
// the channel at time at. It returns the time the last byte crosses the
// pins (reads: data delivered on-chip; writes: data accepted by the DRAM).
// nbytes must not exceed one row.
func (c *Channel) Access(at sim.Time, a mem.Addr, nbytes uint64, write bool) sim.Time {
	if nbytes == 0 {
		return at
	}
	if nbytes > c.cfg.RowBytes {
		panic(fmt.Sprintf("dram: access of %d bytes exceeds row size %d; split it", nbytes, c.cfg.RowBytes))
	}
	c.refreshUpTo(at)
	b, row := c.bankFor(a)
	window := c.cfg.RowWindow
	if window <= 0 {
		window = 1
	}
	hit := b.hitRow(row, window)
	xfer := c.lineXfer
	if nbytes != mem.LineSize {
		xfer = c.transferTime(nbytes)
	}

	var latency, occupancy sim.Time
	if hit {
		latency = c.cfg.RowHitLatency
		// A row hit's bank occupancy is data-bus limited: back-to-back
		// bursts to an open row stream at channel bandwidth.
		occupancy = xfer
		c.stats.RowHits++
	} else {
		latency = c.cfg.RowMissLatency
		occupancy = c.cfg.RowMissOccupancy
		if occupancy < xfer {
			occupancy = xfer
		}
		c.stats.RowMisses++
	}
	start := b.server.Acquire(at, occupancy)
	dataAt := start + latency
	// The data burst occupies the shared channel; it cannot start before
	// the bank has the data (reads) or before the request arrives (writes).
	chanAt := start
	if !write && dataAt > start+xfer {
		chanAt = dataAt - xfer
	}
	chanStart := c.channel.Acquire(chanAt, xfer)
	done := chanStart + xfer
	if done < dataAt {
		done = dataAt
	}

	if write {
		c.stats.Writes++
		c.stats.WriteBytes += nbytes
	} else {
		c.stats.Reads++
		c.stats.ReadBytes += nbytes
	}
	return done
}

// refreshUpTo lazily reserves the channel for every refresh epoch that
// has elapsed before time at. Requests arriving during a refresh queue
// behind it; all row buffers close (real refresh precharges the banks).
func (c *Channel) refreshUpTo(at sim.Time) {
	if c.cfg.RefreshInterval == 0 || c.lastRefresh+c.cfg.RefreshInterval > at {
		return
	}
	for c.lastRefresh+c.cfg.RefreshInterval <= at {
		c.lastRefresh += c.cfg.RefreshInterval
		c.channel.Acquire(c.lastRefresh, c.cfg.RefreshTime)
		for _, b := range c.banks {
			b.server.Acquire(c.lastRefresh, c.cfg.RefreshTime)
			b.recent = b.recent[:0]
		}
		c.stats.Refreshes++
	}
	c.capHorizon()
}

// capHorizon keeps the servers' prune horizon at or below the next
// refresh epoch. Epochs are booked lazily, when an access first arrives
// past them, so the engine clock may already have moved beyond an epoch
// that is still to be booked; pruning up to the clock would then drop
// reservations the refresh must queue behind.
func (c *Channel) capHorizon() {
	if c.cfg.RefreshInterval == 0 {
		return
	}
	next := c.lastRefresh + c.cfg.RefreshInterval
	c.channel.CapHorizon(next)
	for _, b := range c.banks {
		b.server.CapHorizon(next)
	}
}

// ChannelUtilization returns the fraction of [0, end] the data pins were
// busy.
func (c *Channel) ChannelUtilization(end sim.Time) float64 {
	return c.channel.Utilization(end)
}

// ChannelBusy returns the cumulative data-pin busy time; the probe layer
// differentiates it per epoch into a utilization series.
func (c *Channel) ChannelBusy() sim.Time { return c.channel.BusyTime() }

// EachServer calls fn on the channel server and every bank server.
func (c *Channel) EachServer(fn func(*sim.Server)) {
	fn(c.channel)
	for _, b := range c.banks {
		fn(b.server)
	}
}

// Add accumulates src into s (aggregating channels).
func (s *Stats) Add(src Stats) {
	s.Reads += src.Reads
	s.Writes += src.Writes
	s.ReadBytes += src.ReadBytes
	s.WriteBytes += src.WriteBytes
	s.RowHits += src.RowHits
	s.RowMisses += src.RowMisses
	s.Refreshes += src.Refreshes
}

// Snapshot emits the counters in a fixed order (probe layer); the
// per-epoch delta of read_bytes/write_bytes is the DRAM bandwidth
// series behind the paper's bursty-write-back explanations.
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("reads", float64(s.Reads))
	put("writes", float64(s.Writes))
	put("read_bytes", float64(s.ReadBytes))
	put("write_bytes", float64(s.WriteBytes))
	put("row_hits", float64(s.RowHits))
	put("row_misses", float64(s.RowMisses))
	put("refreshes", float64(s.Refreshes))
}

// TotalBytes returns read plus write traffic.
func (s Stats) TotalBytes() uint64 { return s.ReadBytes + s.WriteBytes }
