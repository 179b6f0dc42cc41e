package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestRandomAccessLatency(t *testing.T) {
	c := NewChannel(DefaultConfig())
	// First access to an idle channel: row miss, the paper's 70 ns
	// random-access latency (burst overlapped within it).
	done := c.Access(0, 0x1000, 32, false)
	if done != 70*sim.Nanosecond {
		t.Errorf("cold access done = %v, want 70ns", done)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	c := NewChannel(DefaultConfig())
	first := c.Access(0, 0x0, 32, false)
	// Same row, long after the first access completed.
	at := first + 1000*sim.Nanosecond
	second := c.Access(at, 0x20, 32, false)
	hitLat := second - at
	missLat := first
	if hitLat >= missLat {
		t.Errorf("row hit latency %v not faster than miss %v", hitLat, missLat)
	}
	st := c.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1,1", st.RowHits, st.RowMisses)
	}
}

func TestSequentialStreamReachesBandwidth(t *testing.T) {
	// Issue a long back-to-back sequential read stream; the sustained rate
	// should come within 15% of the channel's peak bandwidth.
	// Requests are issued without waiting for completions, as a DMA engine
	// or prefetcher with outstanding accesses would.
	cfg := DefaultConfig()
	cfg.BandwidthMBps = 3200
	c := NewChannel(cfg)
	var at sim.Time
	const n = 4096 // lines
	for i := 0; i < n; i++ {
		done := c.Access(at, mem.Addr(i*32), 32, false)
		if done > at {
			at = done
		}
		// Keep ~16 accesses in flight: issue time trails completion.
		if at > 16*10*sim.Nanosecond {
			at -= 16 * 10 * sim.Nanosecond
		}
	}
	// Final completion time of the stream.
	end := c.Access(at, mem.Addr(n*32), 32, false)
	bytes := float64((n + 1) * 32)
	gbps := bytes / end.Seconds() / 1e9
	if gbps < 3.2*0.85 {
		t.Errorf("sequential stream sustained %.2f GB/s, want >= %.2f", gbps, 3.2*0.85)
	}
	if gbps > 3.21 {
		t.Errorf("sustained %.2f GB/s exceeds channel peak", gbps)
	}
}

func TestRandomTrafficBankLimited(t *testing.T) {
	// Random single-line accesses must sustain far less than peak.
	cfg := DefaultConfig()
	cfg.BandwidthMBps = 12800
	c := NewChannel(cfg)
	var at sim.Time
	const n = 2048
	addr := mem.Addr(0)
	for i := 0; i < n; i++ {
		addr = (addr*2654435761 + 12345) % (1 << 28)
		at = c.Access(at, addr.Line(), 32, false)
	}
	gbps := float64(n*32) / at.Seconds() / 1e9
	if gbps > 8.0 {
		t.Errorf("random traffic sustained %.2f GB/s; should be bank-limited well below 12.8", gbps)
	}
}

func TestWriteCounters(t *testing.T) {
	c := NewChannel(DefaultConfig())
	c.Access(0, 0, 32, true)
	c.Access(0, 64, 32, false)
	st := c.Stats()
	if st.WriteBytes != 32 || st.ReadBytes != 32 || st.Writes != 1 || st.Reads != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalBytes() != 64 {
		t.Errorf("TotalBytes = %d, want 64", st.TotalBytes())
	}
}

func TestHigherBandwidthNeverSlower(t *testing.T) {
	// Property: for any access pattern, doubling channel bandwidth never
	// increases total completion time.
	f := func(seed uint32, writes []bool) bool {
		if len(writes) == 0 || len(writes) > 200 {
			return true
		}
		run := func(bw uint64) sim.Time {
			cfg := DefaultConfig()
			cfg.BandwidthMBps = bw
			c := NewChannel(cfg)
			var at sim.Time
			a := mem.Addr(seed)
			for _, w := range writes {
				a = (a*1103515245 + 12345) % (1 << 26)
				at = c.Access(at, a.Line(), 32, w)
			}
			return at
		}
		return run(3200) <= run(1600)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAccessTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized access")
		}
	}()
	c := NewChannel(DefaultConfig())
	c.Access(0, 0, 4096, false)
}

func TestZeroByteAccess(t *testing.T) {
	c := NewChannel(DefaultConfig())
	if got := c.Access(42, 0, 0, false); got != 42 {
		t.Errorf("zero-byte access done = %v, want 42", got)
	}
}

func TestRefreshClosesRowsAndCounts(t *testing.T) {
	cfg := DefaultConfig()
	c := NewChannel(cfg)
	c.Access(0, 0x0, 32, false) // opens a row
	// Access long after several refresh intervals.
	at := 3 * cfg.RefreshInterval
	c.Access(at, 0x20, 32, false) // same row, but refresh closed it
	st := c.Stats()
	if st.Refreshes != 3 {
		t.Errorf("refreshes = %d, want 3", st.Refreshes)
	}
	if st.RowHits != 0 {
		t.Errorf("row hit after refresh; refresh must close rows")
	}
}

func TestRefreshDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RefreshInterval = 0
	c := NewChannel(cfg)
	c.Access(0, 0x0, 32, false)
	c.Access(sim.Second/1000, 0x20, 32, false)
	if c.Stats().Refreshes != 0 {
		t.Error("refresh fired while disabled")
	}
	if c.Stats().RowHits != 1 {
		t.Error("expected a row hit with refresh disabled")
	}
}

func TestRefreshStealsLittleBandwidth(t *testing.T) {
	// Refresh costs tRFC/tREFI ~ 1.6% of channel time; a long stream
	// should still come within a few percent of peak.
	cfg := DefaultConfig()
	cfg.BandwidthMBps = 3200
	c := NewChannel(cfg)
	var at sim.Time
	const n = 16384
	for i := 0; i < n; i++ {
		done := c.Access(at, mem.Addr(i*32), 32, false)
		if done > at {
			at = done
		}
		if at > 200*sim.Nanosecond {
			at -= 200 * sim.Nanosecond
		}
	}
	gbps := float64(n*32) / at.Seconds() / 1e9
	if gbps < 3.2*0.80 {
		t.Errorf("sustained %.2f GB/s with refresh, want >= %.2f", gbps, 3.2*0.80)
	}
}

// TestRefreshCapsServerHorizon: refresh epochs are booked lazily, when
// an access first arrives past them, so by then the engine clock may be
// microseconds beyond an epoch still to be booked. Each channel caps its
// servers' prune horizon at the next unbooked epoch. Without the cap the
// late refresh bookings would arrive below the horizon (Acquire panics)
// after pruning had dropped the reservations they must queue behind.
// With it, a channel driven by an engine grants exactly what one with
// never-pruned calendars does.
func TestRefreshCapsServerHorizon(t *testing.T) {
	cfg := DefaultConfig()
	// Each access lands just before a refresh epoch, so its bank and
	// channel reservations are still running when the epoch starts,
	// and the next access comes only several epochs later.
	var accesses []sim.Time
	for k := sim.Time(1); k <= 12; k += 3 {
		accesses = append(accesses, k*cfg.RefreshInterval-10*sim.Nanosecond)
	}
	run := func(wired bool) ([]sim.Time, [][2]sim.Time, Stats) {
		c := NewChannel(cfg)
		e := sim.NewEngine()
		if wired {
			c.EachServer(func(s *sim.Server) { s.SetHorizon(e) })
		}
		var dones []sim.Time
		e.Spawn("core", 0, func(tk *sim.Task) {
			for i, at := range accesses {
				tk.AdvanceTo(at)
				for j := 0; j < 4; j++ {
					a := mem.Addr(i*0x10000 + j*int(cfg.RowBytes))
					dones = append(dones, c.Access(tk.Time(), a, mem.LineSize, j%2 == 1))
				}
			}
			// A last access far past the final epoch books the late
			// refreshes while the clock is beyond them.
			tk.AdvanceTo(20 * cfg.RefreshInterval)
			dones = append(dones, c.Access(tk.Time(), 0x40, mem.LineSize, false))
		})
		e.Run()
		return dones, c.channel.Reservations(), c.Stats()
	}
	got, gotCh, gotSt := run(true)
	want, wantCh, wantSt := run(false)
	if gotSt != wantSt || gotSt.Refreshes != 20 {
		t.Fatalf("stats %+v, want %+v with 20 refreshes", gotSt, wantSt)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d done at %v with pruning, %v without", i, got[i], want[i])
		}
	}
	// The pruned channel calendar is a suffix of the never-pruned one.
	if len(gotCh) == 0 || len(gotCh) >= len(wantCh) {
		t.Fatalf("pruned calendar holds %d reservations, never-pruned %d", len(gotCh), len(wantCh))
	}
	for i, iv := range gotCh {
		if w := wantCh[len(wantCh)-len(gotCh)+i]; iv != w {
			t.Fatalf("live reservation %v, never-pruned calendar has %v", iv, w)
		}
	}
}
