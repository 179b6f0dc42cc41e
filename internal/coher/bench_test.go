package coher

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/mem"
)

// BenchmarkCCBroadcastMiss measures the host cost of one coherent L1
// miss on the paper's 16-core, four-cluster machine: every core streams
// alternating loads and stores over its own 128 KB, so each access
// misses, no other cache holds the line, and every miss snoops its
// cluster and then broadcasts to the three others before the L2 or DRAM
// supplies it. Each op is one read or write miss with its snoops, bus,
// crossbar, L2 and DRAM bookings and its victim's write-back.
// bench-check pins it against the same-run BenchmarkChanSwitchFloor.
func BenchmarkCCBroadcastMiss(b *testing.B) {
	const (
		cores = 16
		lines = 4096 // per core, four times its L1
	)
	h := newHarness(cores, DefaultConfig())
	bodies := make([]func(*cpu.Proc), cores)
	for c := range bodies {
		n := b.N / cores
		if c == 0 {
			n += b.N % cores
		}
		base := mem.Addr(1<<20 + c*lines*mem.LineSize)
		bodies[c] = func(p *cpu.Proc) {
			for i := 0; i < n; i++ {
				a := base + mem.Addr(i%lines*mem.LineSize)
				if i&1 == 0 {
					p.Load(a)
				} else {
					p.Store(a)
				}
			}
		}
	}
	b.ResetTimer()
	h.run(bodies...)
	b.StopTimer()
	st := h.dom.Stats()
	if misses := st.ReadMisses + st.WriteMisses; misses != uint64(b.N) {
		b.Fatalf("%d misses, want %d", misses, b.N)
	}
	if st.GlobalBroadcasts != uint64(b.N) {
		b.Fatalf("%d global broadcasts, want one per miss (%d)", st.GlobalBroadcasts, b.N)
	}
}
