package dma

import (
	"testing"

	"repro/internal/lstore"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/uncore"
)

// BenchmarkDMABeat measures the host cost of one streaming DMA beat: a
// lone engine, its core blocked on Wait, streams 256-line Gets of the
// same 8 KB through a real uncore and NoC, so after the first command
// every beat is an L2 hit. Each op is one beat: the engine step, the
// crossbar request and response, the L2 port booking and tag access,
// and the cluster bus transfer. bench-check pins it against the same-run
// BenchmarkChanSwitchFloor.
func BenchmarkDMABeat(b *testing.B) {
	const lines = 256
	eng := sim.NewEngine()
	net := noc.New(noc.DefaultConfig(4))
	unc := uncore.New(uncore.DefaultConfig(), net)
	unc.SetHorizon(eng) // prune the calendars behind the engine clock, as core.New does
	e := New("dma0", 0, unc, lstore.New(0))
	e.Spawn(eng, 0)
	eng.Spawn("core", 0, func(t *sim.Task) {
		for n := 0; n < b.N; n += lines {
			e.Wait(t, e.Queue(t.Time(), Get, 1<<20, lines*mem.LineSize))
		}
		e.Stop()
	})
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if beats := e.Stats().Beats; beats < uint64(b.N) {
		b.Fatalf("streamed %d beats, want at least %d", beats, b.N)
	}
}
