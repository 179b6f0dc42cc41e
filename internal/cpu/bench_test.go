package cpu

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// benchMem is a minimal ProcMem with fixed latencies and no recording,
// so the benchmarks measure the core's charge sites, not test plumbing.
type benchMem struct{ lat sim.Time }

func (f *benchMem) Load(p *Proc, a mem.Addr) sim.Time                 { return p.Now() + f.lat }
func (f *benchMem) Store(p *Proc, a mem.Addr, nbytes uint64) sim.Time { return p.Now() + f.lat }
func (f *benchMem) StorePFS(p *Proc, a mem.Addr, nbytes uint64) sim.Time {
	return p.Now() + f.lat
}
func (f *benchMem) Flush(p *Proc) sim.Time { return p.Now() }

// BenchmarkLedgerEnabled drives one simulated core through b.N
// Work+Load pairs, the two hottest charge sites, each charging the
// core's always-on cycle ledger: the price of full cycle attribution.
// The whole loop runs inside a single task, so no engine dispatch
// overhead lands in the measurement.
func BenchmarkLedgerEnabled(b *testing.B) {
	e := sim.NewEngine()
	p := New(0, 0, Config{Clock: sim.MHz(800)})
	m := &benchMem{lat: 5 * sim.Nanosecond}
	b.ResetTimer()
	e.Spawn("core0", 0, func(task *sim.Task) {
		p.Bind(task, m, nil)
		for i := 0; i < b.N; i++ {
			p.Work(1)
			p.Load(mem.Addr(uint64(i) * 64))
		}
		p.Finish()
	})
	e.Run()
}
