package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dma"
	"repro/internal/lstore"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// dmaRun is everything a DMA-heavy schedule makes observable.
type dmaRun struct {
	waits   []sim.Time // every Wait's completion time, per core in order
	metrics sim.Metrics
	flight  []sim.FlightEvent
	stats   string // DMA, uncore, DRAM and NoC counters
	trees   []byte // every command's transaction tree, beat hops included
}

// dmaSchedule runs 8 cores in two clusters, each driving its own DMA
// engine with a random mix of sequential, strided and indexed gets and
// puts, some waited on at once and some left in flight across compute.
// noSpin forces every beat back through the dispatcher.
func dmaSchedule(seed int64, noSpin bool) dmaRun {
	const cores = 8
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine()
	if noSpin {
		sim.DisableSpin(eng)
	}
	eng.SetFlightRecorder(1 << 16)
	net := noc.New(noc.DefaultConfig(cores))
	unc := uncore.New(uncore.DefaultConfig(), net)
	unc.SetHorizon(eng)
	tr := txntrace.New()
	tr.SampleEvery = 1
	net.SetTxnTrace(tr)
	unc.SetTxnTrace(tr)
	var run dmaRun
	engines := make([]*dma.Engine, cores)
	for c := 0; c < cores; c++ {
		e := dma.New(fmt.Sprintf("dma%d", c), net.ClusterOf(c), unc, lstore.New(0))
		e.SetTxnTrace(tr, c)
		e.Spawn(eng, 0)
		engines[c] = e
		ops := make([]int, 6+rng.Intn(6))
		for i := range ops {
			ops[i] = rng.Intn(1 << 20)
		}
		e.Queue(0, dma.Get, 0, 32) // keep every engine's first command at time 0
		eng.Spawn(fmt.Sprintf("core%d", c), 0, func(tk *sim.Task) {
			base := mem.Addr(c) << 16
			var tags []dma.Tag
			for _, op := range ops {
				dir := dma.Dir(op & 1)
				a := base + mem.Addr(op>>4&0x3ff)*4
				switch op >> 1 & 3 {
				case 0, 1:
					tags = append(tags, e.Queue(tk.Time(), dir, a, uint64(64+op>>14&0x3f*32)))
				case 2:
					tags = append(tags, e.QueueStrided(tk.Time(), dir, a, 4+uint64(op>>12&1)*60, 128, 8+uint64(op>>13&7)))
				case 3:
					idx := make([]mem.Addr, 4+op>>15&7)
					for i := range idx {
						idx[i] = base + mem.Addr((op*(i+7))&0xfff)*8
					}
					tags = append(tags, e.QueueIndexed(tk.Time(), dir, idx, 8))
				}
				tk.Advance(sim.Time(op>>8&0xff) * sim.Nanosecond)
				tk.Sync()
				if op>>3&1 == 0 {
					for _, tag := range tags {
						run.waits = append(run.waits, e.Wait(tk, tag))
					}
					tags = tags[:0]
				}
			}
			for _, tag := range tags {
				run.waits = append(run.waits, e.Wait(tk, tag))
			}
			e.Stop()
		})
	}
	eng.Run()
	run.metrics = eng.Metrics()
	run.flight = sim.FlightLog(eng)
	var st dma.Stats
	for _, e := range engines {
		st.Add(e.Stats())
	}
	run.stats = fmt.Sprintf("%+v %+v %+v %+v", st, unc.Stats(), unc.DRAMStats(), net.Stats())
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		panic(err)
	}
	run.trees = buf.Bytes()
	return run
}

// TestDMASpinEquivalence: a DMA engine whose Step continues into its
// next beat through Task.Spin gives the same schedule as one that
// returns to the dispatcher after every beat: the same flight record
// (every beat's step time), the same transaction trees (every beat's
// uncore, NoC and DRAM hops with their completion times), the same
// command completions and the same engine, DMA, uncore, DRAM and NoC
// counters.
func TestDMASpinEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		on, off := dmaSchedule(seed, false), dmaSchedule(seed, true)
		if on.metrics.InlineSteps < 1000 {
			t.Fatalf("seed %d: only %d inline steps; the schedule is not DMA-heavy", seed, on.metrics.InlineSteps)
		}
		if fmt.Sprint(on.waits) != fmt.Sprint(off.waits) {
			t.Fatalf("seed %d: command completions differ:\non  %v\noff %v", seed, on.waits, off.waits)
		}
		if on.metrics != off.metrics {
			t.Fatalf("seed %d: engine metrics differ:\non  %+v\noff %+v", seed, on.metrics, off.metrics)
		}
		if fmt.Sprint(on.flight) != fmt.Sprint(off.flight) {
			t.Fatalf("seed %d: flight records differ", seed)
		}
		if on.stats != off.stats {
			t.Fatalf("seed %d: counters differ:\non  %s\noff %s", seed, on.stats, off.stats)
		}
		if !bytes.Equal(on.trees, off.trees) {
			t.Fatalf("seed %d: transaction trees differ", seed)
		}
	}
}
