package coher

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/txntrace"
)

// TestTracedMissAllocs: once the tracer's record log is warm, a
// traced CC miss allocates nothing, whether a peer cache or the L2
// supplies the line. The MESI outcome tags are registered sites, not
// strings built per miss.
func TestTracedMissAllocs(t *testing.T) {
	h := newHarness(2, DefaultConfig()) // one cluster
	tr := txntrace.New()
	tr.SampleEvery = 1
	tr.KeptCap = 1
	unc := h.dom.Uncore()
	unc.SetTxnTrace(tr)
	unc.Network().SetTxnTrace(tr)
	for i := range h.procs {
		h.dom.Mem(i).SetTxnTrace(tr)
	}
	const line = mem.Addr(0x4000)
	var at sim.Time
	// c2c: core 0 takes the line from core 1 for a write (S->M or
	// E->M), then core 1 reads it back from core 0 (M->S).
	c2c := func() {
		at += sim.Microsecond
		h.dom.invalidate(0, line)
		h.dom.Mem(0).Miss(txntrace.WriteMiss, at, line)
		h.dom.Mem(1).Miss(txntrace.ReadMiss, at+sim.Microsecond/2, line)
	}
	// l2: core 0 alone misses; the L2 supplies the line (I->E).
	l2 := func() {
		at += sim.Microsecond
		h.dom.invalidate(0, line)
		h.dom.invalidate(1, line)
		h.dom.Mem(0).Miss(txntrace.ReadMiss, at, line)
	}
	h.dom.Mem(1).Miss(txntrace.ReadMiss, at, line)
	for i := 0; i < 16; i++ {
		c2c()
		l2()
	}
	before := h.dom.Stats()
	if got := testing.AllocsPerRun(100, c2c); got != 0 {
		t.Errorf("cache-to-cache traced misses: %v allocs per run, want 0", got)
	}
	if got := testing.AllocsPerRun(100, l2); got != 0 {
		t.Errorf("L2 traced miss: %v allocs per run, want 0", got)
	}
	st := h.dom.Stats()
	if st.C2CCluster-before.C2CCluster < 100 || st.ReadMisses-before.ReadMisses < 200 {
		t.Errorf("runs took the wrong paths: %d c2c transfers, %d read misses", st.C2CCluster-before.C2CCluster, st.ReadMisses-before.ReadMisses)
	}
}
