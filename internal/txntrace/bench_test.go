package txntrace

import (
	"testing"

	"repro/internal/sim"
)

// traceOneMiss is the charge-site shape of one CC read miss: a root
// Begin, two NoC transfers and an L2 hop, one nested fill, and the End
// that finalizes attribution and records the latency histograms. The benchmarks drive this exact
// sequence so the measured cost is the per-transaction price the model
// pays, not a synthetic single hook.
func traceOneMiss(t *Tracer, i int) {
	at := sim.Time(i) * 1000
	t.Begin(ReadMiss, i&7, uint64(i)*64, at)
	t.Transfer(busControl, at, at+10, 0)
	t.Begin(L2Hit, i&7, uint64(i)*64, at+10)
	t.Hop(l2Access, at+10, at+20)
	t.End(at + 20)
	t.Transfer(busData, at+20, at+30, 5000)
	t.End(at + 30)
}

// BenchmarkTxnTraceDisabled is the disabled-cost gate: the full miss
// hook sequence against a nil Tracer, i.e. what every transaction pays
// when tracing is off. bench-check pins it against the same-run
// BenchmarkDispatchInline control, so the nil compares must stay well
// under the cost of a single inline dispatch.
func BenchmarkTxnTraceDisabled(b *testing.B) {
	var t *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// BenchmarkTxnTraceEnabled is the same sequence with exemplar capture
// armed (the always-on mode every -txn-trace/-explain-tail run pays for
// every transaction, not just retained ones). Once the reservoirs hold
// their K trees, no transaction is copied out of the log: 0 allocs/op.
func BenchmarkTxnTraceEnabled(b *testing.B) {
	t := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// BenchmarkTxnTraceLatencyOnly is the same sequence on a tracer that
// can keep no tree (no exemplars, no sampling): the tracer the cycle
// ledger arms for its latency histograms. It must not build trees, so
// bench-check bounds it against the same-run BenchmarkTxnTraceEnabled.
func BenchmarkTxnTraceLatencyOnly(b *testing.B) {
	t := &Tracer{K: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// BenchmarkTxnTraceSampled adds 1-in-64 sampled full-tree capture with
// a bounded retention cap, the configuration the determinism tests and
// CI runs use.
func BenchmarkTxnTraceSampled(b *testing.B) {
	t := New()
	t.SampleEvery = 64
	t.KeptCap = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceOneMiss(t, i)
	}
}

// TestTraceOneMissAllocs pins armed capture at zero allocations per
// transaction once warm: the exemplar-only tracer, and a sampling
// tracer whose retention cap has filled (so sampled trees are counted,
// not kept). Every transaction the warm tracer opens writes into the
// record log's backing array, and no tag is formatted. A third case
// makes every miss slower than the last, so each one evicts a reservoir
// tree and is copied into the evicted tree's storage.
func TestTraceOneMissAllocs(t *testing.T) {
	sampled := New()
	sampled.SampleEvery = 4
	sampled.KeptCap = 8
	slower := func(t *Tracer, i int) {
		at := sim.Time(i) * 1000
		t.Begin(ReadMiss, 0, 0, at)
		t.Hop(l1Lookup, at, at+1)
		t.End(at + sim.Time(i))
	}
	for _, c := range []struct {
		name string
		tr   *Tracer
		miss func(*Tracer, int)
	}{
		{"exemplars", New(), traceOneMiss},
		{"sampled_past_cap", sampled, traceOneMiss},
		{"reservoir_churn", New(), slower},
	} {
		i := 0
		for ; i < 4096; i++ {
			c.miss(c.tr, i)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			c.miss(c.tr, i)
			i++
		}); avg != 0 {
			t.Errorf("%s: %.2f allocs per warm miss, want 0", c.name, avg)
		}
	}
	if sampled.DroppedSampled() == 0 {
		t.Fatal("sampled_past_cap: warm-up never filled the retention cap")
	}
}
