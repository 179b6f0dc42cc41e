// Benchmarks that regenerate each of the paper's tables and figures
// (small dataset scale; cmd/paperbench runs the full-size versions).
// Each benchmark reports, as custom metrics, the headline numbers the
// corresponding figure is about, so `go test -bench .` doubles as a
// quick shape check against the paper.
package memsys_test

import (
	"io"
	"testing"

	memsys "repro"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/workload"
)

func newRunner() *bench.Runner { return bench.NewRunner(workload.ScaleSmall) }

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner()
		rows, err := r.Table3(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range rows {
				if row.App == "fir" {
					b.ReportMetric(row.OffChipMBps, "fir-MB/s")
				}
				if row.App == "depth" {
					b.ReportMetric(row.InstrPerL1Miss, "depth-instr/L1miss")
				}
			}
		}
	}
}

// Segment positions in bench.Bar.Segs: the Time kind stacks useful,
// sync, load, store; the Traffic kind read, write.
const (
	segLoad  = 2
	segRead  = 0
	segWrite = 1
)

// render draws the named figure of bench.Figures on a fresh runner
// (apps nil: every app) and returns its panels by CSV name.
func render(b *testing.B, name string, apps []string) map[string]bench.Panel {
	b.Helper()
	for _, f := range bench.Figures {
		if f.Name != name {
			continue
		}
		panels, err := newRunner().Render(io.Discard, f, apps)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string]bench.Panel{}
		for _, p := range panels {
			byName[p.Name] = p
		}
		return byName
	}
	b.Fatalf("no figure %q", name)
	return nil
}

func BenchmarkFigure2(b *testing.B) {
	// The full 11-app sweep is cmd/paperbench's job; the benchmark runs
	// a representative pair: one compute-bound, one data-bound app.
	for i := 0; i < b.N; i++ {
		out := render(b, "fig2", []string{"depth", "fir"})
		if i == b.N-1 {
			bars := out["fig2-fir"].Bars
			b.ReportMetric(bars[6].Total/bars[7].Total, "fir-CC16/STR16")
			bars = out["fig2-depth"].Bars
			b.ReportMetric(bars[6].Total/bars[7].Total, "depth-CC16/STR16")
		}
	}
}

func BenchmarkFigure2AllApps(b *testing.B) {
	if testing.Short() {
		b.Skip("full 11-app sweep")
	}
	for i := 0; i < b.N; i++ {
		render(b, "fig2", nil)
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := render(b, "fig3", nil)
		if i == b.N-1 {
			fir := out["fig3-fir"].Bars
			b.ReportMetric(fir[0].Segs[segRead]/fir[1].Segs[segRead], "fir-CCread/STRread")
			bt := out["fig3-bitonicsort"].Bars
			b.ReportMetric(bt[1].Segs[segWrite]/(bt[0].Segs[segWrite]+1e-12), "bitonic-STRwrite/CCwrite")
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := render(b, "fig4", nil)
		if i == b.N-1 {
			fir := out["fig4-fir"].Bars
			b.ReportMetric(fir[1].Total/fir[0].Total, "fir-STR/CC-energy")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := render(b, "fig5", nil)
		if i == b.N-1 {
			fir := out["fig5-fir"].Bars
			// 6.4 GHz bars are the last pair: CC then STR.
			b.ReportMetric(fir[6].Total/fir[7].Total, "fir-CC/STR@6.4GHz")
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bars := render(b, "fig6", nil)["fig6-fir"].Bars
		if i == b.N-1 {
			b.ReportMetric(bars[0].Total/bars[6].Total, "fir-CC-1.6/12.8-speedup")
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := render(b, "fig7", nil)
		if i == b.N-1 {
			ms := out["fig7-mergesort"].Bars
			b.ReportMetric(ms[0].Segs[segLoad]/(ms[1].Segs[segLoad]+1e-12), "mergesort-prefetch-loadstall-cut")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := render(b, "fig8", nil)
		if i == b.N-1 {
			fir := out["fig8-fir"].Bars
			b.ReportMetric(fir[1].Segs[segRead]/(fir[0].Segs[segRead]+1e-12), "fir-PFSread/CCread")
			energy := out["fig8-fir-energy"].Bars
			b.ReportMetric(energy[1].Total/energy[0].Total, "fir-PFS/CC-energy")
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bars := render(b, "fig9", nil)["fig9-mpeg2-time"].Bars
		if i == b.N-1 {
			b.ReportMetric(bench.Speedup(bars[6], bars[7]), "mpeg2-opt-speedup@16")
		}
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bars := render(b, "fig10", nil)["fig10-art"].Bars
		if i == b.N-1 {
			// At small benchmark scale the 16-core bars are barrier-bound
			// (tiny per-core spans), so report the 2-core speedup; the
			// full-scale Figure 10 speedups live in EXPERIMENTS.md.
			b.ReportMetric(bench.Speedup(bars[0], bars[1]), "art-opt-speedup@2")
		}
	}
}

// --- Ablation benches for the design choices DESIGN.md calls out. ---

func runCfg(b *testing.B, cfg core.Config, app string) *core.Report {
	b.Helper()
	rep, err := memsys.Run(cfg, app, memsys.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkAblationNoWriteAllocate compares PFS against the full
// no-write-allocate policy with a write-gathering buffer (the paper's
// Section 5.5 footnote expects the latter to do at least as well).
func BenchmarkAblationNoWriteAllocate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := runCfg(b, memsys.DefaultConfig(memsys.CC, 4), "fir")
		pfs := runCfg(b, memsys.DefaultConfig(memsys.CC, 4), "fir-pfs")
		nwaCfg := memsys.DefaultConfig(memsys.CC, 4)
		nwaCfg.NoWriteAllocate = true
		nwa := runCfg(b, nwaCfg, "fir")
		if i == b.N-1 {
			b.ReportMetric(float64(plain.Wall)/float64(pfs.Wall), "pfs-speedup")
			b.ReportMetric(float64(plain.Wall)/float64(nwa.Wall), "nwa-speedup")
			b.ReportMetric(float64(nwa.DRAM.ReadBytes)/float64(plain.DRAM.ReadBytes), "nwa-read-ratio")
		}
	}
}

// BenchmarkAblationPrefetchDepth sweeps the prefetcher depth in the
// latency-bound regime of Figure 7 (high clock, ample bandwidth).
func BenchmarkAblationPrefetchDepth(b *testing.B) {
	mk := func(depth int) memsys.Config {
		cfg := memsys.DefaultConfig(memsys.CC, 2)
		cfg.CoreMHz = 3200
		cfg.DRAMBandwidthMBps = 12800
		cfg.PrefetchDepth = depth
		return cfg
	}
	for i := 0; i < b.N; i++ {
		base := runCfg(b, mk(0), "fir")
		for _, depth := range []int{1, 2, 4, 8, 16} {
			rep := runCfg(b, mk(depth), "fir")
			if i == b.N-1 && depth == 4 {
				b.ReportMetric(float64(base.Wall)/float64(rep.Wall), "depth4-speedup")
			}
		}
	}
}

// BenchmarkAblationChannelBandwidth compares the default channel to a
// 4x one for the bandwidth-bound filter.
func BenchmarkAblationChannelBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lo := runCfg(b, memsys.DefaultConfig(memsys.CC, 16), "fir")
		cfg := memsys.DefaultConfig(memsys.CC, 16)
		cfg.DRAMBandwidthMBps = 6400
		hi := runCfg(b, cfg, "fir")
		if i == b.N-1 {
			b.ReportMetric(float64(lo.Wall)/float64(hi.Wall), "4x-bw-speedup")
		}
	}
}

// BenchmarkAblationDMAOutstanding sweeps the DMA engine's
// outstanding-access window for a bandwidth-bound streaming workload.
func BenchmarkAblationDMAOutstanding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var walls [3]float64
		for j, window := range []int{1, 4, 16} {
			// One fast core over a fat channel isolates the engine's own
			// pipelining (at 800 MHz compute hides the serial transfer).
			cfg := memsys.DefaultConfig(memsys.STR, 1)
			cfg.CoreMHz = 6400
			cfg.DRAMBandwidthMBps = 12800
			cfg.DMAOutstanding = window
			walls[j] = float64(runCfg(b, cfg, "fir").Wall)
		}
		if i == b.N-1 {
			b.ReportMetric(walls[0]/walls[2], "16-vs-1-outstanding-speedup")
		}
	}
}

// BenchmarkAblationClusterSize compares 2, 4 and 8 cores per cluster
// bus at 16 cores.
func BenchmarkAblationClusterSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var walls [3]float64
		for j, per := range []int{2, 4, 8} {
			cfg := memsys.DefaultConfig(memsys.CC, 16)
			cfg.CoresPerCluster = per
			walls[j] = float64(runCfg(b, cfg, "mpeg2").Wall)
		}
		if i == b.N-1 {
			b.ReportMetric(walls[0]/walls[1], "clust2-vs-4")
			b.ReportMetric(walls[2]/walls[1], "clust8-vs-4")
		}
	}
}

// BenchmarkAblationL2Size sweeps the shared L2 from 128 KB to 2 MB for
// a reuse-heavy workload.
func BenchmarkAblationL2Size(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var first, last float64
		sizes := []uint64{128, 512, 2048}
		for j, kb := range sizes {
			cfg := memsys.DefaultConfig(memsys.CC, 4)
			cfg.L2SizeKB = kb
			// mpeg2-orig's frame-sized temporaries (~200 KB at default
			// scale) thrash a 128 KB L2 but fit larger ones.
			rep, err := memsys.Run(cfg, "mpeg2-orig", memsys.ScaleDefault)
			if err != nil {
				b.Fatal(err)
			}
			w := float64(rep.Wall)
			if j == 0 {
				first = w
			}
			if j == len(sizes)-1 {
				last = w
			}
		}
		if i == b.N-1 {
			b.ReportMetric(first/last, "2MB-vs-128KB-speedup")
		}
	}
}

// BenchmarkAblationIncoherent compares the coherent model against the
// incoherent cache-based model (the third practical corner of the
// paper's Table 1) on workloads whose sharing is read-only or disjoint,
// where software coherence needs no extra flushes: the delta is pure
// protocol overhead (broadcasts, snoops, upgrade latencies).
func BenchmarkAblationIncoherent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range []string{"fir", "depth"} {
			cc := runCfg(b, memsys.DefaultConfig(memsys.CC, 8), app)
			inc := runCfg(b, memsys.DefaultConfig(memsys.INC, 8), app)
			if i == b.N-1 {
				b.ReportMetric(float64(cc.Wall)/float64(inc.Wall), app+"-inc-speedup")
			}
		}
	}
}

// BenchmarkAblationSnoopFilter measures the RegionScout-style filter:
// for data-parallel workloads with little sharing, most global
// broadcasts are provably unnecessary and the filter removes them.
func BenchmarkAblationSnoopFilter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		plain := runCfg(b, memsys.DefaultConfig(memsys.CC, 16), "fir")
		cfg := memsys.DefaultConfig(memsys.CC, 16)
		cfg.SnoopFilter = true
		filt := runCfg(b, cfg, "fir")
		if i == b.N-1 {
			b.ReportMetric(float64(plain.Wall)/float64(filt.Wall), "filter-speedup")
			b.ReportMetric(float64(filt.FilteredSnoops), "filtered-broadcasts")
			b.ReportMetric(float64(plain.Net.BusControl)/float64(filt.Net.BusControl+1), "busctl-cut")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed in
// simulated instructions per host second.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var instr uint64
	for i := 0; i < b.N; i++ {
		rep := runCfg(b, memsys.DefaultConfig(memsys.CC, 16), "depth")
		instr += rep.Instructions
	}
	b.ReportMetric(float64(instr)/b.Elapsed().Seconds(), "sim-instr/s")
}
