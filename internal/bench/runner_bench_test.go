package bench

import (
	"runtime"
	"testing"

	"repro/internal/workload"
)

// runnerGrid is the fixed job grid the throughput benchmarks run:
// Figure 2's fir panel, the baseline then both models across the
// core-count sweep for one bandwidth-bound app.
func runnerGrid() []Job { return figure("fig2").Panels([]string{"fir"})[0].Jobs() }

// benchRunnerThroughput simulates the whole grid on a fresh runner per
// iteration (no memoization between iterations).
func benchRunnerThroughput(b *testing.B, workers int) {
	grid := runnerGrid()
	b.ReportMetric(float64(len(grid)), "sims/op")
	for i := 0; i < b.N; i++ {
		r := NewRunner(workload.ScaleSmall)
		r.Workers = workers
		r.Prefetch(grid)
		for _, j := range grid {
			if _, err := r.Run(j.Cfg, j.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunnerJ1 is the sequential baseline; BenchmarkRunnerJN uses
// one worker per available CPU. Their ratio is the parallel speedup of
// the experiment runner on this machine (1.0 on a single-CPU host).
func BenchmarkRunnerJ1(b *testing.B) { benchRunnerThroughput(b, 1) }

func BenchmarkRunnerJN(b *testing.B) { benchRunnerThroughput(b, runtime.GOMAXPROCS(0)) }

// BenchmarkRunnerMemoized measures the pure collection path: every key
// already simulated, so Run only consults the memo table.
func BenchmarkRunnerMemoized(b *testing.B) {
	r := NewRunner(workload.ScaleSmall)
	grid := runnerGrid()
	for _, j := range grid {
		if _, err := r.Run(j.Cfg, j.Name); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range grid {
			if _, err := r.Run(j.Cfg, j.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
