package main

import (
	"bytes"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

// onePass runs one pass of a workload and fails the test on any job error.
func onePass(t *testing.T, s spec, seed int64, workers int, scale workload.Scale) runResult {
	t.Helper()
	r := execute(s, options{passes: 1, workers: workers, seed: seed, scale: scale})
	for _, j := range r.jobs {
		if j.err != nil {
			t.Fatalf("%s: %s: %v", s.name, j.key, j.err)
		}
	}
	return r
}

// TestDigestIndependentOfOrderAndWorkers: the seed and the worker count
// change only the order jobs run in, never what they compute.
func TestDigestIndependentOfOrderAndWorkers(t *testing.T) {
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	for _, s := range specs {
		a := passDigest(onePass(t, s, 1, workers, workload.ScaleSmall).jobs)
		b := passDigest(onePass(t, s, 2, 1, workload.ScaleSmall).jobs)
		if a != b {
			t.Errorf("%s: seed 1 with %d workers gives %s, seed 2 with 1 worker gives %s", s.name, workers, a, b)
		}
	}
}

// TestGoldenDigest checks the recorded str-sweep digest at the default
// scale, and that a tampered golden digest fails every job of the pass.
func TestGoldenDigest(t *testing.T) {
	s, _ := specNamed("str-sweep")
	r := onePass(t, s, 3, runtime.NumCPU(), workload.ScaleDefault)
	if failed, got, err := verify(r, s.golden); failed != 0 || err != nil {
		t.Fatalf("golden digest: %d failed, got %s: %v", failed, got, err)
	}
	tampered := []byte(s.golden)
	tampered[0] ^= 1
	if failed, _, err := verify(r, string(tampered)); failed != len(s.jobs) || err == nil {
		t.Errorf("tampered golden digest: %d of %d jobs failed, err %v", failed, len(s.jobs), err)
	}
	r.jobs[0].hash = "moved"
	if failed, _, _ := verify(r, s.golden); failed != len(s.jobs) {
		t.Errorf("a moved report hash failed %d of %d jobs", failed, len(s.jobs))
	}
}

// TestTracedRun runs the traced pair on every workload at the small
// scale: every per-layer metric is printed and the shares sum to 1.
func TestTracedRun(t *testing.T) {
	for _, s := range specs {
		o := options{passes: 1, workers: runtime.NumCPU(), seed: 1, scale: workload.ScaleSmall}
		u, tr, lt, err := tracedPair(s, o)
		if err != nil {
			t.Fatal(err)
		}
		m := perLayer(u, tr, lt)
		sum := 0.0
		for _, l := range layers {
			sum += m[l+".share"]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", s.name, sum)
		}
		checkPrinted(t, "per_layer", m)
		if len(lt.spans.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", s.name)
		}
		if s.observed && m["txntrace.trees"] == 0 {
			t.Errorf("%s: no exported transaction trees", s.name)
		}
	}
}

func TestEndToEndMetricsNamed(t *testing.T) {
	s, _ := specNamed("str-sweep")
	o := options{passes: 1, workers: runtime.NumCPU(), seed: 1, scale: workload.ScaleSmall}
	setup, err := setupTime(s, o)
	if err != nil {
		t.Fatal(err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m := endToEnd(onePass(t, s, 1, o.workers, o.scale), setup, rss, &out)
	checkPrinted(t, "end_to_end", m)
	for k, v := range m {
		if !(v > 0) {
			t.Errorf("%s = %v, want > 0", k, v)
		}
	}
}

// checkPrinted holds a measured metric set equal to the tier's names.
func checkPrinted(t *testing.T, tier string, m map[string]float64) {
	t.Helper()
	if len(m) != len(defs[tier]) {
		t.Errorf("%s: measured %d metrics, defined %d", tier, len(m), len(defs[tier]))
	}
	for _, d := range defs[tier] {
		if _, ok := m[d.name]; !ok {
			t.Errorf("%s: %s not measured", tier, d.name)
		}
	}
}

func TestBenchmarkJSONNamesPrintedMetrics(t *testing.T) {
	if err := checkNames("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

func TestLayerOf(t *testing.T) {
	f := func(names ...string) []frame {
		var st []frame
		for _, n := range names {
			file := "/src/x.go"
			if strings.HasPrefix(n, "repro/internal/sim.(*Server)") {
				file = "/src/repro/internal/sim/server.go"
			}
			st = append(st, frame{n, file})
		}
		return st
	}
	cases := []struct {
		stack []frame
		want  string
	}{
		{f("repro/internal/sim.(*Server).Acquire", "repro/internal/noc.(*Network).xfer"), "sim.server"},
		{f("repro/internal/sim.(*Task).Sync", "repro/internal/cpu.(*Proc).Load"), "sim.dispatch"},
		{f("repro/internal/cache.(*Cache).Lookup"), "cache"},
		{f("repro/internal/lstore.(*Store).Read"), "stream"},
		{f("sort.partition_func", "sort.Slice", "repro/internal/workload.(*merge).Verify"), "workload"},
		{f("runtime.mallocgc", "runtime.growslice", "repro/internal/txntrace.(*Txn).addHop"), "runtime.other"},
		{f("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"), "runtime.gc"},
		{f("runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/cache.New"), "runtime.gc"},
		{f("runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"), "runtime.sched"},
		{f("runtime.memmove", "runtime.chansend", "repro/internal/sim.(*Task).Sync"), "runtime.sched"},
		{f("crypto/sha256.block", "main.reportHash"), "other"},
		{f("repro/internal/core.(*System).report"), "other"},
		{f("repro/internal/x.f[go.shape.*repro/internal/cache.T]"), "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFoldProfile decodes a real CPU profile of this process: every
// sampled nanosecond lands in exactly one layer.
func TestFoldProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profile in use:", err)
	}
	x := 0.0
	for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	byLayer := map[string]int64{}
	if err := fold(prof.Bytes(), byLayer); err != nil {
		t.Fatal(err)
	}
	var total int64
	for l, ns := range byLayer {
		if !slices.Contains(layers, l) {
			t.Errorf("fold produced unknown layer %q", l)
		}
		total += ns
	}
	if total == 0 || x == 0 {
		t.Fatalf("no CPU time sampled")
	}
	if byLayer["other"] == 0 {
		t.Errorf("the test's own loop was not folded into other: %v", byLayer)
	}
}

func TestQuantiles(t *testing.T) {
	var lat []time.Duration
	for i := 1; i <= 40; i++ {
		lat = append(lat, time.Duration(1000*i))
	}
	near := func(got time.Duration, want float64) bool { return math.Abs(float64(got)-want) < 10 }
	if got := quantile(lat, 0.5); !near(got, 20500) {
		t.Errorf("median of 1..40 µs = %v, want 20.5µs", got)
	}
	// On 1..n the estimate is n·q + ½.
	if v, p := tailOf(lat); !near(v, 30500) || p != 75 {
		t.Errorf("tailOf(1..40 µs) = %v at p%v, want 30.5µs at p75", v, p)
	}
	if v, p := tailOf(lat[:5]); v != lat[4] || p != 100 {
		t.Errorf("tailOf(1..5 µs) = %v at p%v, want the maximum", v, p)
	}
}
