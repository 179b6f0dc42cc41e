// Command simbench is the repository's benchmark. It runs one named
// workload of simulations as a closed loop of nproc workers, checks every
// simulated result against a golden digest, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	bash simbench/run.sh --workload cc-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// each pass of the job list untraced and again under a CPU profile, and
// prints the per-layer metrics. The README beside this file explains the workloads
// and metrics.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cc-sweep, str-sweep or observed-campaign")
	seed := fs.Int64("seed", 1, "permutes the job order of each pass")
	seconds := fs.Int("seconds", 30, "host seconds the job list is sized to")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := specNamed(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "simbench: need --workload (cc-sweep, str-sweep, observed-campaign), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if err := checkNames("BENCHMARK.json"); err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 2
	}
	o := options{passes: s.passes(*seconds), workers: runtime.NumCPU(), seed: *seed, scale: workload.ScaleDefault}
	fmt.Fprintf(stdout, "# simbench %s seed=%d passes=%d jobs/pass=%d workers=%d\n",
		s.name, o.seed, o.passes, len(s.jobs), o.workers)

	var runs []runResult
	var metrics map[string]float64
	if *trace == 0 {
		r := execute(s, o)
		rss, err := peakRSSMB() // before the set-up phase adds its own garbage
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		setup, err := setupTime(s, o)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		runs = []runResult{r}
		metrics = endToEnd(r, setup, rss, stdout)
	} else {
		untraced, traced, lt, err := tracedPair(s, o)
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
			return 1
		}
		runs = []runResult{untraced, traced}
		metrics = perLayer(untraced, traced, lt)
		path := filepath.Join(".bench_build", "simbench", fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed))
		if err := lt.spans.write(path); err != nil {
			fmt.Fprintf(stderr, "simbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans of the traced run: %s\n", path)
	}

	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += len(r.jobs)
		f, digest, err := verify(r, s.golden)
		failed += f
		if err != nil {
			fmt.Fprintf(stderr, "simbench: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "# digest %s matches\n", digest)
		}
	}
	tier := "end_to_end"
	if *trace == 1 {
		tier = "per_layer"
	}
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs[tier] {
		v, ok := metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "simbench: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	if len(metrics) != len(defs[tier]) {
		fmt.Fprintf(stderr, "simbench: measured %d %s metrics, BENCHMARK.json names %d\n", len(metrics), tier, len(defs[tier]))
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err) // a NaN or infinite metric
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if failed > 0 {
		return 1
	}
	return 0
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verify digests each pass — the sorted (job key, report hash) pairs —
// and compares it with the golden digest. A job that errs fails; a pass
// whose digest differs fails all of its jobs, since one digest cannot
// say which report moved.
func verify(r runResult, golden string) (failed int, digest string, err error) {
	byPass := map[int][]jobResult{}
	for _, j := range r.jobs {
		byPass[j.pass] = append(byPass[j.pass], j)
	}
	passes := make([]int, 0, len(byPass))
	for p := range byPass {
		passes = append(passes, p)
	}
	sort.Ints(passes)
	var errs []error
	for _, p := range passes {
		jobs := byPass[p]
		for _, j := range jobs {
			if j.err != nil {
				errs = append(errs, fmt.Errorf("pass %d: %s: %w", p, j.key, j.err))
			}
		}
		d := passDigest(jobs)
		if d != golden {
			failed += len(jobs)
			errs = append(errs, fmt.Errorf("pass %d: digest %s, golden %s", p, d, golden))
		}
		digest = d
	}
	return failed, digest, errors.Join(errs...)
}

func passDigest(jobs []jobResult) string {
	lines := make([]string, len(jobs))
	for i, j := range jobs {
		lines[i] = j.key + " " + j.hash + "\n"
	}
	sort.Strings(lines)
	h := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(h[:])
}

// endToEnd derives the metrics a user of the simulator sees from a run
// of the job list, the peak RSS it reached and the set-up time.
func endToEnd(r runResult, setup time.Duration, rssMB float64, stdout io.Writer) map[string]float64 {
	var lat []time.Duration
	var instr uint64
	for _, j := range r.jobs {
		lat = append(lat, j.latency)
		instr += j.instr
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	tail, pct := tailOf(lat)
	fmt.Fprintf(stdout, "# job_tail_ms is p%.1f of %d jobs\n", pct, len(lat))
	return map[string]float64{
		"wall_s":      r.wall.Seconds(),
		"sim_mips":    float64(instr) / 1e6 / r.wall.Seconds(),
		"job_p50_ms":  ms(quantile(lat, 0.5)),
		"job_tail_ms": ms(tail),
		"setup_s":     setup.Seconds(),
		"peak_rss_mb": rssMB,
	}
}

// tailOf returns the highest percentile of sorted latencies that has at
// least ten samples beyond it, and that percentile. Fewer than eleven
// samples give the maximum.
func tailOf(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n < 11 {
		return sorted[n-1], 100
	}
	q := float64(n-10) / float64(n)
	return quantile(sorted, q), 100 * q
}

// quantile is the Harrell–Davis estimate of quantile q of sorted: a mean
// of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
// distribution. A job list mixes jobs whose lengths differ threefold, and
// any single order statistic jumps between job types from run to run;
// the weighted mean does not.
func quantile(sorted []time.Duration, q float64) time.Duration {
	n := float64(len(sorted))
	a, b := q*(n+1), (1-q)*(n+1)
	// Each weight is the Beta mass of [i/n, (i+1)/n], by the midpoint rule.
	const steps = 64
	w := make([]float64, len(sorted))
	var total float64
	for i := range w {
		for k := 0; k < steps; k++ {
			x := (float64(i) + (float64(k)+0.5)/steps) / n
			w[i] += math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x))
		}
		total += w[i]
	}
	var est float64
	for i, d := range sorted {
		est += w[i] / total * float64(d)
	}
	return time.Duration(est)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// layerTrace is what the traced run collected.
type layerTrace struct {
	cpuNS    map[string]int64 // sampled CPU time by layer
	allocMB  float64
	gcCycles uint32
	spans    *spanLog
}

// tracedPair runs each pass of the job list untraced and traced, one
// after the other, with the order alternating from pass to pass, so the
// host's drift over the run weighs on both sides alike. Only the traced
// passes run under the CPU profile and collect spans and MemStats deltas.
func tracedPair(s spec, o options) (untraced, traced runResult, lt layerTrace, err error) {
	lt = layerTrace{cpuNS: map[string]int64{}, spans: &spanLog{origin: time.Now()}}
	for p := o.first; p < o.first+o.passes; p++ {
		po := o
		po.first, po.passes = p, 1
		tracedFirst := (o.seed+int64(p))%2 == 0
		for _, tracing := range []bool{tracedFirst, !tracedFirst} {
			if !tracing {
				untraced.add(execute(s, po))
				continue
			}
			po.spans = lt.spans
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var prof bytes.Buffer
			if err = pprof.StartCPUProfile(&prof); err != nil {
				return
			}
			traced.add(execute(s, po))
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&m1)
			lt.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
			lt.gcCycles += m1.NumGC - m0.NumGC
			if err = fold(prof.Bytes(), lt.cpuNS); err != nil {
				return
			}
			po.spans = nil
		}
	}
	return
}

// perLayer derives the per-layer metrics from the traced run.
func perLayer(untraced, traced runResult, lt layerTrace) map[string]float64 {
	var total int64
	for _, ns := range lt.cpuNS {
		total += ns
	}
	m := map[string]float64{}
	share := func(l string) float64 { return ratio(float64(lt.cpuNS[l]), float64(total)) }
	for _, l := range layers {
		m[l+".share"] = share(l)
	}
	// perUnit is a layer's sampled CPU time per unit of its work.
	perUnit := func(l string, n uint64) float64 { return ratio(float64(lt.cpuNS[l]), float64(n)) }

	var c counts
	var newWL, coreNew, setup, run, verify, queue time.Duration
	for _, j := range traced.jobs {
		c.add(j.counts)
		newWL += j.newWL
		coreNew += j.coreNew
		setup += j.setup
		run += j.run
		verify += j.verify
		queue += j.queueWait
	}
	n := float64(len(traced.jobs))
	m["sim.dispatch.ns_per_event"] = perUnit("sim.dispatch", c.events())
	m["sim.events"] = float64(c.events())
	m["sim.handoffs"] = float64(c.handoffs)
	m["sim.inline_steps"] = float64(c.inline)
	m["sim.fastpath_rate"] = ratio(float64(c.syncFast), float64(c.syncFast+c.syncSlow))
	m["sim.server.ns_per_xfer"] = perUnit("sim.server", c.xbar+c.l2Req+c.dramAcc)
	m["sim.server_pruned"] = float64(c.pruned)
	m["cpu.ns_per_kinstr"] = 1000 * perUnit("cpu", c.instr)
	m["cpu.instructions"] = float64(c.instr)
	m["cache.ns_per_access"] = perUnit("cache", c.l1Acc)
	m["cache.l1_accesses"] = float64(c.l1Acc)
	m["cache.l1_hit_ratio"] = ratio(float64(c.l1Hits), float64(c.l1Acc))
	m["cache.snoop_lookups"] = float64(c.snoops)
	m["coher.ns_per_miss"] = perUnit("coher", c.misses)
	m["coher.misses"] = float64(c.misses)
	m["coher.c2c"] = float64(c.c2c)
	m["noc.xbar_msgs"] = float64(c.xbar)
	m["uncore.l2_requests"] = float64(c.l2Req)
	m["uncore.l2_hit_ratio"] = ratio(float64(c.l2Hits), float64(c.l2Acc))
	m["dram.ns_per_access"] = perUnit("dram", c.dramAcc)
	m["dram.accesses"] = float64(c.dramAcc)
	m["dram.row_hit_ratio"] = ratio(float64(c.rowHits), float64(c.rowHits+c.rowMisses))
	m["dma.ns_per_beat"] = perUnit("dma", c.dmaBeats)
	m["dma.commands"] = float64(c.dmaCmds)
	m["dma.beats"] = float64(c.dmaBeats)
	m["txntrace.trees"] = float64(c.trees)
	var export time.Duration
	for _, d := range traced.exports {
		export += d
	}
	m["txntrace.export_ms"] = ratio(ms(export), float64(len(traced.exports)))
	m["bench.queue_wait_ms"] = ms(queue) / n
	m["workload.new_ms"] = ms(newWL) / n
	m["workload.setup_ms"] = ms(setup) / n
	m["core.new_ms"] = ms(coreNew) / n
	m["core.run_ms"] = ms(run) / n
	m["workload.verify_ms"] = ms(verify) / n
	m["runtime.alloc_mb"] = lt.allocMB
	m["runtime.gc_cycles"] = float64(lt.gcCycles)
	m["trace_overhead"] = traced.wall.Seconds() / untraced.wall.Seconds()
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
