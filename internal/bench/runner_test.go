package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txntrace"
	"repro/internal/workload"
)

// TestCfgKeyNoCollisions is the regression test for the old string key,
// which packed DMAOutstanding+L2Banks*100+DRAMChannels*10000 into one
// integer (so e.g. DMAOutstanding=100 collided with L2Banks=1) and
// omitted fields like StoreBuffer entirely. The struct key must separate
// every pair of configs that differ in any field.
func TestCfgKeyNoCollisions(t *testing.T) {
	base := core.DefaultConfig(core.CC, 4)
	mutate := []struct {
		name string
		fn   func(*core.Config)
	}{
		{"Model", func(c *core.Config) { c.Model = core.STR }},
		{"Cores", func(c *core.Config) { c.Cores = 8 }},
		{"CoreMHz", func(c *core.Config) { c.CoreMHz = 3200 }},
		{"DRAMBandwidthMBps", func(c *core.Config) { c.DRAMBandwidthMBps = 12800 }},
		{"PrefetchDepth", func(c *core.Config) { c.PrefetchDepth = 4 }},
		{"NoWriteAllocate", func(c *core.Config) { c.NoWriteAllocate = true }},
		{"SnoopFilter", func(c *core.Config) { c.SnoopFilter = true }},
		{"InstrPerIMiss", func(c *core.Config) { c.InstrPerIMiss = 100 }},
		{"IMissPenalty", func(c *core.Config) { c.IMissPenalty = 40 * sim.Nanosecond }},
		{"MaxSimTime", func(c *core.Config) { c.MaxSimTime = sim.Second }},
		{"L2SizeKB", func(c *core.Config) { c.L2SizeKB = 1024 }},
		{"L2Banks", func(c *core.Config) { c.L2Banks = 2 }},
		{"DRAMChannels", func(c *core.Config) { c.DRAMChannels = 2 }},
		{"CoresPerCluster", func(c *core.Config) { c.CoresPerCluster = 2 }},
		{"DMAOutstanding", func(c *core.Config) { c.DMAOutstanding = 4 }},
		{"StoreBuffer", func(c *core.Config) { c.StoreBuffer = 1 }},
	}
	for _, m := range mutate {
		cfg := base
		m.fn(&cfg)
		if keyOf(cfg, "fir") == keyOf(base, "fir") {
			t.Errorf("configs differing in %s share a key", m.name)
		}
	}
	// The historical packed-int collisions specifically.
	a, b := base, base
	a.DMAOutstanding = 100
	b.L2Banks = 1
	if keyOf(a, "fir") == keyOf(b, "fir") {
		t.Error("DMAOutstanding=100 and L2Banks=1 share a key (the old packed-int bug)")
	}
	a, b = base, base
	a.L2Banks = 100
	b.DRAMChannels = 1
	if keyOf(a, "fir") == keyOf(b, "fir") {
		t.Error("L2Banks=100 and DRAMChannels=1 share a key (the old packed-int bug)")
	}
	if keyOf(base, "fir") == keyOf(base, "art") {
		t.Error("different workloads share a key")
	}
	// The tracer is a run-scoped observer, not machine identity: it must
	// not defeat memoization.
	c := base
	c.Trace = trace.New()
	if keyOf(c, "fir") != keyOf(base, "fir") {
		t.Error("Trace field leaked into the memo key")
	}
	c = base
	c.TxnTrace = txntrace.New()
	if keyOf(c, "fir") != keyOf(base, "fir") {
		t.Error("TxnTrace field leaked into the memo key")
	}
}

// figureGrid renders the Figure 2 grid for two apps with the given
// worker count, returning the exact bytes written. With txnK > 0 every
// fresh simulation is traced with worst-K exemplars, and the second
// return holds the merged transaction artifacts in deterministic run
// order: each run's tree JSONL plus its Chrome-trace merge (spans and
// flow events), so any -j-dependent divergence in either sink fails the
// byte compare.
func figureGrid(t *testing.T, workers, txnK int) (fig, txn []byte) {
	t.Helper()
	r := NewRunner(workload.ScaleSmall)
	r.Workers = workers
	var mu sync.Mutex
	var recs []Record
	if txnK > 0 {
		r.TxnExemplars = txnK
		r.OnRecord = func(rec Record) {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		}
	}
	var out bytes.Buffer
	if _, err := r.Render(&out, figure("fig2"), []string{"fir", "depth"}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if txnK == 0 {
		return out.Bytes(), nil
	}
	type keyed struct {
		key string
		rec Record
	}
	ks := make([]keyed, 0, len(recs))
	for _, rec := range recs {
		cj, err := json.Marshal(rec.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, keyed{rec.Name + "\x00" + string(cj), rec})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	var tb bytes.Buffer
	tc := trace.New()
	for _, k := range ks {
		fmt.Fprintf(&tb, "## %s\n", k.key)
		if k.rec.Txn == nil {
			t.Fatalf("record %s carries no tracer", k.rec.Name)
		}
		if err := k.rec.Txn.WriteJSONL(&tb); err != nil {
			t.Fatal(err)
		}
		k.rec.Txn.MergeChrome(tc)
	}
	if err := tc.WriteChrome(&tb); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), tb.Bytes()
}

// TestParallelDeterminism runs the same figure grid at -j 1 and -j 8 and
// requires byte-identical reports. Every simulation is a deterministic
// isolated engine, so any divergence here is a data race in the runner.
// The traced pass repeats the comparison with per-run transaction
// tracing armed: the figure bytes must not move (tracing is
// zero-perturbation even across a concurrent campaign) and the merged
// transaction artifacts — tree JSONL plus the Chrome trace with its
// flow events — must be stable across -j too.
func TestParallelDeterminism(t *testing.T) {
	seq, _ := figureGrid(t, 1, 0)
	par, _ := figureGrid(t, 8, 0)
	if !bytes.Equal(seq, par) {
		t.Fatalf("figure output differs between -j 1 (%d bytes) and -j 8 (%d bytes)", len(seq), len(par))
	}
	seqT, seqTxn := figureGrid(t, 1, 4)
	parT, parTxn := figureGrid(t, 8, 4)
	if !bytes.Equal(seqT, seq) {
		t.Fatal("arming the transaction tracer changed the figure output")
	}
	if !bytes.Equal(seqT, parT) {
		t.Fatal("traced figure output differs between -j 1 and -j 8")
	}
	if len(seqTxn) == 0 {
		t.Fatal("traced grid produced no transaction artifacts")
	}
	if !bytes.Equal(seqTxn, parTxn) {
		t.Fatalf("transaction artifacts differ between -j 1 (%d bytes) and -j 8 (%d bytes)", len(seqTxn), len(parTxn))
	}
}

// TestPrefetchSingleflight checks that concurrent requests for one key
// simulate once: Prefetch plus many concurrent Runs must return the same
// report pointer.
func TestPrefetchSingleflight(t *testing.T) {
	r := NewRunner(workload.ScaleSmall)
	r.Workers = 4
	cfg := core.DefaultConfig(core.CC, 2)
	r.Prefetch([]Job{{cfg, "fir"}, {cfg, "fir"}})
	const callers = 8
	reps := make([]*core.Report, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := r.Run(cfg, "fir")
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if reps[i] != reps[0] {
			t.Fatal("concurrent Runs returned different reports for one key")
		}
	}
	r.mu.Lock()
	scheduled := r.scheduled
	r.mu.Unlock()
	if scheduled != 1 {
		t.Fatalf("scheduled %d simulations for one key, want 1", scheduled)
	}
}

// TestProgressCollector checks that progress lines are serialized through
// the collector with a completed-count prefix.
func TestProgressCollector(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(workload.ScaleSmall)
	r.Workers = 4
	r.Progress = &buf
	r.Prefetch([]Job{
		{core.DefaultConfig(core.CC, 1), "fir"},
		{core.DefaultConfig(core.CC, 2), "fir"},
		{core.DefaultConfig(core.STR, 2), "fir"},
	})
	if _, err := r.Run(core.DefaultConfig(core.CC, 2), "fir"); err != nil {
		t.Fatal(err)
	}
	// Wait for the whole grid, then drain the collector.
	for _, cfg := range []core.Config{core.DefaultConfig(core.CC, 1), core.DefaultConfig(core.STR, 2)} {
		if _, err := r.Run(cfg, "fir"); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d progress lines, want 3:\n%s", len(lines), buf.String())
	}
	seen := map[string]bool{}
	for _, ln := range lines {
		if !bytes.HasPrefix(ln, []byte("# [")) {
			t.Errorf("progress line missing completed-count prefix: %q", ln)
		}
		seen[string(ln[:6])] = true
	}
	for _, want := range []string{"# [1/3", "# [2/3", "# [3/3"} {
		if !seen[want] {
			t.Errorf("no progress line with prefix %q:\n%s", want, buf.String())
		}
	}
}

// TestCloseIdempotent is the regression test for double-Close: the CLI
// closes the runner on its normal path and again from its finish
// wrapper, and a second Close used to be a latent panic on the progress
// channel once Close grew teardown. Both orders — after a campaign and
// on a zero-job runner — must be safe no-ops.
func TestCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(workload.ScaleSmall)
	r.Progress = &buf
	if _, err := r.Run(core.DefaultConfig(core.CC, 1), "fir"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()

	zero := NewRunner(workload.ScaleSmall)
	zero.Progress = &buf
	zero.Close()
	zero.Close()
}

// TestRunnerFeedsTelemetry proves the runner walks spans through the
// campaign table: fresh simulations open and close spans, and duplicate
// requests count as memo hits without opening one.
func TestRunnerFeedsTelemetry(t *testing.T) {
	c := telemetry.NewCampaign()
	c.BeginGroup("fig2")
	r := NewRunner(workload.ScaleSmall)
	r.Workers = 2
	r.Telemetry = c
	cfg := core.DefaultConfig(core.CC, 1)
	if _, err := r.Run(cfg, "fir"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg, "fir"); err != nil { // same key: memo hit
		t.Fatal(err)
	}
	r.Close()

	s := c.Snapshot(true)
	if s.Enqueued != 1 || s.Done != 1 || s.MemoHits != 1 || s.MemoMisses != 1 {
		t.Fatalf("campaign snapshot: %+v", s)
	}
	if s.Queued+s.Running != 0 {
		t.Fatalf("spans left open: %+v", s)
	}
	var fresh *telemetry.SpanSnapshot
	for i := range s.Spans {
		if s.Spans[i].State == "done" {
			fresh = &s.Spans[i]
		}
	}
	if fresh == nil {
		t.Fatalf("no done span: %+v", s.Spans)
	}
	if fresh.Workload != "fir" || fresh.Figure != "fig2" {
		t.Fatalf("fresh span: %+v", fresh)
	}
	if fresh.StartedNS == 0 || fresh.EndedNS <= fresh.StartedNS {
		t.Fatalf("span timings: %+v", fresh)
	}
}

// TestRecordCarriesPoolResidency pins the manifest schema additions:
// every fresh-simulation Record reports its queue wait under the
// queue_wait_ns key, and its host_ns is the one run's wall time.
func TestRecordCarriesPoolResidency(t *testing.T) {
	r := NewRunner(workload.ScaleSmall)
	var mu sync.Mutex
	var recs []Record
	r.OnRecord = func(rec Record) {
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
	}
	if _, err := r.Run(core.DefaultConfig(core.CC, 1), "fir"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.QueueWaitNS < 0 || rec.HostNS <= 0 {
		t.Fatalf("implausible residency: queue=%d host=%d", rec.QueueWaitNS, rec.HostNS)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"queue_wait_ns"`, `"host_ns"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("marshalled record lacks %s: %s", key, raw)
		}
	}
}
