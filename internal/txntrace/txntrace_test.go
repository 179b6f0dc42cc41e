package txntrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNilTracerSafe pins the nil-sentinel contract: every hook on a nil
// Tracer (and on the nil Txn it hands out) is a no-op, so charge sites
// need no guards when tracing is off.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	x := tr.Begin(ReadMiss, 0, 0x1000, 100)
	if x != nil {
		t.Fatalf("nil tracer Begin returned %v", x)
	}
	tr.Hop("l1", "lookup", 100, 110)
	tr.HopTag("noc", "bus_data", 110, 120, "wait=0")
	tr.HopNum("dram", "read", 120, 130, TagChannel, 1)
	tr.Suspend()
	tr.Resume(nil)
	tr.End(200)
	tr.EndDetached(nil, 200)
	if tr.Active() != nil || tr.Kept() != nil || tr.Summary() != nil {
		t.Fatal("nil tracer leaked state")
	}
	if tr.Count(ReadMiss) != 0 || tr.DroppedSampled() != 0 || tr.Trees() != 0 {
		t.Fatal("nil tracer reported nonzero counters")
	}
	x.SetClass(WriteMiss)
	x.AddTag("tag")
	if x.Latency() != 0 || x.Sampled() {
		t.Fatal("nil Txn reported state")
	}
	var buf bytes.Buffer
	tr.WriteExplainTail(&buf, 1250000)
	tr.MergeChrome(trace.New())
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil tracer wrote output: %q", buf.String())
	}
}

// sumAdvance recursively checks one tree's conservation invariant and
// returns the root's hop sum.
func sumAdvance(t *testing.T, x *Txn) sim.Time {
	t.Helper()
	var sum sim.Time
	for _, h := range x.Hops {
		sum += h.AdvanceFS
	}
	if sum != x.Latency() {
		t.Errorf("txn #%d %s: hop sum %d != latency %d", x.ID, x.Class, sum, x.Latency())
	}
	for _, k := range x.Kids {
		sumAdvance(t, k)
	}
	return sum
}

// TestFinalizeConservation drives the cursor sweep through its edge
// shapes: a gap between hops, an overlapped hop that contributes zero,
// a hop past the end that is clamped, and a trailing stretch that
// becomes the synthetic wait/tail hop. The shares must sum exactly to
// the latency in every shape.
func TestFinalizeConservation(t *testing.T) {
	tr := New()
	tr.Begin(ReadMiss, 1, 0x40, 100)
	tr.Hop("l1", "lookup", 100, 110)
	tr.Hop("noc", "to_global", 150, 200) // gap 110..150 charged here
	tr.Hop("l2", "access", 180, 190)     // fully overlapped: advance 0
	tr.Hop("dram", "read", 190, 400)     // clamped to the end below
	tr.End(250)

	exs := tr.Exemplars(ReadMiss)
	if len(exs) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(exs))
	}
	x := exs[0]
	sumAdvance(t, x)
	if got := x.Hops[1].AdvanceFS; got != 90 {
		t.Errorf("gap-absorbing hop advance = %d, want 90", got)
	}
	if got := x.Hops[2].AdvanceFS; got != 0 {
		t.Errorf("overlapped hop advance = %d, want 0", got)
	}
	if got := x.Hops[3].AdvanceFS; got != 50 {
		t.Errorf("clamped hop advance = %d, want 50", got)
	}

	// A transaction whose hops end before its completion gets the
	// synthetic tail.
	tr.Begin(WriteMiss, 0, 0x80, 0)
	tr.Hop("l1", "lookup", 0, 10)
	tr.End(100)
	wx := tr.Exemplars(WriteMiss)[0]
	last := wx.Hops[len(wx.Hops)-1]
	if last.Component != "wait" || last.Op != "tail" || last.AdvanceFS != 90 {
		t.Errorf("tail hop = %+v, want wait/tail advance 90", last)
	}
	sumAdvance(t, wx)
}

// TestNestedChildAttach: a Begin under an active transaction builds a
// sub-transaction that attaches to its parent as both a child tree and
// an aggregate "txn" hop, inheriting the parent's sampled bit.
func TestNestedChildAttach(t *testing.T) {
	tr := New()
	tr.SampleEvery = 1 // sample everything
	root := tr.Begin(ReadMiss, 0, 0x100, 0)
	tr.Hop("noc", "bus_control", 0, 10)
	kid := tr.Begin(L2Hit, 0, 0x100, 10)
	kid.SetClass(DRAMFill)
	tr.Hop("dram", "read", 10, 500)
	tr.End(510) // kid
	tr.End(520) // root

	if !root.Sampled() || !kid.Sampled() {
		t.Fatal("sampled bit did not propagate to the child")
	}
	if len(root.Kids) != 1 || root.Kids[0] != kid {
		t.Fatalf("root kids = %v", root.Kids)
	}
	var agg *Hop
	for i := range root.Hops {
		if root.Hops[i].Component == "txn" {
			agg = &root.Hops[i]
		}
	}
	if agg == nil || agg.Op != "dram_fill" || agg.StartFS != 10 || agg.EndFS != 510 {
		t.Fatalf("aggregate hop = %+v", agg)
	}
	sumAdvance(t, root)
	if tr.Count(DRAMFill) != 1 || tr.Count(ReadMiss) != 1 {
		t.Fatal("class counts missing the nested transaction")
	}
	// Only the root is retained as a sampled tree; the child lives
	// inside it.
	if kept := tr.Kept(); len(kept) != 1 || kept[0] != root {
		t.Fatalf("kept = %v, want just the root", kept)
	}
}

// TestSamplingDeterminism: the (serial, seed) hash selects the same
// transactions on every run at the same seed, and a different seed
// selects a different population.
func TestSamplingDeterminism(t *testing.T) {
	sampledIDs := func(seed uint64) []uint64 {
		tr := New()
		tr.SampleEvery = 8
		tr.Seed = seed
		var ids []uint64
		for i := 0; i < 1024; i++ {
			// Read the handle before End: it is recycled once ended.
			if x := tr.Begin(ReadMiss, 0, uint64(i), sim.Time(i)); x.Sampled() {
				ids = append(ids, x.ID)
			}
			tr.End(sim.Time(i + 1))
		}
		return ids
	}
	a, b := sampledIDs(1), sampledIDs(1)
	if len(a) == 0 {
		t.Fatal("sampler selected nothing out of 1024 at 1-in-8")
	}
	if len(a) != len(b) {
		t.Fatalf("re-run selected %d vs %d transactions", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("re-run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := sampledIDs(2)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 1 and seed 2 selected identical populations")
	}
}

// TestReservoirWorstK: the per-class reservoir keeps the K slowest
// trees slowest-first, breaking latency ties toward the earliest ID.
func TestReservoirWorstK(t *testing.T) {
	tr := New()
	tr.K = 2
	lat := []sim.Time{50, 300, 100, 300, 200}
	for i, l := range lat {
		tr.Begin(ReadMiss, 0, uint64(i), 0)
		tr.End(l)
	}
	exs := tr.Exemplars(ReadMiss)
	if len(exs) != 2 {
		t.Fatalf("exemplars = %d, want 2", len(exs))
	}
	// Two transactions at 300; the earlier ID (serial 2, the first 300)
	// wins the tie and leads.
	if exs[0].Latency() != 300 || exs[1].Latency() != 300 {
		t.Fatalf("kept latencies %d, %d, want 300, 300", exs[0].Latency(), exs[1].Latency())
	}
	if exs[0].ID > exs[1].ID {
		t.Fatalf("tie broke toward the later ID: %d before %d", exs[0].ID, exs[1].ID)
	}
	if tr.Count(ReadMiss) != uint64(len(lat)) {
		t.Fatalf("count = %d, want %d", tr.Count(ReadMiss), len(lat))
	}
}

// TestKeptCapOverflow: sampled trees past the retention cap are counted
// as dropped, never silently discarded.
func TestKeptCapOverflow(t *testing.T) {
	tr := New()
	tr.SampleEvery = 1
	tr.KeptCap = 2
	for i := 0; i < 5; i++ {
		tr.Begin(ReadMiss, 0, uint64(i), sim.Time(i))
		tr.End(sim.Time(i + 1))
	}
	if len(tr.Kept()) != 2 {
		t.Fatalf("kept %d trees, want 2", len(tr.Kept()))
	}
	if tr.DroppedSampled() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.DroppedSampled())
	}
}

// TestWriteJSONLDeterministic: the sink emits one parseable JSON object
// per line in (start, ID) order, deduplicating trees that are both
// sampled and exemplars, and two identical runs produce identical
// bytes.
func TestWriteJSONLDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New()
		tr.SampleEvery = 2
		tr.Seed = 7
		for i := 0; i < 64; i++ {
			tr.Begin(Class(i%3), i%4, uint64(i)*64, sim.Time(i*100))
			tr.Hop("l1", "lookup", sim.Time(i*100), sim.Time(i*100+10))
			tr.End(sim.Time(i*100 + 10 + i))
		}
		return tr
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical runs produced different JSONL")
	}
	tr := build()
	if got := strings.Count(a.String(), "\n"); got != tr.Trees() {
		t.Fatalf("JSONL has %d lines, Trees() = %d", got, tr.Trees())
	}
	var prevStart, prevID uint64
	seen := map[uint64]bool{}
	sc := bufio.NewScanner(&a)
	for sc.Scan() {
		var j struct {
			ID      uint64 `json:"id"`
			StartFS uint64 `json:"start_fs"`
		}
		if err := json.Unmarshal(sc.Bytes(), &j); err != nil {
			t.Fatalf("unparseable line: %v", err)
		}
		if seen[j.ID] {
			t.Fatalf("tree #%d exported twice", j.ID)
		}
		seen[j.ID] = true
		if j.StartFS < prevStart || (j.StartFS == prevStart && j.ID <= prevID && prevID != 0) {
			t.Fatalf("order violated at #%d", j.ID)
		}
		prevStart, prevID = j.StartFS, j.ID
	}
}

// TestWriteExplainTail pins the table's load-bearing lines: the
// worst-K header with the observed count, per-hop cycle rows with every
// tag kind rendered (fixed, wait=, port_wait=, chN and the #id of a
// child aggregate), and the total line.
func TestWriteExplainTail(t *testing.T) {
	tr := New()
	tr.Begin(ReadMiss, 3, 0x2000, 0)
	tr.HopTag("l1", "lookup", 0, 1250000, "miss")
	tr.HopNum("noc", "bus_control", 1250000, 2500000, TagWait, 625000)
	tr.Begin(L2Hit, 3, 0x2000, 2500000)
	tr.HopNum("l2", "access", 2500000, 5000000, TagPortWait, 1250000)
	tr.HopNum("dram", "read", 5000000, 12500000, TagChannel, 3)
	tr.End(12500000)
	tr.End(12500000)
	var buf bytes.Buffer
	tr.WriteExplainTail(&buf, 1250000) // 800 MHz period
	out := buf.String()
	for _, want := range []string{
		"worst-1 read_miss exemplars (1 observed)",
		"core=3 addr=0x2000: 10.0 cycles",
		"1.0 cyc  l1.lookup  miss",
		"1.0 cyc  noc.bus_control  wait=625000fs",
		"8.0 cyc  txn.l2_hit  #2",
		"2.0 cyc  l2.access  port_wait=1250000fs",
		"6.0 cyc  dram.read  ch3",
		"10.0 cyc  = total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain-tail output missing %q:\n%s", want, out)
		}
	}
}

// TestMergeChrome: merged trees land as component-track spans plus one
// flow chain per tree threading the hops, and aggregate "txn" hops (the
// ones tagged with a child's #id) are not double-drawn. Hops carrying
// each numeric tag kind are drawn like any other.
func TestMergeChrome(t *testing.T) {
	tr := New()
	tr.SampleEvery = 1
	tr.Begin(ReadMiss, 0, 0x40, 0)
	tr.Hop("l1", "lookup", 0, 10)
	tr.HopNum("noc", "bus_control", 10, 12, TagWait, 1)
	tr.Begin(DRAMFill, 0, 0x40, 12)
	tr.HopNum("l2", "access", 12, 20, TagPortWait, 2)
	tr.HopNum("dram", "read", 20, 100, TagChannel, 1)
	tr.End(100)
	tr.End(110)

	tc := trace.New()
	tr.MergeChrome(tc)
	var names []string
	for _, s := range tc.Spans() {
		if strings.HasPrefix(s.Name, "read_miss txn.") {
			t.Fatalf("aggregate txn hop drawn as a span: %+v", s)
		}
		names = append(names, s.Name)
	}
	want := []string{"read_miss l1.lookup", "read_miss noc.bus_control", "read_miss wait.tail", "dram_fill l2.access", "dram_fill dram.read"}
	if strings.Join(names, "|") != strings.Join(want, "|") {
		t.Fatalf("spans = %q, want %q", names, want)
	}
	flows := tc.Flows()
	if len(flows) != 2 { // root + nested fill (chains of >= 2 steps)
		t.Fatalf("flows = %d, want 2", len(flows))
	}
	for _, f := range flows {
		if len(f.Steps) < 2 {
			t.Fatalf("flow %d has %d steps, want >= 2", f.ID, len(f.Steps))
		}
	}
}

// TestNumericTagsRender: numeric tags are stored as integers and render
// through Hop.Tag and the JSONL wire form exactly as the formatted
// strings they replace.
func TestNumericTagsRender(t *testing.T) {
	tr := New()
	tr.SampleEvery = 1
	tr.Begin(ReadMiss, 0, 0x40, 0)
	tr.HopTag("l1", "lookup", 0, 10, "miss")
	tr.HopNum("noc", "bus_control", 10, 20, TagWait, 7)
	tr.HopNum("l2", "access", 20, 30, TagPortWait, 1250000)
	tr.HopNum("dram", "read", 30, 40, TagChannel, 0)
	tr.Begin(L2Hit, 0, 0x40, 40)
	tr.End(50)
	tr.Hop("noc", "bus_data", 50, 60)
	tr.End(60)

	want := []string{"miss", "wait=7fs", "port_wait=1250000fs", "ch0", "#2", ""}
	root := tr.Kept()[0]
	for i, w := range want {
		if got := root.Hops[i].Tag(); got != w {
			t.Errorf("hop %d tag = %q, want %q", i, got, w)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var j struct {
		Hops []struct {
			Tag *string `json:"tag"`
		} `json:"hops"`
	}
	if err := json.Unmarshal(buf.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		switch h := j.Hops[i]; {
		case w == "" && h.Tag != nil:
			t.Errorf("JSONL hop %d has tag %q, want none", i, *h.Tag)
		case w != "" && (h.Tag == nil || *h.Tag != w):
			t.Errorf("JSONL hop %d tag = %v, want %q", i, h.Tag, w)
		}
	}
}
