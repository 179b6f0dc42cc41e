package txntrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// opReplay replays a byte string as a tracer op sequence. The first
// bytes configure the tracer (K, SampleEvery, KeptCap, Seed); each later
// byte selects an op from the alphabet below, and the bytes after it
// supply operands. An op that is not valid in the current state (End
// with nothing open, Resume with no detached root) degrades to a clock
// advance, so every input is a well-formed run. Bursts push one
// transaction past maxHops or maxKids; detached roots follow the DMA
// engine's contract (Resume/Suspend brackets, EndDetached only while
// suspended). Past the input's end every bracket is closed, innermost
// first, then every open detached root ends.
type opReplay struct {
	tr       *Tracer
	src      []byte
	pos      int
	now      sim.Time
	frames   []*Detached // open brackets, innermost last: nil for a Begin, the root for a Resume
	detached []*Detached
	logs     []*Log // every log lent to a detached root
}

var (
	opComponents = []string{"l1", "noc", "l2", "dram", "dma", "other"}
	opNames      = []string{"lookup", "bus_data", "access", "read", "beat"}
	opTags       = []string{"miss", "retry", "mesi=I->E", "src=l2"}

	// opSites[c][o][g] is the site of component c's op o with no tag at
	// g == 0 and the fixed tag opTags[g-1] above; opTagSites are the
	// outcome tags. Both are registered at init, as a model registers
	// its sites.
	opSites, opTagSites = func() (s [6][5][5]Site, tags [4]Site) {
		for c, component := range opComponents {
			for o, op := range opNames {
				s[c][o][0] = NewSite(component, op, "")
				for g, tag := range opTags {
					s[c][o][g+1] = NewSite(component, op, tag)
				}
			}
		}
		for g, tag := range opTags {
			tags[g] = NewTag(tag)
		}
		return s, tags
	}()
)

// site reads a component and an op from the input and returns their
// untagged site.
func (d *opReplay) site() Site {
	c, o := d.next()%6, d.next()%5
	return opSites[c][o][0]
}

func (d *opReplay) next() byte {
	if d.pos >= len(d.src) {
		return 0
	}
	b := d.src[d.pos]
	d.pos++
	return b
}

func newOpReplay(src []byte) *opReplay {
	d := &opReplay{src: src, tr: New()}
	d.tr.K = 1 + int(d.next()%4)
	d.tr.SampleEvery = uint64(d.next() % 4)
	d.tr.KeptCap = 1 + int(d.next()%8)
	d.tr.Seed = uint64(d.next())
	return d
}

// onStack reports whether a detached root is currently resumed.
func (d *opReplay) onStack(x *Detached) bool {
	for _, f := range d.frames {
		if f == x {
			return true
		}
	}
	return false
}

func (d *opReplay) begin(class Class) {
	d.tr.Begin(class, int(d.next()%8), uint64(d.next())*64, d.now)
	d.frames = append(d.frames, nil)
}

// pop closes the innermost bracket.
func (d *opReplay) pop() {
	f := d.frames[len(d.frames)-1]
	d.frames = d.frames[:len(d.frames)-1]
	if f != nil {
		d.tr.Suspend(f)
	} else {
		d.tr.End(d.now)
	}
}

// numHop records a hop carrying one of the numeric tag kinds the model's
// charge sites use.
func (d *opReplay) numHop(site Site, start, end sim.Time, kind, n uint64) {
	d.tr.HopNum(site, start, end, TagWait+TagKind(kind%3), n)
}

func (d *opReplay) step(b byte) {
	d.now += sim.Time(b>>4) * 7
	switch b % 16 {
	case 0, 1:
		d.begin(Class(d.next() % uint8(numClasses)))
	case 2, 3:
		if len(d.frames) > 0 {
			d.pop()
		}
	case 4:
		d.tr.Hop(d.site(), d.now, d.now+sim.Time(d.next()))
	case 5:
		// A fixed-tag hop reads its tag after its length.
		c, o, end := d.next()%6, d.next()%5, d.now+sim.Time(d.next())
		d.tr.Hop(opSites[c][o][1+d.next()%4], d.now, end)
	case 6:
		d.numHop(d.site(), d.now, d.now+sim.Time(d.next()), uint64(d.next()), uint64(d.next())*1000)
	case 7:
		d.tr.Tag(opTagSites[d.next()%4])
		if c := d.next(); c < 32 {
			d.tr.SetClass(Class(c % uint8(numClasses)))
		}
	case 8:
		if len(d.detached) < 8 {
			// Each detached root writes a log of its own, since the
			// replay interleaves them.
			d.logs = append(d.logs, new(Log))
			x := d.tr.BeginDetached(d.logs[len(d.logs)-1], DMAGet+Class(d.next()%2), int(d.next()%8), uint64(d.next())*64, d.now)
			d.detached = append(d.detached, &x)
		}
	case 9:
		if len(d.detached) > 0 {
			x := d.detached[int(d.next())%len(d.detached)]
			if !d.onStack(x) {
				d.tr.Resume(x)
				d.frames = append(d.frames, x)
			}
		}
	case 10:
		if len(d.detached) > 0 {
			i := int(d.next()) % len(d.detached)
			if x := d.detached[i]; !d.onStack(x) {
				d.tr.EndDetached(x, d.now)
				d.detached = append(d.detached[:i], d.detached[i+1:]...)
			}
		}
	case 11:
		// Hop burst: overflows the active transaction's hop cap.
		for i := 0; i < maxHops+8; i++ {
			d.numHop(opSites[1][1][0], d.now, d.now+sim.Time(i%5), uint64(i), uint64(i))
			d.now++
		}
	case 12:
		// Kid burst: overflows the active transaction's child cap.
		class := Class(d.next() % uint8(numClasses))
		for i := 0; i < maxKids+4; i++ {
			d.tr.Begin(class, i%8, uint64(i)*64, d.now)
			d.tr.Hop(opSites[2][2][0], d.now, d.now+sim.Time(i%7))
			d.now += sim.Time(i % 3)
			d.tr.End(d.now)
		}
	default:
		d.now += sim.Time(d.next()) * 16
	}
}

// until replays ops until the input position reaches pos.
func (d *opReplay) until(pos int) {
	for d.pos < pos {
		d.step(d.next())
	}
}

// run replays the rest of the input and closes everything still open.
func (d *opReplay) run() *Tracer {
	d.until(len(d.src))
	for len(d.frames) > 0 {
		d.now += 3
		d.pop()
	}
	for _, x := range d.detached {
		d.now += 5
		d.tr.EndDetached(x, d.now)
	}
	d.detached = nil
	return d.tr
}

// randomOps is seed's op sequence for the golden test.
func randomOps(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	src := make([]byte, 1500)
	rng.Read(src)
	return src
}

// retainedChildOps is a directed sequence: K=1, no sampling; a root
// opens a nested L2Hit child that runs long, the child ends into the
// L2Hit reservoir, the root ends quickly and is beaten by an earlier,
// slower root (so it is not retained while its child is), and then more
// traffic reuses the truncated log.
var retainedChildOps = []byte{
	0, 0, 0, 0, // K=1, SampleEvery=0, KeptCap=1, Seed=0
	0x00, 0, 1, 1, // root read_miss, slow
	0xfe, 0xff, 0xfe, 0xff, 0xfe, 0xff,
	0x02,          // End slow root
	0x00, 0, 2, 2, // root read_miss, faster
	0x00, 2, 2, 2, // nested l2_hit child
	0x04, 3, 3, 40, // child hop
	0xfe, 0xff, 0xfe, 0xff, // child runs long
	0x02,    // End child: retained in the l2_hit reservoir
	0x02,    // End root: rejected, its records truncated
	0x0c, 0, // kid burst of roots: reuses the log
	0x00, 0, 3, 3, 0x06, 1, 2, 3, 9, 7, 0x02,
}

// droppedChildOps is a directed sequence: K=1, no sampling; a root
// fills its Kids with a burst of l2_hit children, then opens one more
// child, a slow dram_fill that it drops past maxKids. The child enters
// its reservoir and the root enters its own, so the child is retained
// while no retained tree reaches it: it must be exported as a root.
var droppedChildOps = []byte{
	0, 0, 0, 0, // K=1, SampleEvery=0, KeptCap=1, Seed=0
	0x00, 0, 1, 1, // root read_miss
	0x0c, 2, // kid burst of l2_hit children: fills the root's Kids
	0x00, 3, 2, 2, // dram_fill child past maxKids
	0x04, 3, 3, 40, // child hop
	0xfe, 0xff, // child runs long
	0x02, // End child: retained in the dram_fill reservoir, dropped by the root
	0x02, // End root: retained in the read_miss reservoir
}

// detachedOps is a directed sequence exercising the DMA shape: two
// detached roots interleaved, each resumed around nested beats, ended
// while suspended.
var detachedOps = []byte{
	1, 1, 2, 5, // K=2, SampleEvery=1, KeptCap=3, Seed=5
	0x08, 0, 1, 4, 0x08, 1, 2, 8,
	0x09, 0, 0x00, 2, 1, 1, 0x06, 0, 1, 20, 0, 5, 0x02, 0x03,
	0x09, 1, 0x00, 3, 2, 2, 0x06, 1, 2, 30, 1, 2, 0x02, 0x03,
	0x09, 0, 0x04, 4, 0, 9, 0x03, 0x0a, 0,
	0x09, 0, 0x0b, 0x03, 0x0a, 0,
}

// traceDigest folds every read path of a finished tracer — the JSONL
// sink, the explain-tail table, the per-class summary, the root count
// and the merged Chrome trace — into a short hex digest.
func traceDigest(t testing.TB, tr *Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	tr.WriteExplainTail(&buf, 1000)
	sum, err := json.Marshal(tr.Summary())
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(sum)
	fmt.Fprintf(&buf, "\ntrees=%d dropped=%d\n", tr.Trees(), tr.DroppedSampled())
	tc := trace.New()
	tr.MergeChrome(tc)
	if err := tc.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])[:16]
}

// opGoldens are the traceDigest of randomOps(seed) for seeds 0..23,
// then of retainedChildOps, detachedOps and droppedChildOps. They pin
// every read path byte for byte, under the export rule that a retained
// tree is top-level exactly when no other retained tree reaches it
// through Kids.
var opGoldens = []string{
	"2fdbdf3df868b96d", "41a982235cff4bf1", "c601375b2f39e859", "02fc3a5d662bc554",
	"822dbbf1b0850c1c", "cee83b31b30fc933", "625eb296bdd3c4cd", "9f08f994f7830169",
	"1f1d195563a4d71f", "defa46fca48f8fea", "65d36c9a02856971", "07e9527c2c8d02ca",
	"6dfc5d709c49da7e", "dd3826cf2108c8bc", "d30da9ecf18a29d9", "196a91f7f5275dff",
	"70deb01bf0176b9b", "95cc1af13619c11e", "6077dcace418baec", "e81a6e53df157c93",
	"e15feaeb9bb4fc06", "70b968da807faffc", "84a117f2ecaac964", "fb7d131c4e1e49b4",
	"298a373b0a7718d1", "59cc93c895ede772", "b5bd547de7153d1e",
}

// opInputs returns the golden inputs in opGoldens order.
func opInputs() [][]byte {
	var in [][]byte
	for seed := int64(0); seed < 24; seed++ {
		in = append(in, randomOps(seed))
	}
	return append(in, retainedChildOps, detachedOps, droppedChildOps)
}

// TestTreelessTracerKeepsHistograms replays every op input twice: on
// the tracer its config bytes describe, and on one that can keep no
// tree (K -1, no sampling), the kind a ledger-only run arms. The
// latency block and the class counts must match, and the tree-less
// tracer must hold no tree and never write a log entry.
func TestTreelessTracerKeepsHistograms(t *testing.T) {
	for i, src := range opInputs() {
		full := newOpReplay(src).run()
		d := newOpReplay(src)
		d.tr.K, d.tr.SampleEvery = -1, 0
		bare := d.run()
		want, err := json.Marshal(full.Latency())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(bare.Latency())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("input %d: tree-less latency block\n%s\nwant\n%s", i, got, want)
		}
		for _, c := range Classes() {
			if bare.Count(c) != full.Count(c) {
				t.Errorf("input %d: %s count %d, want %d", i, c, bare.Count(c), full.Count(c))
			}
		}
		if bare.Trees() != 0 {
			t.Errorf("input %d: tree-less tracer holds %d trees", i, bare.Trees())
		}
		for _, l := range append(d.logs, &bare.log) {
			if cap(l.recs) != 0 || cap(l.subs) != 0 {
				t.Errorf("input %d: tree-less tracer wrote %d records and %d headers", i, cap(l.recs), cap(l.subs))
			}
		}
	}
}

// TestTracerOpGoldens replays randomized op sequences — nested
// Begin/End, detached roots with Resume/Suspend/EndDetached, hop and
// child cap overflows, reservoir churn at K=1..4, sampling with a small
// retention cap, and retained children of recycled parents — and checks
// every read path against the recorded digests.
func TestTracerOpGoldens(t *testing.T) {
	for i, src := range opInputs() {
		if got := traceDigest(t, newOpReplay(src).run()); got != opGoldens[i] {
			t.Errorf("input %d: digest %s, golden %s", i, got, opGoldens[i])
		}
	}
}

// FuzzTracerOps replays arbitrary op sequences and checks the tracer's
// invariants on the trees WriteJSONL exports (roots and their
// children): every node's advance_fs shares sum to its latency, no
// transaction ID is exported twice, every tree in a reservoir or the
// kept list is exported, and every reservoir is slowest-first with ties
// broken toward the earlier ID. It also checks that retained trees never
// change: every kept tree, and every reservoir tree still held at the
// end, must match its JSON at the replay's midpoint. The exported
// encoding itself is pinned by the goldens.
func FuzzTracerOps(f *testing.F) {
	// Short seeds keep each exec, and the minimization of every new
	// interesting input, fast.
	for _, src := range opInputs() {
		f.Add(src[:min(len(src), 256)])
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		d := newOpReplay(src)
		d.until(len(src) / 2)
		mid := retained(t, d.tr)
		checkInvariants(t, d.run(), mid)
	})
}

// retained returns the JSON of every retained tree, keyed by where it
// is held: a reservoir tree by its ID, since a reservoir may evict it,
// and a kept tree by its index, since the kept list drops none.
func retained(t testing.TB, tr *Tracer) map[string]string {
	t.Helper()
	out := map[string]string{}
	add := func(key string, x *Txn) {
		b, err := json.Marshal(toJSON(x, nil))
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(b)
	}
	for _, c := range Classes() {
		for _, x := range tr.Exemplars(c) {
			add(fmt.Sprintf("#%d", x.ID), x)
		}
	}
	for i, x := range tr.kept {
		add(fmt.Sprintf("kept[%d]", i), x)
	}
	return out
}

// checkInvariants is FuzzTracerOps's check on one finished tracer; mid
// is retained's view of it at the replay's midpoint.
func checkInvariants(t testing.TB, tr *Tracer, mid map[string]string) {
	t.Helper()
	seen := map[uint64]bool{}
	var check func(x *Txn)
	check = func(x *Txn) {
		if seen[x.ID] {
			t.Fatalf("transaction #%d exported twice", x.ID)
		}
		seen[x.ID] = true
		var sum sim.Time
		for _, h := range x.Hops {
			sum += h.AdvanceFS
		}
		if sum != x.Latency() {
			t.Fatalf("transaction #%d: advance sum %d, latency %d", x.ID, sum, x.Latency())
		}
		for _, k := range x.Kids {
			check(k)
		}
	}
	roots, _ := tr.roots()
	for _, x := range roots {
		check(x)
	}
	if tr.Trees() != len(roots) {
		t.Fatalf("Trees() = %d, %d roots exported", tr.Trees(), len(roots))
	}
	for _, x := range tr.kept {
		if !seen[x.ID] {
			t.Fatalf("kept transaction #%d is exported nowhere", x.ID)
		}
	}
	now := retained(t, tr)
	for key, was := range mid {
		if is, ok := now[key]; ok && is != was || !ok && strings.HasPrefix(key, "kept") {
			t.Fatalf("retained tree %s changed after the midpoint:\n%s\nwas\n%s", key, is, was)
		}
	}
	for _, c := range Classes() {
		exs := tr.Exemplars(c)
		for i, x := range exs {
			if !seen[x.ID] {
				t.Fatalf("%s exemplar #%d is exported nowhere", c, x.ID)
			}
			if i == 0 {
				continue
			}
			if a := exs[i-1]; a.Latency() < x.Latency() || (a.Latency() == x.Latency() && a.ID > x.ID) {
				t.Fatalf("%s reservoir out of order at %d: #%d (%d fs) before #%d (%d fs)", c, i, a.ID, a.Latency(), x.ID, x.Latency())
			}
		}
	}
}
