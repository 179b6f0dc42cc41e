package txntrace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
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
	frames   []*Txn // open brackets, innermost last: nil for a Begin, the root for a Resume
	detached []*Txn
}

var (
	opComponents = []string{"l1", "noc", "l2", "dram", "dma", "other"}
	opNames      = []string{"lookup", "bus_data", "access", "read", "beat"}
	opTags       = []string{"miss", "retry", "mesi=I->E", "src=l2"}
)

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
func (d *opReplay) onStack(x *Txn) bool {
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
		d.tr.Suspend()
	} else {
		d.tr.End(d.now)
	}
}

// numHop records a hop carrying one of the numeric tag kinds the model's
// charge sites use.
func (d *opReplay) numHop(component, op string, start, end sim.Time, kind, n uint64) {
	d.tr.HopNum(component, op, start, end, TagWait+TagKind(kind%3), n)
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
		d.tr.Hop(opComponents[d.next()%6], opNames[d.next()%5], d.now, d.now+sim.Time(d.next()))
	case 5:
		d.tr.HopTag(opComponents[d.next()%6], opNames[d.next()%5], d.now, d.now+sim.Time(d.next()), opTags[d.next()%4])
	case 6:
		d.numHop(opComponents[d.next()%6], opNames[d.next()%5], d.now, d.now+sim.Time(d.next()), uint64(d.next()), uint64(d.next())*1000)
	case 7:
		x := d.tr.Active()
		x.AddTag(opTags[d.next()%4])
		if c := d.next(); c < 32 {
			x.SetClass(Class(c % uint8(numClasses)))
		}
	case 8:
		if len(d.detached) < 8 {
			d.detached = append(d.detached, d.tr.BeginDetached(DMAGet+Class(d.next()%2), int(d.next()%8), uint64(d.next())*64, d.now))
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
			d.numHop("noc", "bus_data", d.now, d.now+sim.Time(i%5), uint64(i), uint64(i))
			d.now++
		}
	case 12:
		// Kid burst: overflows the active transaction's child cap.
		class := Class(d.next() % uint8(numClasses))
		for i := 0; i < maxKids+4; i++ {
			d.tr.Begin(class, i%8, uint64(i)*64, d.now)
			d.tr.Hop("l2", "access", d.now, d.now+sim.Time(i%7))
			d.now += sim.Time(i % 3)
			d.tr.End(d.now)
		}
	default:
		d.now += sim.Time(d.next()) * 16
	}
}

// run replays the whole input and closes everything still open.
func (d *opReplay) run() *Tracer {
	for d.pos < len(d.src) {
		d.step(d.next())
	}
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
// slower root (so it is recycled while its child stays retained), and
// then more traffic reuses the recycled shells.
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
	0x02,    // End root: rejected, recycled
	0x0c, 0, // kid burst of roots: reuses the recycled shells
	0x00, 0, 3, 3, 0x06, 1, 2, 3, 9, 7, 0x02,
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
// then of retainedChildOps and detachedOps. They were recorded from the
// tracer that built a fresh heap tree for every transaction and
// formatted every tag string eagerly, so they pin the recycling tracer
// and its lazily rendered tags to that tracer's output, byte for byte.
var opGoldens = []string{
	"fe605a5c6e4374cd", "f122749198e60c00", "516e1430bf5d6ed1", "dc28c3104c6c2b75",
	"0a3f0075e6a348be", "cee83b31b30fc933", "54694e12173ab480", "0e066356f58f7f09",
	"f550a8ad6ac111c5", "17e9069ac5e7be13", "5cc619893117e050", "9c8bbd6617685181",
	"a55c56818ab38f8f", "34d13ab8224b0904", "894385f8a5ac36ef", "5b0c113bec3f528c",
	"70deb01bf0176b9b", "bbcbd98cd0d35ec1", "e969f6d61d0916dd", "e9a84b67126df770",
	"3515dac4f04b14d4", "f130b867a7751822", "04c50d59ad4939e3", "3048dd4ffcc7f944",
	"298a373b0a7718d1", "59cc93c895ede772",
}

// opInputs returns the golden inputs in opGoldens order.
func opInputs() [][]byte {
	var in [][]byte
	for seed := int64(0); seed < 24; seed++ {
		in = append(in, randomOps(seed))
	}
	return append(in, retainedChildOps, detachedOps)
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
// transaction ID is exported twice, and every reservoir is slowest-first
// with ties broken toward the earlier ID. It also checks the recycling
// bookkeeping: no shell sits on a free list twice, and no retained tree
// reaches a recycled shell. The JSON encoding itself is pinned by the
// goldens; leaving it out here keeps each exec fast.
func FuzzTracerOps(f *testing.F) {
	// Short seeds keep each exec, and the minimization of every new
	// interesting input, fast.
	for _, src := range opInputs() {
		f.Add(src[:min(len(src), 256)])
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		checkInvariants(t, newOpReplay(src).run())
	})
}

// checkInvariants is FuzzTracerOps's check on one finished tracer.
func checkInvariants(t testing.TB, tr *Tracer) {
	t.Helper()
	free := map[*Txn]bool{}
	for _, x := range append(append([]*Txn(nil), tr.free...), tr.freeDetached...) {
		if free[x] {
			t.Fatalf("shell of #%d is on the free lists twice", x.ID)
		}
		free[x] = true
	}
	seen := map[uint64]bool{}
	var check func(x *Txn)
	check = func(x *Txn) {
		if free[x] {
			t.Fatalf("retained tree reaches recycled shell #%d", x.ID)
		}
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
	for _, c := range Classes() {
		exs := tr.Exemplars(c)
		for i, x := range exs {
			if free[x] {
				t.Fatalf("%s reservoir holds recycled shell #%d", c, x.ID)
			}
			if i == 0 {
				continue
			}
			a := exs[i-1]
			if a.Latency() < x.Latency() || (a.Latency() == x.Latency() && a.ID > x.ID) {
				t.Fatalf("%s reservoir out of order at %d: #%d (%d fs) before #%d (%d fs)", c, i, a.ID, a.Latency(), x.ID, x.Latency())
			}
		}
	}
	for _, x := range tr.kept {
		if free[x] {
			t.Fatalf("kept list holds recycled shell #%d", x.ID)
		}
	}
}
