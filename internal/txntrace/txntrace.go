// Package txntrace is request-scoped causal tracing for individual
// memory transactions: one sampled CC/INC miss, STR queue access or DMA
// command gets a trace ID and a tree of hops recorded at the same
// charge sites the cycle ledger instruments — L1 miss issue, snoop
// fan-out, owner intervention or L2 access, NoC transfers, DRAM channel
// service — each hop carrying its sim-time interval, component, and
// outcome tag.
//
// Two capture modes run together, both deterministic:
//
//   - Sampled capture keeps the full tree of every transaction whose
//     (serial, seed) hash selects it, so re-runs at the same seed trace
//     the exact same transactions.
//   - Worst-K exemplar reservoirs (always on) keep the K slowest
//     complete trees per latency class, so the tail of every histogram
//     is explained without tracing everything.
//
// Like the ledger and the probe, a Tracer is a run-scoped observer
// behind the repo's nil-sentinel pattern: every hook is safe on a nil
// receiver, costs one nil compare when tracing is off, and only ever
// reads simulated clocks — attaching a Tracer never changes a report.
// Model code runs single-threaded in event order, so the Tracer needs
// no locks; reading results is safe once the run has finished.
//
// Armed capture allocates nothing in steady state: a transaction that
// no retained tree references when it ends (or that a reservoir later
// evicts) goes back to a per-tracer free list, shell, hop array and
// all, and numeric hop tags are stored as integers and rendered only
// when a tree is read. So a handle from Begin or BeginDetached is valid
// only until its End or EndDetached; trees reachable from Exemplars and
// Kept are retained and never change.
package txntrace

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// Class is a transaction latency class. The classes mirror the cycle
// ledger's latency histograms, plus Prefetch for hardware-prefetch
// fills that the ledger deliberately excludes from ReadMiss.
type Class uint8

// The transaction latency classes.
const (
	ReadMiss Class = iota
	WriteMiss
	L2Hit
	DRAMFill
	DMAGet
	DMAPut
	Prefetch
	numClasses
)

// String returns the class name used in exports and metrics labels.
func (c Class) String() string {
	switch c {
	case ReadMiss:
		return "read_miss"
	case WriteMiss:
		return "write_miss"
	case L2Hit:
		return "l2_hit"
	case DRAMFill:
		return "dram_fill"
	case DMAGet:
		return "dma_get"
	case DMAPut:
		return "dma_put"
	case Prefetch:
		return "prefetch"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Classes lists every class in declaration order (export iteration).
func Classes() []Class {
	out := make([]Class, numClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Hop is one recorded interval within a transaction: a charge site the
// request passed through. AdvanceFS is the hop's critical-path
// contribution, assigned when the transaction ends: the first hop to
// cover a stretch of the transaction's [start, end] window owns it, so
// the AdvanceFS of all hops sums exactly to the transaction's latency
// (side paths the core never waited for — overlapped writebacks,
// snoop responses subsumed by a slower data return — contribute 0).
type Hop struct {
	Component string
	Op        string
	StartFS   sim.Time
	EndFS     sim.Time
	AdvanceFS sim.Time

	text string  // fixed tag (tagText)
	num  uint64  // numeric tag value (the other kinds)
	kind TagKind // how Tag renders
}

// TagKind selects how a hop's outcome tag renders. Numeric kinds keep
// the number and format it only when a tree is read, so the charge
// sites that record a wait or a channel index never format a string.
type TagKind uint8

// The hop tag kinds.
const (
	tagText     TagKind = iota // a fixed string ("" = no tag)
	TagWait                    // "wait=<n>fs": NoC arbitration wait
	TagPortWait                // "port_wait=<n>fs": L2 bank-port queueing
	TagChannel                 // "ch<n>": the DRAM channel that served the access
	tagChild                   // "#<n>": the child an aggregate "txn" hop stands for
)

// tagForms holds each numeric kind's text around the number.
var tagForms = [...]struct{ prefix, suffix string }{
	TagWait:     {"wait=", "fs"},
	TagPortWait: {"port_wait=", "fs"},
	TagChannel:  {"ch", ""},
	tagChild:    {"#", ""},
}

// Tag renders the hop's outcome tag ("" when it has none).
func (h Hop) Tag() string {
	if h.kind == tagText {
		return h.text
	}
	f := tagForms[h.kind]
	return f.prefix + strconv.FormatUint(h.num, 10) + f.suffix
}

// Caps bounding a single transaction's memory footprint. A transaction
// that outgrows them keeps counting (DroppedHops/DroppedKids) so
// exports can say the tree is truncated rather than silently lying.
const (
	maxHops = 512
	maxKids = 128
	maxTags = 16
)

// Txn is one transaction tree: the root interval, the hops recorded
// while it was the active transaction, and nested sub-transactions
// (an uncore line fill inside a CC miss, the beats of a DMA command).
// All methods are nil-receiver safe so instrumentation sites need no
// guards beyond the Tracer's own.
type Txn struct {
	ID      uint64
	Class   Class
	Core    int
	Addr    uint64
	StartFS sim.Time
	EndFS   sim.Time
	Hops    []Hop
	Tags    []string
	Kids    []*Txn
	// Truncation counters (see the caps above).
	DroppedHops uint64
	DroppedKids uint64

	parent    *Txn     // enclosing transaction while this one is open
	ancestors []uint64 // IDs of the enclosing transactions, outermost first
	refs      uint8    // retaining references: reservoir, kept list, parent's Kids
	sampled   bool
	detached  bool
}

// Latency returns the transaction's end-to-end latency.
func (x *Txn) Latency() sim.Time {
	if x == nil {
		return 0
	}
	return x.EndFS - x.StartFS
}

// Sampled reports whether the deterministic sampler selected this
// transaction (exemplar-only trees return false).
func (x *Txn) Sampled() bool { return x != nil && x.sampled }

// SetClass reclassifies the transaction; the uncore uses it to turn a
// provisional l2_hit into a dram_fill once the L2 lookup misses.
func (x *Txn) SetClass(c Class) {
	if x != nil {
		x.Class = c
	}
}

// AddTag appends an outcome tag ("mesi=I->E", "src=owner_remote",
// "retry", ...). Tags beyond the cap are dropped silently — they are
// annotations, not accounting.
func (x *Txn) AddTag(tag string) {
	if x != nil && len(x.Tags) < maxTags {
		x.Tags = append(x.Tags, tag)
	}
}

// addHop appends a hop, honoring the cap.
func (x *Txn) addHop(h Hop) {
	if len(x.Hops) >= maxHops {
		x.DroppedHops++
		return
	}
	x.Hops = append(x.Hops, h)
}

// finalize stamps the end time and assigns each hop's critical-path
// share: a cursor sweeps [StartFS, end] in hop-record order, and every
// hop owns the stretch between the cursor and its own end (clamped to
// the window). Any trailing uncovered stretch becomes a synthetic
// "wait/tail" hop, so the shares always sum exactly to the latency.
func (x *Txn) finalize(end sim.Time) {
	x.EndFS = end
	cur := x.StartFS
	for i := range x.Hops {
		h := &x.Hops[i]
		hi := h.EndFS
		if hi > end {
			hi = end
		}
		if hi > cur {
			h.AdvanceFS = hi - cur
			cur = hi
		} else {
			h.AdvanceFS = 0
		}
	}
	if end > cur {
		x.Hops = append(x.Hops, Hop{
			Component: "wait", Op: "tail",
			StartFS: cur, EndFS: end, AdvanceFS: end - cur,
		})
	}
}

// reservoir keeps the K slowest finished transactions of one class,
// slowest first. K is tiny, so an insertion sort beats a heap.
type reservoir struct {
	k   int
	txs []*Txn
}

// offer inserts x if it ranks among the K slowest, reporting whether it
// was kept and which transaction, if any, it pushed out.
func (r *reservoir) offer(x *Txn) (kept bool, evicted *Txn) {
	if r.k <= 0 {
		return false, nil
	}
	if len(r.txs) == r.k && x.Latency() <= r.txs[len(r.txs)-1].Latency() {
		return false, nil
	}
	i := sort.Search(len(r.txs), func(i int) bool {
		l := r.txs[i].Latency()
		// Strictly-slower-first with ID as the deterministic tiebreak:
		// among equal latencies the earliest transaction wins, so the
		// reservoir's content does not depend on arrival order quirks.
		return l < x.Latency() || (l == x.Latency() && r.txs[i].ID > x.ID)
	})
	n := len(r.txs)
	if i == n && n == r.k {
		return false, nil
	}
	if n == r.k {
		evicted = r.txs[n-1]
	} else {
		r.txs = append(r.txs, nil)
		n++
	}
	copy(r.txs[i+1:n], r.txs[i:n-1])
	r.txs[i] = x
	return true, evicted
}

// DefaultK is the per-class exemplar reservoir depth.
const DefaultK = 4

// defaultKeptCap bounds how many sampled transaction trees are retained
// (the exemplar reservoirs are bounded by construction). Overflowing
// trees are counted, not kept; the CLIs surface the count once.
const defaultKeptCap = 1 << 16

// Tracer records transaction trees for one run. Configure the exported
// knobs before the run starts; attach via core.Config.TxnTrace. The
// zero knobs mean: sampling off, DefaultK exemplars per class.
type Tracer struct {
	// SampleEvery keeps the full tree of roughly 1-in-N root
	// transactions, selected by a deterministic hash of (serial, Seed).
	// 0 disables sampled capture; exemplar capture is always on.
	SampleEvery uint64
	// Seed salts the sampling hash so different seeds trace different
	// (but per-seed reproducible) transaction populations.
	Seed uint64
	// K overrides the per-class exemplar reservoir depth (0 = DefaultK,
	// negative disables exemplars).
	K int
	// KeptCap overrides the sampled-tree retention cap (0 = default).
	KeptCap int

	serial     uint64
	nextID     uint64
	stack      []*Txn
	reservoirs [numClasses]reservoir
	counts     [numClasses]uint64
	kept       []*Txn
	dropped    uint64
	// Recycled shells. Detached roots (DMA commands) record hundreds of
	// beat hops each; keeping them apart stops their long hop arrays
	// from migrating into every small nested shell.
	free         []*Txn
	freeDetached []*Txn
}

// New returns a Tracer with exemplar capture on (DefaultK per class)
// and sampled capture off.
func New() *Tracer { return &Tracer{} }

func (t *Tracer) kOrDefault() int {
	switch {
	case t.K > 0:
		return t.K
	case t.K < 0:
		return 0
	}
	return DefaultK
}

func (t *Tracer) keptCapOrDefault() int {
	if t.KeptCap > 0 {
		return t.KeptCap
	}
	return defaultKeptCap
}

// splitmix64 is the sampling hash: a full-avalanche mix of the
// transaction serial and the seed, so "every Nth" never aliases with a
// workload's own periodicity.
func splitmix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// sampleRoot assigns the next root serial and decides whether the
// sampler keeps this transaction's tree.
func (t *Tracer) sampleRoot() bool {
	t.serial++
	if t.SampleEvery == 0 {
		return false
	}
	return splitmix64(t.serial^t.Seed)%t.SampleEvery == 0
}

// newTxn takes a shell from the matching free list, keeping its
// backing arrays, or allocates one when the list is empty.
func (t *Tracer) newTxn(class Class, core int, addr uint64, at sim.Time, detached bool) *Txn {
	free := &t.free
	if detached {
		free = &t.freeDetached
	}
	var x *Txn
	if n := len(*free); n > 0 {
		x = (*free)[n-1]
		*free = (*free)[:n-1]
		*x = Txn{Hops: x.Hops[:0], Tags: x.Tags[:0], Kids: x.Kids[:0], ancestors: x.ancestors[:0]}
	} else {
		x = new(Txn)
	}
	t.nextID++
	x.ID, x.Class, x.Core, x.Addr, x.StartFS, x.detached = t.nextID, class, core, addr, at, detached
	return x
}

// release returns a shell that no retained tree references to its free
// list, and drops its own references to its children.
func (t *Tracer) release(x *Txn) {
	for _, k := range x.Kids {
		t.unref(k)
	}
	if x.detached {
		t.freeDetached = append(t.freeDetached, x)
	} else {
		t.free = append(t.free, x)
	}
}

// unref drops one retaining reference, releasing the shell at zero.
func (t *Tracer) unref(x *Txn) {
	if x.refs--; x.refs == 0 {
		t.release(x)
	}
}

// Begin opens a transaction at the top of the active stack and makes it
// the target of subsequent Hop calls. With an enclosing transaction
// active, the new one is a nested sub-transaction (it will attach to
// its parent when it ends); otherwise it is a root, which consumes a
// sampling serial. Returns nil on a nil Tracer.
func (t *Tracer) Begin(class Class, core int, addr uint64, at sim.Time) *Txn {
	if t == nil {
		return nil
	}
	x := t.newTxn(class, core, addr, at, false)
	if n := len(t.stack); n > 0 {
		p := t.stack[n-1]
		x.parent = p
		x.sampled = p.sampled
		x.ancestors = append(append(x.ancestors, p.ancestors...), p.ID)
	} else {
		x.sampled = t.sampleRoot()
	}
	t.stack = append(t.stack, x)
	return x
}

// BeginDetached opens a root transaction without activating it: DMA
// commands live across many engine steps interleaved with other
// commands, so the DMA engine holds the handle and brackets each beat
// with Resume/Suspend. The detached transaction consumes a sampling
// serial like any root.
func (t *Tracer) BeginDetached(class Class, core int, addr uint64, at sim.Time) *Txn {
	if t == nil {
		return nil
	}
	x := t.newTxn(class, core, addr, at, true)
	x.sampled = t.sampleRoot()
	return x
}

// Resume makes a detached transaction the active one (nested hooks —
// uncore, NoC — then attribute to it). Balance with Suspend.
func (t *Tracer) Resume(x *Txn) {
	if t == nil || x == nil {
		return
	}
	t.stack = append(t.stack, x)
}

// Suspend deactivates the most recently resumed transaction without
// ending it.
func (t *Tracer) Suspend() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// Hop records one interval against the active transaction (no-op when
// none is active).
func (t *Tracer) Hop(component, op string, start, end sim.Time) {
	if x := t.Active(); x != nil {
		x.addHop(Hop{Component: component, Op: op, StartFS: start, EndFS: end})
	}
}

// HopTag is Hop with a fixed outcome tag.
func (t *Tracer) HopTag(component, op string, start, end sim.Time, tag string) {
	if x := t.Active(); x != nil {
		x.addHop(Hop{Component: component, Op: op, StartFS: start, EndFS: end, text: tag})
	}
}

// HopNum is Hop with a numeric outcome tag of the given kind; the tag
// text is rendered only when the tree is read.
func (t *Tracer) HopNum(component, op string, start, end sim.Time, kind TagKind, n uint64) {
	if x := t.Active(); x != nil {
		x.addHop(Hop{Component: component, Op: op, StartFS: start, EndFS: end, num: n, kind: kind})
	}
}

// Active returns the transaction currently receiving hops (nil when
// none, or on a nil Tracer).
func (t *Tracer) Active() *Txn {
	if t == nil || len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1]
}

// End closes the active transaction at the given completion time,
// finalizes its per-hop attribution, offers it to its class reservoir
// and — for sampled roots — retains the tree. Nested transactions
// attach to their parent as both a child tree and an aggregate hop, so
// the parent's conservation covers them. The handle Begin returned is
// not valid past End: an unretained transaction is recycled.
func (t *Tracer) End(at sim.Time) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	x := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.finish(x, at)
}

// EndDetached closes a detached transaction (which must not be on the
// active stack — the DMA engine suspends it between beats). Like End,
// it ends the handle's validity.
func (t *Tracer) EndDetached(x *Txn, at sim.Time) {
	if t == nil || x == nil {
		return
	}
	t.finish(x, at)
}

// finish retains x wherever it belongs — its class reservoir, its
// parent's Kids, the sampled list — and recycles it if nothing did.
func (t *Tracer) finish(x *Txn, at sim.Time) {
	x.finalize(at)
	t.counts[x.Class]++
	if k := t.kOrDefault(); k > 0 {
		r := &t.reservoirs[x.Class]
		r.k = k
		if kept, evicted := r.offer(x); kept {
			x.refs++
			if evicted != nil {
				t.unref(evicted)
			}
		}
	}
	if p := x.parent; p != nil {
		x.parent = nil
		p.addHop(Hop{
			Component: "txn", Op: x.Class.String(),
			StartFS: x.StartFS, EndFS: x.EndFS,
			num: x.ID, kind: tagChild,
		})
		if len(p.Kids) < maxKids {
			p.Kids = append(p.Kids, x)
			x.refs++
		} else {
			p.DroppedKids++
		}
	} else if x.sampled {
		if len(t.kept) < t.keptCapOrDefault() {
			t.kept = append(t.kept, x)
			x.refs++
		} else {
			t.dropped++
		}
	}
	if x.refs == 0 {
		t.release(x)
	}
}

// Exemplars returns the worst-K reservoir of one class, slowest first.
func (t *Tracer) Exemplars(c Class) []*Txn {
	if t == nil || c >= numClasses {
		return nil
	}
	return t.reservoirs[c].txs
}

// Count returns how many transactions of a class completed.
func (t *Tracer) Count(c Class) uint64 {
	if t == nil || c >= numClasses {
		return 0
	}
	return t.counts[c]
}

// Kept returns the sampled transaction trees in (start, ID) order.
func (t *Tracer) Kept() []*Txn {
	if t == nil {
		return nil
	}
	out := append([]*Txn(nil), t.kept...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartFS != out[j].StartFS {
			return out[i].StartFS < out[j].StartFS
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// DroppedSampled returns how many sampled trees overflowed the
// retention cap (counted, not kept — the CLIs warn once).
func (t *Tracer) DroppedSampled() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}
