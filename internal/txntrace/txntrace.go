// Package txntrace is request-scoped causal tracing for individual
// memory transactions: one sampled CC/INC miss, STR queue access or DMA
// command gets a trace ID and a tree of hops recorded at the memory
// system's charge sites — L1 miss issue, snoop fan-out, owner
// intervention or L2 access, NoC transfers, DRAM channel service — each
// hop carrying its sim-time interval, component, and outcome tag.
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
// The Tracer is the memory system's only observer. The report's latency
// histograms are a view of it: each transaction records its latency
// into its class histogram when it ends, and every NoC transfer records
// its arbitration wait, inside a transaction or not. A Tracer that can
// keep no tree (K < 0 and no sampling) records only those histograms: it
// pushes a frame per open transaction and writes no log. core.New arms
// such a tracer when the cycle ledger is on and no tracer is attached.
//
// A Tracer is a run-scoped observer behind the repo's nil-sentinel
// pattern: every hook is safe on a nil receiver, costs one nil compare
// when tracing is off, and only ever reads simulated clocks — attaching
// a Tracer never changes a report. Model code runs single-threaded in
// event order, so the Tracer needs no locks; reading results is safe
// once the run has finished.
//
// Armed capture allocates nothing in steady state. An open transaction
// is only a frame on the tracer's stack, with a mark into a flat log of
// 32-byte, pointer-free records that its hops, tags and nested
// transactions append to: an interval, a number and a Site, the index of
// a registered (component, op, fixed tag) triple. A tree is built only
// when something keeps it (its class reservoir admits it, or it is a
// sampled root under the retention cap): its records are expanded out of
// the log into a *Txn, strings, critical-path shares and tag text
// included. A root's End truncates the log back to the root's mark.
// Copies are never shared, so a reservoir refills the tree it evicts in
// place; a tree reachable from Exemplars or Kept never changes while it
// is retained.
package txntrace

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Class is a transaction latency class. Each has a latency histogram;
// all but Prefetch (hardware-prefetch fills, which are not demand
// misses) are exported in the report's latency block.
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

var classNames = [numClasses]string{"read_miss", "write_miss", "l2_hit", "dram_fill", "dma_get", "dma_put", "prefetch"}

// String returns the class name used in exports and metrics labels.
func (c Class) String() string {
	if c < numClasses {
		return classNames[c]
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
	Component, Op             string
	StartFS, EndFS, AdvanceFS sim.Time

	text string  // the site's fixed tag (tagText)
	num  uint64  // numeric tag value (the other kinds)
	kind TagKind // how Tag renders
}

// Site indexes the process-wide table of (component, op, fixed tag)
// triples, each registered once from a package-level var. Site 0 is the
// empty triple. The table grows only while packages initialize, so runs
// read it without a lock.
type Site uint16

type siteInfo struct{ component, op, tag string }

var sites = make([]siteInfo, 1)

// NewSite registers the site of component.op hops whose tag, unless
// they carry a numeric one, is the fixed text tag ("" = none).
func NewSite(component, op, tag string) Site {
	if len(sites) > 0xffff {
		panic("txntrace: site table full")
	}
	sites = append(sites, siteInfo{component, op, tag})
	return Site(len(sites) - 1)
}

// NewTag registers an outcome tag for Tracer.Tag.
func NewTag(tag string) Site { return NewSite("", "", tag) }

// childSites[c] is the site of the "txn" hop a class-c child leaves in
// its parent.
var childSites = func() (s [numClasses]Site) {
	for c := range s {
		s[c] = NewSite("txn", Class(c).String(), "")
	}
	return s
}()

// TagKind selects how a hop's outcome tag renders. Numeric kinds keep
// the number and format it only when a tree is read, so the charge
// sites that record a wait or a channel index never format a string.
type TagKind uint8

// The hop tag kinds.
const (
	tagText     TagKind = iota // the site's fixed tag
	TagWait                    // "wait=<n>fs": NoC arbitration wait
	TagPortWait                // "port_wait=<n>fs": L2 bank-port queueing
	TagChannel                 // "ch<n>": the DRAM channel that served the access
	tagChild                   // "#<n>": the child an aggregate "txn" hop stands for
	recTag                     // a log record holding an outcome tag, not a hop
	recSub                     // a log record heading a nested transaction
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

// Txn is one retained transaction tree: the root interval, the hops
// recorded while it was the active transaction, and nested
// sub-transactions (an uncore line fill inside a CC miss, the beats of a
// DMA command).
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
	DroppedHops, DroppedKids uint64

	sampled bool
}

// Latency returns the transaction's end-to-end latency.
func (x *Txn) Latency() sim.Time { return x.EndFS - x.StartFS }

// before orders trees for export: by start time, then by ID.
func (x *Txn) before(y *Txn) bool {
	return x.StartFS < y.StartFS || x.StartFS == y.StartFS && x.ID < y.ID
}

// finalize stamps the end time and assigns the critical-path share of
// each hop, which copyTo built with none: a cursor sweeps [StartFS, end]
// in hop-record order, and every hop owns the stretch between the cursor
// and its own end (clamped to the window). A trailing uncovered stretch
// becomes a synthetic "wait/tail" hop, so the shares sum to the latency.
func (x *Txn) finalize(end sim.Time) {
	x.EndFS = end
	cur := x.StartFS
	for i := range x.Hops {
		h := &x.Hops[i]
		if hi := min(h.EndFS, end); hi > cur {
			h.AdvanceFS, cur = hi-cur, hi
		}
	}
	if end > cur {
		x.Hops = append(x.Hops, Hop{Component: "wait", Op: "tail", StartFS: cur, EndFS: end, AdvanceFS: end - cur})
	}
}

// frame is an open transaction on the tracer's stack and, once a nested
// one ends, the header its log keeps for it. Its records start at mark
// in log and, once it ends, span n records.
type frame struct {
	id                       uint64
	class                    Class
	sampled                  bool
	tags                     uint8 // recorded, up to maxTags
	core                     int
	addr                     uint64
	start, end               sim.Time
	log                      *Log
	mark, n                  int
	hops, kids               int // recorded, up to the caps
	droppedHops, droppedKids uint64
}

// hop appends a hop record to f's log, honoring the cap.
func (f *frame) hop(site Site, start, end sim.Time, num uint64, kind TagKind) {
	if f.hops >= maxHops {
		f.droppedHops++
		return
	}
	f.hops++
	r := grow(&f.log.recs)
	r.start, r.end, r.num, r.site, r.kind = start, end, num, site, kind
}

// grow extends *s by one element in place, reusing its backing array,
// and returns that element, which may hold a stale value: appending a
// filled-in value would copy it whole.
func grow[T any](s *[]T) *T {
	n := len(*s)
	if n == cap(*s) {
		var zero T
		*s = append(*s, zero)
	} else {
		*s = (*s)[:n+1]
	}
	return &(*s)[n]
}

// rec is one 32-byte, pointer-free log record, so the GC never scans a
// log: a hop at site, an outcome tag (kind recTag), or the header of a
// nested transaction (kind recSub, num indexing Log.subs).
type rec struct {
	start, end sim.Time
	num        uint64
	site       Site
	kind       TagKind
}

// Log is a flat record log: the hops and tags of open transactions, and
// a header for each nested transaction ahead of its own records.
// Synchronous roots share the tracer's own log, since at most one is
// open at a time. A detached root writes the log its issuer lends it.
type Log struct {
	recs []rec
	subs []frame // the headers' frames, written when each transaction ends
}

// copyTo builds f's tree into x, reusing x's storage: the hops and tags
// of f's records in order, and a child built in turn from each header.
// Every node is finalized at its own end. It returns the index of the
// first record past f's.
func (l *Log) copyTo(x *Txn, f *frame) int {
	*x = Txn{
		ID: f.id, Class: f.class, Core: f.core, Addr: f.addr, StartFS: f.start,
		Hops: x.Hops[:0], Tags: x.Tags[:0], Kids: x.Kids[:0],
		DroppedHops: f.droppedHops, DroppedKids: f.droppedKids, sampled: f.sampled,
	}
	i, end := f.mark, f.mark+f.n
	for i < end {
		r := &l.recs[i]
		i++
		s := &sites[r.site]
		switch r.kind {
		case recTag:
			x.Tags = append(x.Tags, s.tag)
		case recSub:
			k := grow(&x.Kids) // an evicted tree's child, or nil
			if *k == nil {
				*k = new(Txn)
			}
			i = l.copyTo(*k, &l.subs[r.num])
		default:
			x.Hops = append(x.Hops, Hop{Component: s.component, Op: s.op, StartFS: r.start, EndFS: r.end, text: s.tag, num: r.num, kind: r.kind})
		}
	}
	x.finalize(f.end)
	return i
}

// reservoir keeps the K slowest finished transactions of one class,
// slowest first. K is tiny, so an insertion sort beats a heap.
type reservoir []*Txn

// offer makes room for a transaction of latency lat if it ranks among
// the k slowest and returns the tree to copy it into (the one it evicts,
// or a new one), or nil if the transaction is not kept.
func (r *reservoir) offer(k int, lat sim.Time, id uint64) *Txn {
	txs := *r
	n := len(txs)
	if n == k && lat <= txs[n-1].Latency() {
		return nil
	}
	i := sort.Search(n, func(i int) bool {
		l := txs[i].Latency()
		// Slowest first; among equal latencies the earliest ID wins, so
		// the content does not depend on arrival order.
		return l < lat || (l == lat && txs[i].ID > id)
	})
	var x *Txn
	if n == k {
		x = txs[n-1]
	} else {
		x = new(Txn)
		txs = append(txs, nil)
	}
	copy(txs[i+1:], txs[i:])
	txs[i] = x
	*r = txs
	return x
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

	serial, nextID uint64
	stack          []frame
	log            Log // the synchronous roots' records
	reservoirs     [numClasses]reservoir
	hist           [numClasses]stats.Histogram // latency per class
	nocWait        stats.Histogram             // arbitration wait per NoC transfer
	kept           []*Txn
	dropped        uint64
}

// New returns a Tracer with exemplar capture on (DefaultK per class)
// and sampled capture off.
func New() *Tracer { return &Tracer{} }

// kOrDefault is the reservoir depth: K, DefaultK for 0, none below 0.
func (t *Tracer) kOrDefault() int { return max(cmp.Or(t.K, DefaultK), 0) }

// keepsTrees reports whether any tree can be retained, by a reservoir
// or by the sampler. A tracer that can keep none writes no log.
func (t *Tracer) keepsTrees() bool { return t.K >= 0 || t.SampleEvery != 0 }

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
	return t.SampleEvery != 0 && splitmix64(t.serial^t.Seed)%t.SampleEvery == 0
}

// Begin opens a transaction at the top of the active stack and makes it
// the target of subsequent Hop calls. With an enclosing transaction
// active, the new one is a nested sub-transaction (it will attach to
// its parent when it ends); otherwise it is a root, which consumes a
// sampling serial.
func (t *Tracer) Begin(class Class, core int, addr uint64, at sim.Time) {
	if t != nil {
		t.begin(class, core, addr, at)
	}
}

// begin is Begin on a live Tracer, out of line so the nil check inlines.
func (t *Tracer) begin(class Class, core int, addr uint64, at sim.Time) {
	t.nextID++
	// Field by field: a composite literal would be built aside and copied.
	f := grow(&t.stack)
	f.id, f.class, f.sampled, f.tags, f.core, f.addr, f.start = t.nextID, class, false, 0, core, addr, at
	f.log, f.mark, f.hops, f.kids, f.droppedHops, f.droppedKids = &t.log, 0, 0, 0, 0, 0
	if !t.keepsTrees() {
		return
	}
	if n := len(t.stack) - 1; n == 0 {
		f.sampled = t.sampleRoot()
	} else {
		// A header heads a nested transaction's records.
		p := &t.stack[n-1]
		l := p.log
		h := grow(&l.recs)
		h.kind, h.num = recSub, uint64(len(l.subs))
		grow(&l.subs)
		f.sampled, f.log, f.mark = p.sampled, l, len(l.recs)
	}
}

// Detached is an open detached root, held by its issuer between
// BeginDetached and EndDetached.
type Detached struct{ f frame }

// BeginDetached opens a root transaction without activating it: DMA
// commands live across many engine steps interleaved with other
// commands, so the DMA engine holds the handle and brackets each beat
// with Resume/Suspend. Its records go to l, which must hold no other
// transaction's records from its first Resume to its EndDetached (a DMA
// engine runs one command at a time, so one log serves all of them).
// Like any root, it consumes a sampling serial.
func (t *Tracer) BeginDetached(l *Log, class Class, core int, addr uint64, at sim.Time) Detached {
	if t == nil {
		return Detached{}
	}
	t.nextID++
	return Detached{frame{id: t.nextID, class: class, core: core, addr: addr, start: at, log: l,
		sampled: t.keepsTrees() && t.sampleRoot()}}
}

// Resume makes a detached transaction the active one (nested hooks —
// uncore, NoC — then attribute to it) until the matching Suspend.
func (t *Tracer) Resume(d *Detached) {
	if t != nil {
		t.stack = append(t.stack, d.f)
	}
}

// Suspend deactivates d, the active transaction, without ending it.
func (t *Tracer) Suspend(d *Detached) {
	if t != nil && len(t.stack) > 0 {
		d.f = t.stack[len(t.stack)-1]
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// Hop records one interval at site against the active transaction
// (no-op when none is active).
func (t *Tracer) Hop(site Site, start, end sim.Time) {
	if t != nil {
		t.hop(site, start, end, 0, tagText)
	}
}

// HopNum is Hop with a numeric outcome tag of the given kind; the tag
// text is rendered only when the tree is read.
func (t *Tracer) HopNum(site Site, start, end sim.Time, kind TagKind, n uint64) {
	if t != nil {
		t.hop(site, start, end, n, kind)
	}
}

// hop adds a hop to the active transaction, if any and if its tree can
// be kept. Hop and HopNum test only for a nil Tracer and call it, which
// keeps them small enough to inline: a disabled tracer costs their
// callers one compare.
func (t *Tracer) hop(site Site, start, end sim.Time, num uint64, kind TagKind) {
	if n := len(t.stack); n > 0 && t.keepsTrees() {
		t.stack[n-1].hop(site, start, end, num, kind)
	}
}

// Tag annotates the active transaction with the outcome tag site
// registers ("mesi=I->E", "src=owner_remote_m", ...); a no-op when none
// is active or no tree can be kept. Tags beyond the cap are dropped
// silently — they are annotations, not accounting.
func (t *Tracer) Tag(site Site) {
	if t == nil || len(t.stack) == 0 || !t.keepsTrees() {
		return
	}
	if f := &t.stack[len(t.stack)-1]; f.tags < maxTags {
		f.tags++
		r := grow(&f.log.recs)
		r.site, r.kind = site, recTag
	}
}

// SetClass reclassifies the active transaction; the uncore uses it to
// turn a provisional l2_hit into a dram_fill once the L2 lookup misses.
func (t *Tracer) SetClass(c Class) {
	if t != nil && len(t.stack) > 0 {
		t.stack[len(t.stack)-1].class = c
	}
}

// Transfer records one NoC transfer that arrived at start, waited wait
// for arbitration and delivered at end: the wait goes into the
// noc_acquire histogram, and a hop at site, tagged with a nonzero wait,
// onto the active transaction. Like Hop, it inlines on a nil Tracer.
func (t *Tracer) Transfer(site Site, start, end, wait sim.Time) {
	if t != nil {
		t.transfer(site, start, end, wait)
	}
}

func (t *Tracer) transfer(site Site, start, end, wait sim.Time) {
	t.nocWait.Record(uint64(wait))
	kind := tagText
	if wait > 0 {
		kind = TagWait
	}
	t.hop(site, start, end, uint64(wait), kind)
}

// End closes the active transaction at the given completion time (see
// finish); a nested one attaches to the transaction below it.
func (t *Tracer) End(at sim.Time) {
	if t != nil && len(t.stack) > 0 {
		t.end(at)
	}
}

// end pops and finishes the active transaction, out of line so End's
// checks inline.
func (t *Tracer) end(at sim.Time) {
	n := len(t.stack) - 1
	var p *frame
	if n > 0 {
		p = &t.stack[n-1]
	}
	f := &t.stack[n]
	t.stack = t.stack[:n]
	t.finish(f, p, at)
}

// EndDetached closes a detached transaction (which must not be on the
// active stack — the DMA engine suspends it between beats) and empties
// its log.
func (t *Tracer) EndDetached(d *Detached, at sim.Time) {
	if t != nil {
		t.finish(&d.f, nil, at)
	}
}

// finish records f's latency in its class histogram and copies f's tree
// into its class reservoir if admitted. A nested f then attaches to its
// parent p as a child (its records stay in the log) and an aggregate
// hop, so p's conservation covers it. A root's sampled tree is copied to
// the kept list, and the root's records leave its log.
func (t *Tracer) finish(f, p *frame, at sim.Time) {
	t.hist[f.class].Record(uint64(at - f.start))
	if !t.keepsTrees() {
		return
	}
	l := f.log
	f.end, f.n = at, len(l.recs)-f.mark
	if k := t.kOrDefault(); k > 0 {
		if x := t.reservoirs[f.class].offer(k, at-f.start, f.id); x != nil {
			l.copyTo(x, f)
		}
	}
	if p != nil {
		if p.kids < maxKids {
			p.kids++
			l.subs[l.recs[f.mark-1].num] = *f
		} else {
			p.droppedKids++
			l.subs = l.subs[:l.recs[f.mark-1].num]
			l.recs = l.recs[:f.mark-1]
		}
		p.hop(childSites[f.class], f.start, at, f.id, tagChild)
		return
	}
	if f.sampled {
		if len(t.kept) < t.keptCapOrDefault() {
			t.kept = append(t.kept, new(Txn))
			l.copyTo(t.kept[len(t.kept)-1], f)
		} else {
			t.dropped++
		}
	}
	l.recs, l.subs = l.recs[:0], l.subs[:0]
}

// Exemplars returns the worst-K reservoir of one class, slowest first.
func (t *Tracer) Exemplars(c Class) []*Txn {
	if t == nil || c >= numClasses {
		return nil
	}
	return t.reservoirs[c]
}

// Count returns how many transactions of a class completed.
func (t *Tracer) Count(c Class) uint64 {
	if t == nil || c >= numClasses {
		return 0
	}
	return t.hist[c].Count()
}

// Latency returns the report's latency block: the exported classes'
// histograms and the NoC arbitration waits.
func (t *Tracer) Latency() *ledger.LatencySummary {
	return &ledger.LatencySummary{
		ReadMiss:   ledger.DistOf(&t.hist[ReadMiss]),
		WriteMiss:  ledger.DistOf(&t.hist[WriteMiss]),
		L2Hit:      ledger.DistOf(&t.hist[L2Hit]),
		DRAMFill:   ledger.DistOf(&t.hist[DRAMFill]),
		DMAGet:     ledger.DistOf(&t.hist[DMAGet]),
		DMAPut:     ledger.DistOf(&t.hist[DMAPut]),
		NoCAcquire: ledger.DistOf(&t.nocWait),
	}
}

// Kept returns the sampled transaction trees in (start, ID) order.
func (t *Tracer) Kept() []*Txn {
	if t == nil {
		return nil
	}
	out := append([]*Txn(nil), t.kept...)
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
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
