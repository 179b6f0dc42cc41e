// Package dma implements the streaming model's per-core DMA engine
// (Table 2): sequential, strided and indexed transfers between the local
// store and the global address space, with command queuing and up to 16
// outstanding 32-byte accesses. Each engine runs as its own simulation
// task so that its traffic contends with everything else in timestamp
// order, and software overlaps it with computation (double-buffering —
// the paper's "macroscopic prefetching").
package dma

import (
	"fmt"

	"repro/internal/ledger"
	"repro/internal/lstore"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/txntrace"
	"repro/internal/uncore"
)

// Outstanding is the number of concurrent 32-byte accesses the engine
// sustains (Table 2).
const Outstanding = 16

// SetupInstr is the instruction overhead of programming one DMA command
// ("it often has to execute additional instructions to set up DMA
// transfers"); the coherent model's bulk prefetch pays it too.
const SetupInstr = 8

// Dir is a transfer direction.
type Dir uint8

// Transfer directions.
const (
	Get Dir = iota // off-chip / L2 -> local store
	Put            // local store -> off-chip / L2
)

// Tag identifies a queued command; Wait blocks until it completes.
type Tag uint64

// command describes one queued transfer.
type command struct {
	tag   Tag
	dir   Dir
	base  mem.Addr
	bytes uint64
	// Strided transfers move count elements of elemBytes separated by
	// stride. stride == 0 means a plain sequential transfer.
	elemBytes uint64
	stride    uint64
	count     uint64
	// Indexed transfers move one elemBytes element per address.
	index []mem.Addr
	// issued is when the core queued the command; completion minus
	// issued (queuing included) is the command-latency distribution.
	issued sim.Time
	// ctx is the command's detached transaction trace (nil when tracing
	// is off). Commands interleave with other engine work across steps,
	// so the trace lives on the command, resumed around each beat.
	ctx *txntrace.Txn
}

// Stats counts engine activity.
type Stats struct {
	Commands    uint64
	GetBytes    uint64
	PutBytes    uint64
	Beats       uint64 // 32-byte line beats
	SparseElems uint64 // strided/indexed elements
	BusyTime    sim.Time

	// Per-direction command counts and queue-to-completion latency
	// accumulators (diagnostics, not time series — like coher.Stats,
	// they stay out of Snapshot so probe columns are stable).
	GetCommands uint64
	PutCommands uint64
	GetLatency  sim.Time
	PutLatency  sim.Time
}

// AvgGetLatency returns the mean get-command completion latency.
func (s Stats) AvgGetLatency() sim.Time {
	if s.GetCommands == 0 {
		return 0
	}
	return s.GetLatency / sim.Time(s.GetCommands)
}

// AvgPutLatency returns the mean put-command completion latency.
func (s Stats) AvgPutLatency() sim.Time {
	if s.PutCommands == 0 {
		return 0
	}
	return s.PutLatency / sim.Time(s.PutCommands)
}

// dmaState is the engine state machine's resume point (where a
// coroutine body would be suspended).
type dmaState uint8

const (
	// dmaIdle: between commands; check the queue (block when empty).
	dmaIdle dmaState = iota
	// dmaBeat: a beat's issue yield has happened; perform the access,
	// then issue the next beat.
	dmaBeat
	// dmaTail: the final catch-up to the last outstanding beat has
	// yielded; finish the command.
	dmaTail
)

// beat is one 32-byte (or sparse-element) access of a command.
type beat struct {
	addr   mem.Addr
	n      uint64 // bytes moved by this beat
	sparse bool   // strided/indexed element vs whole-line beat
	full   bool   // line beat covers the whole line (Put write-allocate)
}

// Engine is one core's DMA engine.
type Engine struct {
	name    string
	cluster int
	unc     *uncore.Uncore
	ls      *lstore.Store
	task    *sim.Task
	period  sim.Time // network clock period: one access issued per cycle

	window   int
	queue    []command
	nextTag  Tag
	done     map[Tag]sim.Time
	lastDone Tag
	idle     bool
	stopping bool

	waiter     *sim.Task
	waitingFor Tag

	// State-machine registers: the engine body runs as an inline task
	// (sim.Runnable), so the locals a coroutine body would keep on its
	// stack live here between steps.
	pc       dmaState
	cur      command
	cmdStart sim.Time
	beatNo   int
	pending  beat
	last     sim.Time
	ring     []sim.Time // completion times of the window's accesses
	// Beat-iterator cursor: element index, and the line walk within the
	// current element for sequential/wide-strided shapes.
	ei              uint64
	la, lbase, lend mem.Addr

	stats Stats
	lat   *ledger.Latency  // nil = latency histograms disabled
	txn   *txntrace.Tracer // nil = transaction tracing disabled
	core  int              // owning core, stamped on traced commands
}

// New creates an engine for a core in the given cluster. Call Spawn to
// attach it to the simulation before queueing commands.
func New(name string, cluster int, unc *uncore.Uncore, ls *lstore.Store) *Engine {
	return NewWithWindow(name, cluster, unc, ls, 0)
}

// NewWithWindow creates an engine with an explicit outstanding-access
// window (0 = the paper's 16). An ablation knob.
func NewWithWindow(name string, cluster int, unc *uncore.Uncore, ls *lstore.Store, window int) *Engine {
	if window <= 0 {
		window = Outstanding
	}
	return &Engine{
		name:    name,
		cluster: cluster,
		unc:     unc,
		ls:      ls,
		period:  unc.Network().Config().Clock.Period,
		window:  window,
		ring:    make([]sim.Time, window),
		done:    make(map[Tag]sim.Time),
	}
}

// Spawn starts the engine's simulation task. The body is a state
// machine (Step), so the task is inline: the engine's beats dispatch as
// plain function calls in the engine's Run loop, with no coroutine
// switch — the hot "kernel loop" of every streaming
// figure.
func (e *Engine) Spawn(eng *sim.Engine, start sim.Time) {
	e.task = eng.SpawnInline(e.name, start, e)
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// SetLatency attaches the run's service-time histograms (nil disables
// recording).
func (e *Engine) SetLatency(l *ledger.Latency) { e.lat = l }

// SetTxnTrace attaches the run's transaction tracer (nil disables it);
// core is the owning core, stamped on each traced command.
func (e *Engine) SetTxnTrace(t *txntrace.Tracer, core int) {
	e.txn = t
	e.core = core
}

// QueuedCommands returns the number of commands waiting in the queue
// (not including the one being processed). A probe-layer gauge: a deep
// queue means software issued work far ahead of the engine.
func (e *Engine) QueuedCommands() int { return len(e.queue) }

// Busy reports whether the engine is processing a command (probe-layer
// gauge; together with cpu instruction deltas it shows the DMA/compute
// overlap the streaming model's double-buffering is built on).
func (e *Engine) Busy() bool { return !e.idle }

// Add accumulates src into s (aggregating per-core engines).
func (s *Stats) Add(src Stats) {
	s.Commands += src.Commands
	s.GetBytes += src.GetBytes
	s.PutBytes += src.PutBytes
	s.Beats += src.Beats
	s.SparseElems += src.SparseElems
	s.BusyTime += src.BusyTime
	s.GetCommands += src.GetCommands
	s.PutCommands += src.PutCommands
	s.GetLatency += src.GetLatency
	s.PutLatency += src.PutLatency
}

// Snapshot emits the counters in a fixed order (probe layer).
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("commands", float64(s.Commands))
	put("get_bytes", float64(s.GetBytes))
	put("put_bytes", float64(s.PutBytes))
	put("beats", float64(s.Beats))
	put("sparse_elems", float64(s.SparseElems))
	put("busy_fs", float64(s.BusyTime))
}

// enqueue adds a command and wakes the engine. Must be called from a
// running task (the owning core).
func (e *Engine) enqueue(at sim.Time, c command) Tag {
	if e.stopping {
		panic("dma: enqueue after Stop on " + e.name)
	}
	e.nextTag++
	c.tag = e.nextTag
	c.issued = at
	if e.txn != nil {
		class := txntrace.DMAGet
		if c.dir == Put {
			class = txntrace.DMAPut
		}
		c.ctx = e.txn.BeginDetached(class, e.core, uint64(c.base), at)
	}
	e.queue = append(e.queue, c)
	e.stats.Commands++
	if e.idle {
		e.task.Unblock(at)
		e.idle = false
	}
	return c.tag
}

// Queue enqueues a sequential transfer of nbytes at base.
func (e *Engine) Queue(at sim.Time, dir Dir, base mem.Addr, nbytes uint64) Tag {
	if nbytes == 0 {
		panic("dma: zero-length transfer")
	}
	return e.enqueue(at, command{dir: dir, base: base, bytes: nbytes})
}

// QueueStrided enqueues a transfer of count elements of elemBytes each,
// starting at base with the given stride in bytes.
func (e *Engine) QueueStrided(at sim.Time, dir Dir, base mem.Addr, elemBytes, stride, count uint64) Tag {
	if count == 0 || elemBytes == 0 {
		panic("dma: empty strided transfer")
	}
	if stride == elemBytes {
		return e.Queue(at, dir, base, elemBytes*count)
	}
	return e.enqueue(at, command{dir: dir, base: base, elemBytes: elemBytes, stride: stride, count: count})
}

// QueueIndexed enqueues a gather/scatter of one elemBytes element per
// address.
func (e *Engine) QueueIndexed(at sim.Time, dir Dir, addrs []mem.Addr, elemBytes uint64) Tag {
	if len(addrs) == 0 || elemBytes == 0 {
		panic("dma: empty indexed transfer")
	}
	idx := make([]mem.Addr, len(addrs))
	copy(idx, addrs)
	return e.enqueue(at, command{dir: dir, elemBytes: elemBytes, index: idx})
}

// LastTag returns the most recently issued tag (0 if none).
func (e *Engine) LastTag() Tag { return e.nextTag }

// Done reports whether tag has completed, and its completion time.
func (e *Engine) Done(tag Tag) (sim.Time, bool) {
	t, ok := e.done[tag]
	return t, ok
}

// Wait blocks the calling task until tag completes, returning the
// completion time. The caller charges the wait to its own sync bucket.
func (e *Engine) Wait(caller *sim.Task, tag Tag) sim.Time {
	if tag > e.nextTag {
		panic(fmt.Sprintf("dma: wait for unissued tag %d", tag))
	}
	if t, ok := e.done[tag]; ok {
		delete(e.done, tag)
		return t
	}
	if tag <= e.lastDone {
		return caller.Time() // completed and already collected
	}
	if e.waiter != nil {
		panic("dma: engine " + e.name + " already has a waiter")
	}
	e.waiter = caller
	e.waitingFor = tag
	caller.BlockOn(fmt.Sprintf("dma %s tag %d", e.name, tag))
	t := e.done[tag]
	delete(e.done, tag)
	return t
}

// Stop tells the engine to exit once its queue drains. Must be called
// from a running task. Safe to call more than once.
func (e *Engine) Stop() {
	if e.stopping {
		return
	}
	e.stopping = true
	if e.idle {
		e.task.Unblock(e.task.Time())
		e.idle = false
	}
}

// Step is the engine task body as a resumable state machine
// (sim.Runnable): the nested loops — pop a command, issue its beats with
// up to Outstanding in flight, catch up to the last completion —
// flattened so every yield point (the per-beat Sync, the idle BlockOn,
// the final AdvanceTo) becomes a return. The yield placement is fixed:
// moving one would change the schedule and the paperbench output.
func (e *Engine) Step(t *sim.Task) sim.Status {
	for {
		switch e.pc {
		case dmaIdle:
			if len(e.queue) == 0 {
				if e.stopping {
					return sim.StatusDone
				}
				e.idle = true
				t.WillBlockOn("dma " + e.name + " command queue")
				return sim.StatusBlocked // resumes here: recheck the queue
			}
			e.cur = e.queue[0]
			e.queue[0] = command{} // e.cur now holds the trace handle
			e.queue = e.queue[1:]
			e.cmdStart = t.Time()
			if e.cur.ctx != nil && e.cmdStart > e.cur.issued {
				e.txn.Resume(e.cur.ctx)
				e.txn.Hop("dma", "queue", e.cur.issued, e.cmdStart)
				e.txn.Suspend()
			}
			e.beatNo = 0
			e.last = 0
			e.startIter()
			if s, yield := e.issueNext(t); yield {
				return s
			}
		case dmaBeat:
			// Past the beat's sync: perform the access at the synced time.
			// The command's trace is active only for the duration of the
			// access, so the nested uncore/NoC hops attribute to it while
			// other tasks' hops (between engine steps) cannot.
			e.txn.Resume(e.cur.ctx)
			done := e.performBeat(t)
			e.txn.Suspend()
			e.ring[e.beatNo%e.window] = done
			if done > e.last {
				e.last = done
			}
			e.beatNo++
			if s, yield := e.issueNext(t); yield {
				return s
			}
		case dmaTail:
			e.finishCmd(t.Time())
			e.pc = dmaIdle
		}
	}
}

// issueNext advances the beat iterator: it either issues the next beat
// (advance one network cycle, clamp to the outstanding window, yield
// for the beat's sync) or ends the command (yielding once more if the
// engine must catch up to the last outstanding completion). The bool
// result reports whether Step must return s now.
func (e *Engine) issueNext(t *sim.Task) (sim.Status, bool) {
	b, ok := e.nextBeat()
	if !ok {
		if e.last > t.Time() {
			t.SetTime(e.last)
			e.pc = dmaTail
			return sim.StatusRunning, true
		}
		e.finishCmd(t.Time())
		e.pc = dmaIdle
		return 0, false
	}
	e.pending = b
	// Engine issues one access per network cycle.
	t.Advance(e.period)
	// Respect the outstanding-access window.
	if prev := e.ring[e.beatNo%e.window]; e.beatNo >= e.window && prev > t.Time() {
		t.SetTime(prev)
	}
	// The per-beat yield cannot convert to a local charge: the access
	// touches the shared uncore servers. While the DMA task streams
	// behind its blocked core it is globally minimal, so the dispatcher
	// re-steps it without touching the heap (the inline spin, the
	// state-machine analog of the Sync fast path).
	e.pc = dmaBeat
	return sim.StatusRunning, true
}

// startIter resets the beat iterator for e.cur: element 0, and for the
// line-walk shapes (sequential, wide strided) the first line of the
// first element.
func (e *Engine) startIter() {
	e.ei = 0
	c := &e.cur
	switch {
	case c.index != nil:
	case c.stride != 0 && c.elemBytes < mem.LineSize:
	case c.stride != 0:
		// Wide strided elements (row strips of an image, matrix tiles)
		// transfer as whole-line beats through the cached path.
		e.lbase = c.base
		e.lend = c.base + mem.Addr(c.elemBytes)
		e.la = e.lbase.Line()
	default:
		// Sequential: whole 32-byte beats; a partial tail beat of a Put
		// is a narrow write (the L2 refills for it).
		e.lbase = c.base
		e.lend = c.base + mem.Addr(c.bytes)
		e.la = e.lbase.Line()
	}
}

// nextBeat yields the current command's next access and bumps the
// traffic counters for it just before its issue.
func (e *Engine) nextBeat() (beat, bool) {
	c := &e.cur
	switch {
	case c.index != nil:
		if e.ei >= uint64(len(c.index)) {
			return beat{}, false
		}
		a := c.index[e.ei]
		e.ei++
		e.countSparse()
		return beat{addr: a, n: c.elemBytes, sparse: true}, true
	case c.stride != 0 && c.elemBytes < mem.LineSize:
		if e.ei >= c.count {
			return beat{}, false
		}
		a := c.base + mem.Addr(e.ei*c.stride)
		e.ei++
		e.countSparse()
		return beat{addr: a, n: c.elemBytes, sparse: true}, true
	default:
		for {
			if e.la < e.lend {
				lo, hi := e.la, e.la+mem.LineSize
				if e.lbase > lo {
					lo = e.lbase
				}
				if e.lend < hi {
					hi = e.lend
				}
				n := uint64(hi - lo)
				a := e.la
				e.la += mem.LineSize
				e.stats.Beats++
				e.ls.CountDMABeat()
				if c.dir == Get {
					e.stats.GetBytes += n
				} else {
					e.stats.PutBytes += n
				}
				return beat{addr: a, n: n, full: n == mem.LineSize}, true
			}
			// Next wide-strided element; sequential commands have one.
			e.ei++
			if c.stride == 0 || e.ei >= c.count {
				return beat{}, false
			}
			e.lbase = c.base + mem.Addr(e.ei*c.stride)
			e.lend = e.lbase + mem.Addr(c.elemBytes)
			e.la = e.lbase.Line()
		}
	}
}

// countSparse bumps the per-element counters shared by the strided and
// indexed shapes.
func (e *Engine) countSparse() {
	e.stats.SparseElems++
	e.ls.CountDMABeat()
	if e.cur.dir == Get {
		e.stats.GetBytes += e.cur.elemBytes
	} else {
		e.stats.PutBytes += e.cur.elemBytes
	}
}

// performBeat runs the pending access at the task's (synced) time and
// returns its completion time.
func (e *Engine) performBeat(t *sim.Task) sim.Time {
	at := t.Time()
	b := e.pending
	c := &e.cur
	if b.sparse {
		if c.dir == Get {
			d := e.unc.ReadSparse(at, e.cluster, b.addr, c.elemBytes)
			return e.unc.Network().BusData(d, e.cluster, c.elemBytes)
		}
		d := e.unc.Network().BusData(at, e.cluster, c.elemBytes)
		return e.unc.WriteSparse(d, e.cluster, b.addr, c.elemBytes)
	}
	if c.dir == Get {
		d, _ := e.unc.ReadLine(at, e.cluster, b.addr)
		return e.unc.Network().BusData(d, e.cluster, b.n)
	}
	d := e.unc.Network().BusData(at, e.cluster, b.n)
	return e.unc.WriteLine(d, e.cluster, b.addr, b.n, b.full)
}

// finishCmd retires the current command at completion time done:
// latency accounting, the done map, and the waiter wake.
func (e *Engine) finishCmd(done sim.Time) {
	e.stats.BusyTime += done - e.cmdStart
	cmdLat := done - e.cur.issued
	if e.cur.dir == Get {
		e.stats.GetCommands++
		e.stats.GetLatency += cmdLat
		if e.lat != nil {
			e.lat.DMAGet.Record(uint64(cmdLat))
		}
	} else {
		e.stats.PutCommands++
		e.stats.PutLatency += cmdLat
		if e.lat != nil {
			e.lat.DMAPut.Record(uint64(cmdLat))
		}
	}
	e.txn.EndDetached(e.cur.ctx, done)
	e.cur.ctx = nil // the tracer may recycle the ended transaction
	e.done[e.cur.tag] = done
	e.lastDone = e.cur.tag
	if e.waiter != nil && e.waitingFor <= e.cur.tag {
		w := e.waiter
		e.waiter = nil
		w.Unblock(done)
	}
	e.cur = command{} // release the indexed shape's address slice
}
