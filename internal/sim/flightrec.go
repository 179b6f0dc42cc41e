package sim

// Flight recorder: a fixed-size ring of the last K scheduler events —
// dispatches, inline steps, blocks, unblocks — so that when a
// run dies (deadlock, watchdog abort, task panic) the typed failure
// carries not just where every task stood (EngineState.Tasks) but the
// event history that led there. The run layer arms it per job; disabled
// it costs one always-false nil compare at each record site
// (BenchmarkFlightRecorderDisabled gates this against the unrecorded
// dispatch benchmarks), and the Sync fast path records nothing in
// either mode, so fast-path cost is untouched.
//
// Ownership follows the engine's scheduling state: events are recorded
// only by the dispatch loop and the coroutine it runs, one at a time, so
// the ring needs no locks.

// flightKind enumerates the recorded scheduler-event kinds.
type flightKind uint8

const (
	flightDispatch   flightKind = iota // the loop resumed a coroutine task (or its host)
	flightInlineStep                   // an inline task's Step ran as a plain call
	flightBlock                        // a task blocked awaiting an Unblock
	flightUnblock                      // a blocked task was made runnable
	numFlightKinds
)

var flightKindNames = [numFlightKinds]string{
	"dispatch", "inline-step", "block", "unblock",
}

// flightEvent is one ring slot, kept compact (16 bytes) so recording is
// a word-aligned store pair. The task is stored by spawn id; the name
// is resolved from Engine.tasks only at snapshot time.
type flightEvent struct {
	time Time
	id   int32
	kind flightKind
}

// flightRecorder is the ring. cap(ring) is a power of two so the write
// index is a mask, not a modulo.
type flightRecorder struct {
	ring []flightEvent
	mask uint64
	n    uint64 // events ever recorded; n&mask is the next write slot
}

func (r *flightRecorder) record(ev flightEvent) {
	r.ring[r.n&r.mask] = ev
	r.n++
}

// SetFlightRecorder arms the engine's flight recorder to retain the
// last k scheduler events (rounded up to a power of two); k <= 0
// disables it. Call before Run.
func (e *Engine) SetFlightRecorder(k int) {
	if k <= 0 {
		e.fr = nil
		return
	}
	size := 1
	for size < k {
		size <<= 1
	}
	e.fr = &flightRecorder{ring: make([]flightEvent, size), mask: uint64(size - 1)}
}

// record appends a scheduler event for task t. The nil compare is the
// entire disabled cost; both halves inline into the record sites.
func (e *Engine) record(k flightKind, t *Task) {
	if fr := e.fr; fr != nil {
		fr.record(flightEvent{time: t.time, id: int32(t.id), kind: k})
	}
}

// FlightEvent is one scheduler event as carried in an EngineState: what
// the flight recorder logged, with the task name resolved.
type FlightEvent struct {
	Time Time   `json:"time_fs"`
	Kind string `json:"kind"`
	Task string `json:"task"`
	ID   int    `json:"id"`
}

// snapshot renders the ring oldest-first, resolving task names. Domain-
// only (it reads the ring and tasks without locks).
func (r *flightRecorder) snapshot(tasks []*Task) []FlightEvent {
	if r == nil || r.n == 0 {
		return nil
	}
	count := r.n
	if count > uint64(len(r.ring)) {
		count = uint64(len(r.ring))
	}
	out := make([]FlightEvent, 0, count)
	for i := r.n - count; i < r.n; i++ {
		ev := r.ring[i&r.mask]
		fe := FlightEvent{Time: ev.time, Kind: flightKindNames[ev.kind], ID: int(ev.id)}
		if int(ev.id) < len(tasks) {
			fe.Task = tasks[ev.id].name
		}
		out = append(out, fe)
	}
	return out
}
