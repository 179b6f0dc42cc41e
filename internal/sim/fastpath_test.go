package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestDeadlockMessageNamesBlockedTasks pins the deadlock diagnostic: the
// panic must name every blocked task, sorted, so a model bug is
// attributable without a debugger.
func TestDeadlockMessageNamesBlockedTasks(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		want := "sim: deadlock: blocked tasks: alpha, beta"
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock panic = %q, want it to contain %q", msg, want)
		}
	}()
	e := NewEngine()
	e.Spawn("beta", 5, func(tk *Task) { tk.Block() })
	e.Spawn("alpha", 0, func(tk *Task) { tk.Block() })
	e.Run()
}

// TestDeadlockMessageNamesServerAndSyncTime pins the labeled deadlock
// diagnostic: a task parked on a resource via BlockOn — here waiting for
// a Server, the pattern the model layers use for contended hardware —
// must show up with the server's name and the task's last sync time, so
// a resource deadlock is attributable to the resource, not just the
// tasks. Unlabeled blockers must keep rendering as bare names alongside.
func TestDeadlockMessageNamesServerAndSyncTime(t *testing.T) {
	srv := NewServer("dram.ch0")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected deadlock panic")
		}
		msg := fmt.Sprint(r)
		want := "sim: deadlock: blocked tasks: plain, waiter (awaiting server dram.ch0, last sync 300.000ns)"
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock panic = %q, want it to contain %q", msg, want)
		}
		de, ok := r.(*DeadlockError)
		if !ok {
			t.Fatalf("deadlock panic value = %T, want *DeadlockError", r)
		}
		for _, ts := range de.State.Tasks {
			if ts.Name == "waiter" {
				if ts.WaitingOn != "server dram.ch0" || ts.Time != 300*Nanosecond {
					t.Fatalf("waiter snapshot = %+v, want WaitingOn=%q Time=300ns", ts, "server dram.ch0")
				}
			}
		}
	}()
	e := NewEngine()
	e.Spawn("waiter", 0, func(tk *Task) {
		tk.Advance(300 * Nanosecond)
		tk.Sync()
		srv.Acquire(tk.Time(), 100*Nanosecond)
		tk.BlockOn("server " + srv.Name())
	})
	e.Spawn("plain", 10, func(tk *Task) { tk.Block() })
	e.Run()
}

// step is one observable scheduling event: a task returning from Sync at
// a local time. The sequence of steps is the engine's event order.
type step struct {
	id int
	tm Time
}

// runInterleaveStress runs two twin tasks in lockstep (every Sync is a
// tiebreak on equal timestamps, forcing the slow path) alongside a
// fine-grained task that stays behind them (its Syncs are all fast-path
// eligible), so both dispatch paths interleave constantly.
func runInterleaveStress(disableFastPath bool) []step {
	e := NewEngine()
	e.noFastPath = disableFastPath
	var order []step
	for i := 0; i < 2; i++ {
		id := i
		e.Spawn("twin", 0, func(tk *Task) {
			for j := 0; j < 500; j++ {
				tk.Advance(10)
				tk.Sync()
				order = append(order, step{id, tk.Time()})
			}
		})
	}
	e.Spawn("fine", 0, func(tk *Task) {
		for j := 0; j < 5000; j++ {
			tk.Advance(1)
			tk.Sync()
			order = append(order, step{2, tk.Time()})
		}
	})
	e.Run()
	return order
}

// TestFastSlowPathInterleave asserts the stress schedule is deterministic
// and identical with the fast path enabled and disabled, including the
// equal-timestamp id tiebreak between the twins.
func TestFastSlowPathInterleave(t *testing.T) {
	fast := runInterleaveStress(false)
	again := runInterleaveStress(false)
	slow := runInterleaveStress(true)
	if len(fast) != 2*500+5000 {
		t.Fatalf("recorded %d steps, want %d", len(fast), 2*500+5000)
	}
	for i := range fast {
		if fast[i] != again[i] {
			t.Fatalf("step %d differs across identical runs: %v vs %v", i, fast[i], again[i])
		}
		if fast[i] != slow[i] {
			t.Fatalf("step %d differs with fast path off: fast %v, slow %v", i, fast[i], slow[i])
		}
	}
	// The twins' mutual order at equal timestamps must follow spawn id.
	var twins []step
	for _, s := range fast {
		if s.id < 2 {
			twins = append(twins, s)
		}
	}
	for i := 0; i < len(twins); i += 2 {
		if twins[i].tm != twins[i+1].tm {
			t.Fatalf("twin steps %d,%d at different times: %v", i, i+1, twins[i:i+2])
		}
	}
}

// scheduleDigest folds a step sequence into a short hex digest, so a
// recorded schedule can be pinned as a golden string.
func scheduleDigest(order []step) string {
	h := sha256.New()
	var b [16]byte
	for _, s := range order {
		binary.LittleEndian.PutUint64(b[:8], uint64(s.id))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.tm))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkScheduleGoldens runs schedule for every seed with the fast path on
// and off: both must reproduce the seed's golden digest. The goldens were
// recorded from the earlier channel-handoff engine (with its fast-path,
// handoff and inline on/off corners all agreeing), so they pin the
// coroutine engine to the schedule that engine produced.
func checkScheduleGoldens(t *testing.T, goldens []string, schedule func(seed int64, noFastPath bool) []step) {
	t.Helper()
	for seed, want := range goldens {
		for _, noFastPath := range []bool{false, true} {
			if got := scheduleDigest(schedule(int64(seed), noFastPath)); got != want {
				t.Errorf("seed %d (noFastPath=%v): schedule digest %s, golden %s", seed, noFastPath, got, want)
			}
		}
	}
}

// syncSchedule is a random task set (random start times, random
// per-step advances including zero, so equal timestamps are common)
// whose tasks only Sync.
func syncSchedule(seed int64, noFastPath bool) []step {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.noFastPath = noFastPath
	var order []step
	nTasks := 2 + rng.Intn(6)
	for i := 0; i < nTasks; i++ {
		id := i
		steps := 20 + rng.Intn(80)
		deltas := make([]Time, steps)
		for j := range deltas {
			deltas[j] = Time(rng.Intn(5)) // zeros exercise the tiebreak
		}
		e.Spawn(fmt.Sprintf("t%d", i), Time(rng.Intn(3)), func(tk *Task) {
			for _, d := range deltas {
				tk.Advance(d)
				tk.Sync()
				order = append(order, step{id, tk.Time()})
			}
		})
	}
	e.Run()
	return order
}

// syncScheduleGoldens holds syncSchedule's digest for seeds 0..49.
var syncScheduleGoldens = []string{
	"c875cf9d0b96c9bb", "ef755d4d7f5f1479", "e08d337645d3313c", "021a15094a849e32", "78a5a79e513a9d95",
	"355c08299f84f853", "6fc0cac527b38b66", "7a6990d08afd9652", "5893e2a0e2222604", "f0712c7b3111fd69",
	"d26d7e012ea8914f", "80f82eb577316251", "f1a46bb576a9d0fa", "8967c1b0e9807d25", "35422191ba7b7b0a",
	"30e7f93cecabd9ac", "29cb0461b33920c8", "dbbcab85463f02b6", "a1dcf20da732d37c", "51685f5681f6158e",
	"be1ce2dcde881c45", "8865a0875ba3bdbc", "058a337e984c4539", "399f91b7382dd801", "894a6a4560fe3fbc",
	"ad0b541b748536a6", "8b6b869ecd2ffa90", "00d1b35b3dcfd005", "670da373202a3f1d", "de98e752971d1836",
	"fba341600c7bb6e2", "3e4e782e7fecd3f8", "7be8bbbb32393582", "9ca9a36cec6d597c", "1ba6dae8c03057b4",
	"41caeeb271dde734", "08f21f23913f662f", "110280bbadb97268", "8716f6a8cde2d837", "5ef7ec7a500aac19",
	"9d30042e4e91172a", "8cc700f190d8af36", "26db6b0b984373fe", "2ef7f5b5c08b83d7", "d66724712d57ba9d",
	"9b6cdbe4adbef347", "65e1e61269d1a900", "8bebdf0a28d3e34f", "79475fc5ab6e4df7", "9a23b1d350615189",
}

// TestFastPathScheduleEquivalence is the randomized-schedule oracle: for
// many random task sets the observable event order must match the
// recorded golden with the Sync fast path on and off. This is the
// determinism proof obligation of the fast path (see the Engine doc
// comment) and of the coroutine dispatch that replaced the handoff.
func TestFastPathScheduleEquivalence(t *testing.T) {
	checkScheduleGoldens(t, syncScheduleGoldens, syncSchedule)
}

// blockSchedule extends syncSchedule with Block/Unblock edges: tasks
// randomly block themselves on a FIFO wait list that the next runner
// drains, so blocks, wakes and plain Syncs interleave.
func blockSchedule(seed int64, noFastPath bool) []step {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.noFastPath = noFastPath
	var order []step
	var waiting []*Task // FIFO of blocked tasks; engine is single-threaded
	liveWorkers := 0
	nTasks := 3 + rng.Intn(5)
	for i := 0; i < nTasks; i++ {
		id := i
		steps := 30 + rng.Intn(50)
		choices := make([]int, steps)
		for j := range choices {
			choices[j] = rng.Intn(10)
		}
		liveWorkers++
		e.Spawn(fmt.Sprintf("t%d", i), Time(rng.Intn(3)), func(tk *Task) {
			for _, c := range choices {
				tk.Advance(Time(c % 5))
				tk.Sync()
				// Wake every current waiter now and then so blocked
				// tasks drain from inside the schedule too.
				for len(waiting) > 0 && c%3 == 0 {
					w := waiting[0]
					waiting = waiting[1:]
					w.Unblock(tk.Time() + Time(c%4))
				}
				// Task 0 never blocks, so the wait list always has a
				// potential drainer among the workers.
				if id != 0 && c%4 == 1 {
					waiting = append(waiting, tk)
					tk.BlockOn("test wait list")
				}
				order = append(order, step{id, tk.Time()})
			}
			liveWorkers--
		})
	}
	// A sweeper in the far future unblocks leftover waiters until every
	// worker has finished (a worker may re-block after a wake, so the
	// sweeper must outlive them all, not just drain the list once).
	e.Spawn("sweeper", 1_000_000, func(tk *Task) {
		for liveWorkers > 0 {
			if len(waiting) > 0 {
				w := waiting[0]
				waiting = waiting[1:]
				w.Unblock(tk.Time())
			}
			tk.Advance(1)
			tk.Sync()
		}
	})
	e.Run()
	return order
}

// blockScheduleGoldens holds blockSchedule's digest for seeds 0..29.
var blockScheduleGoldens = []string{
	"0d258809321a0143", "b4ab70a35b8f65f0", "c422e0db3b85d899", "0491b00187c09b23", "6c777b248b80ace1",
	"a555805e2163fe2b", "6e91b2d40e4e6cfd", "3eb06d28cef3d446", "f9445ece2d7b4907", "0dfae742257c3b79",
	"0fac840367c78fab", "8ea57561ab58e4be", "fd93b01fad3dd8fc", "b7106e227df47356", "cd84487acd8261a2",
	"b28b46fe0c1c4872", "1cf1ac97472e0335", "bdeb2eab5def6dd8", "a0f2f650a11e341b", "8be54611f3257967",
	"f6291288958bca69", "566e4db139307ccf", "4f114dba678f236a", "4465735144023f3a", "94cc52cc06a77eea",
	"14da0e3aa9df2f8c", "7afa737e9181271d", "656c8f942df02cf6", "7c147483bbce7491", "581a63553f93397e",
}

// TestHandoffBlockScheduleEquivalence pins the Block/Unblock schedules,
// each task's wake times included, to the goldens recorded from the
// channel-handoff engine, with the fast path on and off.
func TestHandoffBlockScheduleEquivalence(t *testing.T) {
	checkScheduleGoldens(t, blockScheduleGoldens, blockSchedule)
}

// TestTaskHeapOrdering drives the specialized 4-ary heap directly with
// interleaved pushes and pops and checks it against a sorted reference.
func TestTaskHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h taskHeap
	var ref []*Task
	popRef := func() *Task {
		sort.SliceStable(ref, func(i, j int) bool {
			a, b := ref[i], ref[j]
			return a.time < b.time || a.time == b.time && a.id < b.id
		})
		m := ref[0]
		ref = ref[1:]
		return m
	}
	id := 0
	for round := 0; round < 2000; round++ {
		if len(ref) == 0 || rng.Intn(3) != 0 {
			tk := &Task{id: id, time: Time(rng.Intn(50))}
			id++
			h.push(tk)
			ref = append(ref, tk)
		} else {
			want := popRef()
			if got := h.s[0].t; got != want {
				t.Fatalf("round %d: peek = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
			if got := h.pop(); got != want {
				t.Fatalf("round %d: pop = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
		}
	}
	for len(ref) > 0 {
		want := popRef()
		if got := h.pop(); got != want {
			t.Fatalf("drain: pop = (%d,%d), want (%d,%d)", got.time, got.id, want.time, want.id)
		}
	}
	if h.len() != 0 {
		t.Fatalf("heap not empty after drain: %d left", h.len())
	}
}

// TestTaskHeapReplaceMin drives replaceMin (the loop's single-sift
// requeue+pop) against the plain push-then-pop reference on a
// second heap fed the identical operation stream: the returned minimum
// and the surviving key set must match at every step.
func TestTaskHeapReplaceMin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var h, ref taskHeap
	id := 0
	mk := func() *Task {
		tk := &Task{id: id, time: Time(rng.Intn(40))}
		id++
		return tk
	}
	drain := func(h *taskHeap) []*Task {
		var out []*Task
		for h.len() > 0 {
			out = append(out, h.pop())
		}
		for _, tk := range out { // restore
			h.push(tk)
		}
		return out
	}
	for round := 0; round < 3000; round++ {
		switch {
		case h.len() == 0 || rng.Intn(4) == 0:
			tk := mk()
			h.push(tk)
			ref.push(tk)
		case rng.Intn(3) == 0:
			got, want := h.pop(), ref.pop()
			if got != want {
				t.Fatalf("round %d: pop = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
		default:
			tk := mk()
			got := h.replaceMin(tk)
			ref.push(tk)
			want := ref.pop()
			if got != want {
				t.Fatalf("round %d: replaceMin = (%d,%d), want (%d,%d)", round, got.time, got.id, want.time, want.id)
			}
		}
		a, b := drain(&h), drain(&ref)
		if len(a) != len(b) {
			t.Fatalf("round %d: heap sizes diverge: %d vs %d", round, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round %d: pop order diverges at %d", round, i)
			}
		}
	}
	// Empty-heap and wins-outright cases: replaceMin must return the
	// pushed task untouched and leave the heap alone.
	var empty taskHeap
	tk := &Task{id: 9999, time: 5}
	if got := empty.replaceMin(tk); got != tk || empty.len() != 0 {
		t.Fatalf("replaceMin on empty heap = %v (len %d), want the task back, len 0", got, empty.len())
	}
	empty.push(&Task{id: 10000, time: 50})
	if got := empty.replaceMin(tk); got != tk || empty.len() != 1 {
		t.Fatalf("replaceMin with winning task = %v (len %d), want the task back, len 1", got, empty.len())
	}
}

// TestServerNextFreeSurvivesPruning pins the post-prune semantics: the
// interval ring may forget old bookings (Reservations shrinks), but
// NextFree keeps answering with the end of the latest-ending reservation
// ever granted.
func TestServerNextFreeSurvivesPruning(t *testing.T) {
	s := NewServer("x")
	e := NewEngine()
	s.SetHorizon(e)
	if s.NextFree() != 0 {
		t.Fatalf("fresh server NextFree = %v, want 0", s.NextFree())
	}
	s.Acquire(0, 10)
	if s.NextFree() != 10 {
		t.Fatalf("NextFree = %v, want 10", s.NextFree())
	}
	// A zero-duration arrival after the engine clock passed the only
	// reservation books nothing but prunes it.
	e.now = 5 * Microsecond
	s.Acquire(e.now, 0)
	if n := len(s.Reservations()); n != 0 {
		t.Fatalf("%d reservations tracked after pruning, want 0", n)
	}
	if s.NextFree() != 10 {
		t.Fatalf("NextFree after pruning = %v, want 10 (pruning must not forget bookings)", s.NextFree())
	}
	// A real booking after the wipe restarts the ring and NextFree moves.
	at := e.now + 3
	s.Acquire(at, 7)
	if s.NextFree() != at+7 {
		t.Fatalf("NextFree = %v, want %v", s.NextFree(), at+7)
	}
	if n := len(s.Reservations()); n != 1 {
		t.Fatalf("%d reservations tracked, want 1", n)
	}
}

// TestServerBackfillWithPrunedSlack exercises the middle-insert path that
// shifts the short head side into pruned slack instead of memmoving the
// tail.
func TestServerBackfillWithPrunedSlack(t *testing.T) {
	s := NewServer("x")
	e := NewEngine()
	s.SetHorizon(e)
	// 1us bookings every 2us, each made 100us ahead of the engine
	// clock: the live window holds ~50 of them and the calendar
	// accumulates pruned slack at the front as the clock marches on.
	for i := Time(0); i < 200; i++ {
		at := i * 2 * Microsecond
		if at > 100*Microsecond {
			e.now = at - 100*Microsecond
		}
		s.Acquire(at, Microsecond)
	}
	ivs := s.Reservations()
	live := len(ivs)
	if live >= 200 || s.head == 0 {
		t.Fatalf("pruning kept %d reservations with head %d, want far fewer and pruned slack", live, s.head)
	}
	// Backfill a sliver into the gap right after the first live interval.
	// The insertion point is one slot past the ring head with pruned
	// slack in front, so this takes the head-shift branch of insert.
	at := ivs[0][1] + 100 // strictly inside the gap, touching neither neighbor
	got := s.Acquire(at, 100)
	if got != at {
		t.Fatalf("backfill grant = %v, want %v", got, at)
	}
	ivs = s.Reservations()
	if len(ivs) != live+1 {
		t.Fatalf("%d reservations after backfill, want %d", len(ivs), live+1)
	}
	// The calendar must remain sorted and disjoint after the shift.
	for i := 1; i < len(ivs); i++ {
		if ivs[i][0] < ivs[i-1][1] {
			t.Fatalf("intervals overlap after head-shift insert: %v then %v", ivs[i-1], ivs[i])
		}
	}
}
