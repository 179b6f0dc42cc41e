package sim

import (
	"testing"
)

// TestMetricsCountFastAndSlowSyncs: a lone task always wins the heap
// compare (fast path); two lockstep tasks always lose it (slow path).
func TestMetricsCountFastAndSlowSyncs(t *testing.T) {
	e := NewEngine()
	e.Spawn("solo", 0, func(task *Task) {
		for i := 0; i < 10; i++ {
			task.Advance(Nanosecond)
			task.Sync()
		}
	})
	e.Run()
	m := e.Metrics()
	if m.SyncFast != 10 || m.SyncSlow != 0 {
		t.Errorf("solo task: fast=%d slow=%d, want 10/0", m.SyncFast, m.SyncSlow)
	}
	if m.Spawns != 1 || m.Dispatches == 0 || m.HeapPushes != m.HeapPops {
		t.Errorf("bookkeeping off: %+v", m)
	}
	if r := m.FastPathRate(); r != 1.0 {
		t.Errorf("fast-path rate = %v, want 1", r)
	}

	e = NewEngine()
	for i := 0; i < 2; i++ {
		e.Spawn("twin", 0, func(task *Task) {
			for j := 0; j < 10; j++ {
				task.Advance(Nanosecond)
				task.Sync()
			}
		})
	}
	e.Run()
	m = e.Metrics()
	// Lockstep twins: each Sync sees the sibling queued at the same time,
	// and the tie goes to the smaller id, so at most the id-0 task can
	// occasionally win. The slow path must dominate, and every slow-path
	// Sync is one coroutine resume by Run.
	if m.SyncSlow == 0 {
		t.Errorf("lockstep twins never took the slow path: %+v", m)
	}
	if m.Dispatches != m.SyncSlow+2 {
		t.Errorf("dispatches = %d, want one per slow Sync plus the two first resumes (%+v)", m.Dispatches, m)
	}
	if m.Handoffs != 0 {
		t.Errorf("handoffs = %d, want 0", m.Handoffs)
	}
	if m.HeapMax < 2 {
		t.Errorf("heap max %d, want >= 2", m.HeapMax)
	}
	if m.HeapPushes != m.HeapPops {
		t.Errorf("heap pushes %d != pops %d after a drained run", m.HeapPushes, m.HeapPops)
	}
}

// TestMetricsSnapshotEmitsCounters pins the probe-facing counter names
// (spawns and heap_max included): renaming or dropping one would
// silently break recorded probe series.
func TestMetricsSnapshotEmitsCounters(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2; i++ {
		e.Spawn("twin", 0, func(task *Task) {
			for j := 0; j < 5; j++ {
				task.Advance(Nanosecond)
				task.Sync()
			}
		})
	}
	e.Run()
	got := map[string]float64{}
	e.Metrics().Snapshot(func(name string, v float64) { got[name] = v })
	for _, name := range []string{
		"sync_fast", "sync_slow", "dispatches", "spawns",
		"blocks", "unblocks", "heap_pushes", "heap_pops", "heap_max",
		"inline_steps",
	} {
		if _, ok := got[name]; !ok {
			t.Errorf("Snapshot missing counter %q (got %v)", name, got)
		}
	}
	if len(got) != 10 {
		t.Errorf("Snapshot emitted %d counters, want 10: %v", len(got), got)
	}
	if got["spawns"] != 2 {
		t.Errorf("spawns = %v, want 2", got["spawns"])
	}
	if got["dispatches"] == 0 {
		t.Errorf("dispatches = 0 for a lockstep run: %v", got)
	}
	if got["heap_max"] < 2 {
		t.Errorf("heap_max = %v, want >= 2", got["heap_max"])
	}
}

// TestEpochHookFiresOnBoundaries: the hook fires once per crossed
// boundary with the boundary time, on both the dispatch loop and the
// Sync fast path, and a multi-epoch jump yields one call per boundary.
func TestEpochHookFiresOnBoundaries(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.SetEpoch(10*Nanosecond, func(at Time) { fired = append(fired, at) })
	e.Spawn("walker", 0, func(task *Task) {
		task.Advance(25 * Nanosecond) // crosses 10ns and 20ns
		task.Sync()                   // fast path (lone task)
		task.Advance(40 * Nanosecond) // now 65ns: crosses 30..60
		task.Sync()
	})
	e.Run()
	want := []Time{10 * Nanosecond, 20 * Nanosecond, 30 * Nanosecond,
		40 * Nanosecond, 50 * Nanosecond, 60 * Nanosecond}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestEpochHookDoesNotPerturbSchedule: the full dispatch trace of a
// randomized-ish schedule must be identical with and without a sampling
// hook installed (the zero-perturbation invariant).
func TestEpochHookDoesNotPerturbSchedule(t *testing.T) {
	run := func(sample bool) []Time {
		e := NewEngine()
		if sample {
			e.SetEpoch(3*Nanosecond, func(Time) {})
		}
		var trace []Time
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn("t", Time(i)*Nanosecond, func(task *Task) {
				for j := 0; j < 20; j++ {
					task.Advance(Time(1+(i*7+j*3)%5) * Nanosecond)
					task.Sync()
					trace = append(trace, task.Time())
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestServerPruneMetrics: arrivals made a few steps ahead of an
// advancing engine clock leave every reservation behind the horizon in
// turn; the counters must see each one go and the slice compact.
func TestServerPruneMetrics(t *testing.T) {
	s := NewServer("x")
	e := NewEngine()
	s.SetHorizon(e)
	step := 2 * Microsecond
	const n = 1000
	for i := 0; i < n; i++ {
		at := Time(i) * step
		if i >= 4 {
			e.now = at - 4*step
		}
		s.Acquire(at, Microsecond)
	}
	var m ServerMetrics
	s.AddMetrics(&m)
	if live := len(s.Reservations()); m.Pruned+uint64(live) != n || live > 5 {
		t.Errorf("pruned %d, %d live, want %d in all and at most 5 live", m.Pruned, live, n)
	}
	if m.Compactions == 0 {
		t.Errorf("slice never compacted: %+v", m)
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want Time
		err  bool
	}{
		{"1us", Microsecond, false},
		{"2.5ns", 2500 * Femtosecond * 1000, false},
		{"800ps", 800 * Picosecond, false},
		{"3ms", 3 * Millisecond, false},
		{"1s", Second, false},
		{"42fs", 42 * Femtosecond, false},
		{"10", 0, true},
		{"-1us", 0, true},
		{"xns", 0, true},
		{"", 0, true},
	}
	for _, c := range cases {
		got, err := ParseDuration(c.in)
		if c.err != (err != nil) || got != c.want {
			t.Errorf("ParseDuration(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
}
