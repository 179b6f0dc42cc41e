package sim

import (
	"testing"
	"time"
)

// BenchmarkSyncFastPath measures a lone task repeatedly advancing and
// syncing. With no peer at an earlier timestamp the task is always
// globally minimal, so this is the pure cost of one Sync in the common
// streaming case (the engine fast path, once it exists, should make it
// channel-free).
func BenchmarkSyncFastPath(b *testing.B) {
	e := NewEngine()
	e.Spawn("solo", 0, func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Advance(10 * Nanosecond)
			t.Sync()
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSyncFastPathWatchdog is BenchmarkSyncFastPath with a watchdog
// armed but never firing: the Abort request never arrives, so the only
// extra work on the fast path is the strided abort poll — a decrement and
// branch, with one atomic abort-flag load every abortStride Syncs. The
// bench-check gate compares this against BenchmarkSyncFastPath's
// baseline to prove the watchdog's disabled cost stays one branch.
func BenchmarkSyncFastPathWatchdog(b *testing.B) {
	e := NewEngine()
	watchdog := time.AfterFunc(time.Hour, func() { e.Abort("bench watchdog") })
	defer watchdog.Stop()
	e.Spawn("solo", 0, func(t *Task) {
		for i := 0; i < b.N; i++ {
			t.Advance(10 * Nanosecond)
			t.Sync()
		}
	})
	b.ResetTimer()
	e.Run()
	if e.abortFlag.Load() {
		b.Fatal("watchdog fired during benchmark")
	}
}

// BenchmarkDispatch measures the contended dispatch path: 8 tasks in
// lockstep, so every Sync finds a peer at an earlier timestamp and takes
// the slow path. The syncing task hosts the dispatch loop, but is the
// minimum again only one event in eight, so most events are one
// coroutine round trip (the loop's next() into a peer, the peer's yield
// back) plus one replaceMin sift. bench-check pins it against
// BenchmarkChanSwitchFloor as a same-run ratio.
func BenchmarkDispatch(b *testing.B) {
	e := NewEngine()
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.Spawn("w", 0, func(t *Task) {
			for j := 0; j < per; j++ {
				t.Advance(10 * Nanosecond)
				t.Sync()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkDispatchPair is BenchmarkDispatch with 2 tasks, the CC
// machine's 2-core case: each Sync finds its peer earlier and takes the
// slow path, whose loop resumes the peer, and the peer's Sync yields
// back to it. One coroutine switch per event. bench-check pins it below
// half the same-run BenchmarkChanSwitchFloor.
func BenchmarkDispatchPair(b *testing.B) {
	e := NewEngine()
	per := b.N/2 + 1
	for i := 0; i < 2; i++ {
		e.Spawn("w", 0, func(t *Task) {
			for j := 0; j < per; j++ {
				t.Advance(10 * Nanosecond)
				t.Sync()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkDispatchCoroInline is one coroutine task and one inline task
// in lockstep, a core beside a DMA engine: the coroutine's slow Sync runs
// the loop, which steps the inline peer as a plain call on the
// coroutine's stack and returns into it, with no coroutine switch at all.
func BenchmarkDispatchCoroInline(b *testing.B) {
	e := NewEngine()
	per := b.N/2 + 1
	e.Spawn("core", 0, func(t *Task) {
		for j := 0; j < per; j++ {
			t.Advance(10 * Nanosecond)
			t.Sync()
		}
	})
	e.SpawnInline("dma", 0, &benchStepper{per: per})
	b.ResetTimer()
	e.Run()
}

// BenchmarkChanSwitchFloor is the floor of any goroutine-per-task
// design: 8 goroutines passing a token around a ring of unbuffered
// channels, one channel handoff and one goroutine switch per op. It is
// BenchmarkDispatch's same-run control.
func BenchmarkChanSwitchFloor(b *testing.B) {
	const tasks = 8
	var ring [tasks]chan int
	for i := range ring {
		ring[i] = make(chan int)
	}
	done := make(chan struct{})
	for i := 0; i < tasks; i++ {
		in, out := ring[i], ring[(i+1)%tasks]
		go func() {
			for n := range in {
				if n == 0 {
					close(done)
					continue
				}
				out <- n - 1
			}
		}()
	}
	b.ResetTimer()
	ring[0] <- b.N
	<-done
	b.StopTimer()
	for _, c := range ring {
		close(c)
	}
}

// BenchmarkDispatchLockstep is the batched-wake case: 64 tasks all at
// the same timestamp, every dispatch an equal-time id tiebreak, so the
// whole run queue is walked each round — the N-cores-in-lockstep pattern
// of a barrier-synchronized multicore simulation, with a deeper heap
// behind every sift.
func BenchmarkDispatchLockstep(b *testing.B) {
	e := NewEngine()
	const tasks = 64
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.Spawn("w", 0, func(t *Task) {
			for j := 0; j < per; j++ {
				t.Advance(10 * Nanosecond)
				t.Sync()
			}
		})
	}
	b.ResetTimer()
	e.Run()
}

// benchStepper is the inline twin of BenchmarkDispatch's worker body:
// advance 10ns per step until per steps have run.
type benchStepper struct{ n, per int }

func (s *benchStepper) Step(t *Task) Status {
	if s.n >= s.per {
		return StatusDone
	}
	s.n++
	t.Advance(10 * Nanosecond)
	return StatusRunning
}

// BenchmarkDispatchInline is BenchmarkDispatch with the 8 lockstep
// workers as inline state machines: every dispatch is a heap sift plus a
// plain Step call in the dispatch loop, with no coroutine switch.
// bench-check pins it below half the same-run BenchmarkDispatch, the
// margin that keeps the DMA engines inline.
func BenchmarkDispatchInline(b *testing.B) {
	e := NewEngine()
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkSyncFastPathInline is BenchmarkSyncFastPath for a lone inline
// task: always globally minimal, so every step takes the inline spin —
// no heap traffic at all, just the Step call and the clock bump.
func BenchmarkSyncFastPathInline(b *testing.B) {
	e := NewEngine()
	e.SpawnInline("solo", 0, &benchStepper{per: b.N})
	b.ResetTimer()
	e.Run()
}

// BenchmarkServerAcquire measures the dominant calendar operation:
// monotone arrivals appending at the end of a busy calendar while the
// engine clock trails them by 8 reservations, so every Acquire also
// prunes one.
func BenchmarkServerAcquire(b *testing.B) {
	s := NewServer("x")
	e := NewEngine()
	s.SetHorizon(e)
	at := Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(at, 500*Nanosecond)
		at += Microsecond
		if at > 8*Microsecond {
			e.now = at - 8*Microsecond
		}
	}
}

// BenchmarkServerAcquireBackfill alternates a booking 4us ahead of the
// engine clock (as a miss books its response slot at its future fill
// time) with a request at the clock that backfills the gap in front of
// the future bookings: binary search, then a middle insert.
func BenchmarkServerAcquireBackfill(b *testing.B) {
	s := NewServer("x")
	e := NewEngine()
	s.SetHorizon(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			s.Acquire(e.now+4*Microsecond, 300*Nanosecond)
		} else {
			s.Acquire(e.now+500*Nanosecond, 300*Nanosecond)
			e.now += Microsecond
		}
	}
}

// BenchmarkFlightRecorderDisabled is BenchmarkDispatchInline with the
// flight recorder explicitly disarmed: the record sites compile to one
// always-false nil compare per dispatch. bench-check pins this against
// BenchmarkDispatchInline as a same-run ratio to prove the disabled
// recorder costs nothing on the hot dispatch path.
func BenchmarkFlightRecorderDisabled(b *testing.B) {
	e := NewEngine()
	e.SetFlightRecorder(0)
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkFlightRecorderEnabled arms a 256-event ring on the same
// workload: per dispatch, the extra work is one masked ring store — the
// price every fresh paperbench simulation pays for crash forensics.
func BenchmarkFlightRecorderEnabled(b *testing.B) {
	e := NewEngine()
	e.SetFlightRecorder(256)
	const tasks = 8
	per := b.N/tasks + 1
	for i := 0; i < tasks; i++ {
		e.SpawnInline("w", 0, &benchStepper{per: per})
	}
	b.ResetTimer()
	e.Run()
	if e.fr == nil || e.fr.n == 0 {
		b.Fatal("recorder armed but no events recorded")
	}
}
