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
// lockstep, so every Sync finds a peer at an earlier timestamp and must
// yield. Each event is one coroutine round trip (the task's yield back
// to Run, Run's next() into the successor) plus one replaceMin sift.
// bench-check pins it below BenchmarkChanSwitchFloor as a same-run
// ratio: dispatch must stay cheaper than one bare channel handoff.
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
// plain Step call in Run's loop, with no coroutine switch. bench-check
// pins it below half the same-run BenchmarkDispatch, the margin that
// keeps the DMA engines inline.
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
// monotone arrivals appending at the end of a busy calendar whose live
// window holds ~200 reservations (1us steps inside the 200us prune
// window), so pruning is continuously active.
func BenchmarkServerAcquire(b *testing.B) {
	s := NewServer("x")
	at := Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Acquire(at, 500*Nanosecond)
		at += Microsecond
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
