package sim

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// refCalendar is the oracle for Server: a calendar that never prunes
// and grants each request the first gap of sufficient length at or
// after its arrival, by a linear scan over every reservation ever made.
type refCalendar struct {
	busy    []interval // sorted by start, disjoint
	lastEnd Time
}

func (r *refCalendar) acquire(at, dur Time) Time {
	if dur == 0 {
		return at
	}
	start, idx := at, 0
	for ; idx < len(r.busy); idx++ {
		iv := r.busy[idx]
		if iv.end <= start {
			continue
		}
		if start+dur <= iv.start {
			break
		}
		start = iv.end
	}
	r.busy = append(r.busy, interval{})
	copy(r.busy[idx+1:], r.busy[idx:])
	r.busy[idx] = interval{start, start + dur}
	if start+dur > r.lastEnd {
		r.lastEnd = start + dur
	}
	return start
}

// TestServerMatchesNeverPrunedCalendar: for random durations and
// arrivals at or after a randomly advancing horizon, the pruned
// calendar grants exactly what a never-pruned one does. The horizon
// sometimes holds still and sometimes jumps past the whole calendar.
// Two arrival patterns pin the two ends of the search. In STR's, most
// arrivals are near the horizon and some book far ahead, so grants
// append, backfill gaps, merge with neighbors and queue behind future
// reservations, and a late arrival is found by the tail scan. In CC's,
// misses book slots well ahead and the arrivals between them come at
// the clock, before every live reservation, where the head check finds
// them.
func TestServerMatchesNeverPrunedCalendar(t *testing.T) {
	patterns := []struct {
		name   string
		arrive func(rng *rand.Rand, now Time) Time
	}{
		{"str", func(rng *rand.Rand, now Time) Time {
			at := now + Time(rng.Intn(40))
			if rng.Intn(8) == 0 {
				at += Time(rng.Intn(500))
			}
			return at
		}},
		{"cc", func(rng *rand.Rand, now Time) Time {
			if rng.Intn(3) == 0 {
				return now + 100 + Time(rng.Intn(400))
			}
			return now + Time(rng.Intn(3))
		}},
	}
	for _, pat := range patterns {
		atHead := 0 // grants ahead of every live reservation on the general path
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			s := NewServer("x")
			s.SetHorizon(e)
			var ref refCalendar
			var busy Time
			for op := 0; op < 400; op++ {
				switch r := rng.Intn(10); {
				case r < 5:
					e.now += Time(rng.Intn(20))
				case r == 5:
					e.now += Time(rng.Intn(2000))
				}
				at := pat.arrive(rng, e.now)
				dur := Time(rng.Intn(12))
				live := s.Reservations()
				got, want := s.Acquire(at, dur), ref.acquire(at, dur)
				if got != want {
					t.Fatalf("%s seed %d op %d: Acquire(%d, %d) at horizon %d = %d, never-pruned calendar grants %d",
						pat.name, seed, op, at, dur, e.now, got, want)
				}
				if n := len(live); dur > 0 && n > 1 && live[0][1] > e.now && at < live[n-1][1] && got+dur <= live[0][0] {
					atHead++
				}
				busy += dur
				// After each Acquire the calendar holds nothing that ends
				// at or before the horizon.
				if live := s.Reservations(); len(live) > 0 && live[0][1] <= e.now {
					t.Fatalf("%s seed %d op %d: reservation %v kept behind horizon %d", pat.name, seed, op, live[0], e.now)
				}
			}
			if s.NextFree() != ref.lastEnd || s.BusyTime() != busy {
				t.Fatalf("%s seed %d: NextFree %d BusyTime %d, want %d and %d", pat.name, seed, s.NextFree(), s.BusyTime(), ref.lastEnd, busy)
			}
		}
		if pat.name == "cc" && atHead == 0 {
			t.Fatal("cc: no arrival was granted ahead of every live reservation")
		}
		t.Logf("%s: %d grants ahead of every live reservation", pat.name, atHead)
	}
}

// TestServerPanicsBelowHorizon: an arrival earlier than the engine
// clock is a model bug that would silently change grants once pruning
// has dropped what it should queue behind, so Acquire refuses it and
// names the server.
func TestServerPanicsBelowHorizon(t *testing.T) {
	e := NewEngine()
	s := NewServer("l2.port0")
	s.SetHorizon(e)
	e.now = 100
	s.Acquire(100, 5) // at the horizon: fine
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"l2.port0"`) || !strings.Contains(msg, "in the past") {
			t.Fatalf("sub-horizon Acquire panicked with %q, want a message naming the server", msg)
		}
	}()
	s.Acquire(99, 5)
}

// TestServerCapHorizon: an owner's cap holds the horizon below the
// engine clock, so arrivals between the cap and the clock are legal and
// reservations ending after the cap are kept for them.
func TestServerCapHorizon(t *testing.T) {
	e := NewEngine()
	s := NewServer("dram.channel")
	s.SetHorizon(e)
	s.Acquire(10, 10) // [10, 20)
	s.Acquire(40, 10) // [40, 50)
	s.CapHorizon(30)
	e.now = 1000
	// Would panic without the cap; queues behind nothing and fits in
	// the gap before [40, 50), which the cap kept live.
	if got := s.Acquire(30, 10); got != 30 {
		t.Fatalf("grant at the cap = %d, want 30", got)
	}
	if got := s.Acquire(35, 10); got != 50 {
		t.Fatalf("grant behind the kept reservation = %d, want 50", got)
	}
	var m ServerMetrics
	s.AddMetrics(&m)
	if m.Pruned != 1 {
		t.Fatalf("pruned %d reservations, want only [10, 20)", m.Pruned)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Acquire below the cap did not panic")
		}
	}()
	s.Acquire(29, 1)
}

// TestServerWithoutEngineNeverPrunes: a server outside any engine has
// horizon 0, accepts any arrival and keeps every reservation.
func TestServerWithoutEngineNeverPrunes(t *testing.T) {
	s := NewServer("x")
	s.Acquire(1000, 10)
	s.Acquire(0, 10)
	if n := len(s.Reservations()); n != 2 {
		t.Fatalf("%d reservations, want 2", n)
	}
}

// TestPipeOccupancyNonPowerOfTwo: a link width that is not a power of
// two takes the division fallback and still rounds up to whole cycles.
func TestPipeOccupancyNonPowerOfTwo(t *testing.T) {
	for _, c := range []struct {
		width, bytes, cycles uint64
	}{{16, 32, 2}, {16, 33, 3}, {24, 32, 2}, {24, 24, 1}, {24, 49, 3}, {1, 5, 5}} {
		p := NewPipe("x", c.width, MHz(800), 0)
		if done := p.Transfer(0, c.bytes); done != MHz(800).Cycles(c.cycles) {
			t.Errorf("%d bytes over %d-byte link: done %v, want %d cycles", c.bytes, c.width, done, c.cycles)
		}
	}
}

// TestServerLongWindowMatchesNeverPrunedCalendar drives windows far
// longer than Acquire's tail scan: the horizon stands still while
// dozens of short reservations with gaps between them pile up ahead of
// it, and requests then arrive anywhere in that window, so the search
// ends in the tail scan, at its last step, or in the binary-search
// fallback, and must grant what a never-pruned calendar grants.
func TestServerLongWindowMatchesNeverPrunedCalendar(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		s := NewServer("x")
		s.SetHorizon(e)
		var ref refCalendar
		deep := 0
		for op := 0; op < 600; op++ {
			if rng.Intn(50) == 0 {
				e.now += Time(rng.Intn(400))
			}
			var span Time
			if s.NextFree() > e.now {
				span = s.NextFree() - e.now
			}
			at := e.now + Time(rng.Intn(int(span)+1))
			if rng.Intn(3) == 0 {
				at = e.now + span + Time(1+rng.Intn(6)) // grow the window, leaving a gap
			}
			if live := s.Reservations(); len(live) > 0 {
				behind := 0
				for _, iv := range live {
					if iv[1] > at {
						behind++
					}
				}
				if behind > tailScan+1 {
					deep++
				}
			}
			dur := Time(1 + rng.Intn(4))
			if got, want := s.Acquire(at, dur), ref.acquire(at, dur); got != want {
				t.Fatalf("seed %d op %d: Acquire(%d, %d) at horizon %d = %d, never-pruned calendar grants %d",
					seed, op, at, dur, e.now, got, want)
			}
		}
		if deep == 0 {
			t.Fatalf("seed %d: no arrival had more than %d reservations ending after it; the fallback went untested", seed, tailScan+1)
		}
	}
}

// TestServerLayout pins the host layout Acquire relies on: the fields it
// reads fill the first 64 bytes of a Server, and a lone Server and a
// Pipe each land in the 128-byte allocation size class, whose objects
// are 64-byte aligned.
func TestServerLayout(t *testing.T) {
	var s Server
	if end := unsafe.Offsetof(s.limit) + unsafe.Sizeof(s.limit); end > 64 {
		t.Fatalf("Acquire's fields end at byte %d, want at most 64", end)
	}
	if n := unsafe.Sizeof(paddedServer{}); n != 128 {
		t.Fatalf("paddedServer is %d bytes, want 128", n)
	}
	if n := unsafe.Sizeof(Pipe{}); n != 128 {
		t.Fatalf("Pipe is %d bytes, want 128", n)
	}
	for _, p := range []unsafe.Pointer{unsafe.Pointer(NewServer("a")), unsafe.Pointer(NewPipe("b", 8, MHz(1000), 0))} {
		if uintptr(p)%64 != 0 {
			t.Fatalf("server allocated at %p, not 64-byte aligned", p)
		}
	}
}
