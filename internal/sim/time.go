// Package sim provides the discrete-event simulation kernel used by the
// memory-system models: simulated time, a conservative coroutine-based
// event engine, and contended resource servers.
//
// The engine dispatches the runnable task with the smallest (time, id)
// key. A task that yields while it still holds that minimum skips the
// yield to the scheduler entirely and keeps running — the fast path that
// makes fine-grained Sync calls in the model hot paths nearly free; see
// the Engine documentation for the invariant and why the resulting event
// order (and therefore every simulated timestamp) is unchanged.
//
// Time is kept in femtoseconds so that every clock frequency used by the
// study (800 MHz through 6.4 GHz, plus network and DRAM timings) has an
// exact integer period. A uint64 femtosecond counter covers more than
// 5 hours of simulated time, far beyond any run in this repository.
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// Time is an absolute simulation time or a duration, in femtoseconds.
type Time uint64

// Duration units.
const (
	Femtosecond Time = 1
	Picosecond  Time = 1000 * Femtosecond
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, for logs and test output.
func (t Time) String() string {
	switch {
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", uint64(t)/uint64(Picosecond))
	}
}

// ParseDuration parses a simulated duration such as "1us", "2.5ns" or
// "800ps". Units: fs, ps, ns, us, ms, s. Command-line flags (-sample)
// use it; sub-femtosecond remainders truncate.
func ParseDuration(s string) (Time, error) {
	var unit Time
	var num string
	switch {
	case strings.HasSuffix(s, "fs"):
		unit, num = Femtosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ps"):
		unit, num = Picosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ns"):
		unit, num = Nanosecond, s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		unit, num = Microsecond, s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		unit, num = Millisecond, s[:len(s)-2]
	case strings.HasSuffix(s, "s"):
		unit, num = Second, s[:len(s)-1]
	default:
		return 0, fmt.Errorf("sim: duration %q needs a unit (fs, ps, ns, us, ms, s)", s)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("sim: invalid duration %q", s)
	}
	return Time(f * float64(unit)), nil
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// Clock describes a clock domain by its period.
type Clock struct {
	Period Time // duration of one cycle
}

// MHz returns a Clock with the given frequency in megahertz.
// The period is exact for every frequency that divides 10^9 MHz·fs.
func MHz(f uint64) Clock {
	if f == 0 {
		panic("sim: zero frequency")
	}
	return Clock{Period: Time(1_000_000_000 / f)}
}

// GHz returns a Clock with the given frequency in gigahertz.
func GHz(f float64) Clock {
	if f <= 0 {
		panic("sim: non-positive frequency")
	}
	return Clock{Period: Time(1_000_000 / f)}
}

// Cycles converts a cycle count in this clock domain to a duration.
func (c Clock) Cycles(n uint64) Time { return Time(n) * c.Period }

// ToCycles converts a duration to a whole number of cycles, rounding up.
func (c Clock) ToCycles(d Time) uint64 {
	return uint64((d + c.Period - 1) / c.Period)
}

// Hz returns the clock frequency in hertz.
func (c Clock) Hz() float64 { return float64(Second) / float64(c.Period) }
