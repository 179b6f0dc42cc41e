package sim

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// Server models a contended resource (a bus, a cache port, a DRAM
// channel) as a busy-interval calendar. A request arriving at time t is
// granted the first gap of sufficient length starting no earlier than t.
//
// Transactions in this simulator reserve their whole resource chain when
// they are handled (e.g. a cache miss books the response bus slot at its
// future fill time), so a resource sees arrivals at non-monotone times.
// A single next-free-time scalar would let those future bookings block
// earlier requests; the calendar instead backfills gaps, which is what a
// real arbiter does with requests that are actually present at the time.
//
// The calendar holds only the reservations that can still delay a grant.
// Its horizon is a lower bound on every future arrival: the engine clock
// (SetHorizon), optionally capped by the owner (CapHorizon). A search
// for a request at t skips every reservation ending at or before t, so
// a reservation ending at or before the horizon can never matter again
// and is pruned; the live window is then a handful of reservations and
// every grant is the one a never-pruned calendar would give. Acquire
// checks the bound on every call and panics below it, so a model change
// that books in the past fails loudly instead of silently changing
// results.
type Server struct {
	// The fields every Acquire reads come first and fill exactly one
	// 64-byte host cache line; NewServer and NewPipe allocate servers
	// in 128-byte size classes, so that line is aligned
	// (TestServerLayout).
	//
	// busy[head:] holds the live, non-overlapping reservations sorted by
	// start time; busy[:head] is pruned garbage awaiting compaction.
	busy []interval
	head int
	// lastEnd is the end of the latest-ending reservation ever granted.
	// Unlike the calendar it survives pruning, so NextFree stays truthful
	// after old bookings are discarded.
	lastEnd Time
	busyAcc Time // total reserved time, for utilization
	// eng is the engine whose clock the horizon follows; nil (a server
	// outside any engine) keeps the horizon at 0, which prunes nothing.
	eng *Engine
	// limit caps the horizon for owners that book lazily in the past.
	limit Time

	// Cold fields, and a Pipe's link parameters after them.
	uses uint64
	name string
	// Calendar-maintenance counters (see ServerMetrics): how many
	// reservations pruning discarded and how often the slice compacted
	// (at most once per 64 prunes, so 32 bits suffice).
	pruned      uint64
	compactions uint32
	// widthShift is log2 of a Pipe's width when the width is a power of
	// two (every Table 2 link), so its occupancy needs no division, and
	// -1 otherwise. It lives here, in the Server's padding, so a Pipe
	// stays 128 bytes.
	widthShift int8
}

// paddedServer rounds a lone Server up to the 128-byte size class,
// whose allocations are 64-byte aligned (a Server alone is 104 bytes,
// which would land in the unaligned 112-byte class).
type paddedServer struct {
	Server
	_ [128 - unsafe.Sizeof(Server{})]byte
}

// ServerMetrics aggregates calendar-maintenance counters across a set of
// servers. The model layers (noc, dram, uncore) sum their servers into
// one value per run so the calendar's behavior — how much history it
// sheds and how often it pays a compaction copy — is visible in every
// report, not just in microbenchmarks.
type ServerMetrics struct {
	Pruned      uint64 // reservations discarded behind the horizon
	Compactions uint64 // copies reclaiming the pruned prefix
}

// AddMetrics accumulates this server's calendar counters into m.
func (s *Server) AddMetrics(m *ServerMetrics) {
	m.Pruned += s.pruned
	m.Compactions += uint64(s.compactions)
}

// Snapshot emits the aggregated counters in a fixed order (probe layer).
func (m ServerMetrics) Snapshot(put func(name string, value float64)) {
	put("pruned", float64(m.Pruned))
	put("compactions", float64(m.Compactions))
}

type interval struct{ start, end Time }

// tailScan is how many reservations Acquire's search steps back from
// the calendar's tail before it falls back to a binary search.
const tailScan = 4

// NewServer returns a named idle server.
func NewServer(name string) *Server {
	p := &paddedServer{Server: Server{name: name, limit: ^Time(0)}}
	return &p.Server
}

// Name returns the server's name.
func (s *Server) Name() string { return s.name }

// SetHorizon makes the calendar prune behind e's clock. Every Acquire
// must then arrive no earlier than e.Now(): a task's clock never goes
// backwards and Unblock clamps to the engine clock, so each request a
// task makes satisfies this.
func (s *Server) SetHorizon(e *Engine) { s.eng = e }

// CapHorizon keeps the horizon at or below t, for an owner that will
// still book at t or later when the engine clock has moved past it.
func (s *Server) CapHorizon(t Time) { s.limit = t }

// horizon returns the current lower bound on arrivals.
func (s *Server) horizon() Time {
	if s.eng == nil {
		return 0
	}
	if h := s.eng.now; h < s.limit {
		return h
	}
	return s.limit
}

// Acquire reserves the server for dur starting no earlier than at,
// returning the grant time. Zero-duration acquisitions return at.
func (s *Server) Acquire(at, dur Time) (start Time) {
	h := s.horizon()
	if at < h {
		s.pastArrival(at, h)
	}
	s.uses++
	s.busyAcc += dur
	if s.head < len(s.busy) && s.busy[s.head].end <= h {
		s.prune(h)
	}
	if dur == 0 {
		return at
	}
	n := len(s.busy)
	if s.head == n {
		// Calendar empty (fresh server, or everything pruned): restart it.
		s.busy = append(s.busy[:0], interval{at, at + dur})
		s.head = 0
		s.grow(at + dur)
		return at
	}
	// Fast path: the request lands at or after the calendar's last
	// reservation — the dominant case on a busy resource with (mostly)
	// monotone arrivals. Append, merging when contiguous.
	if last := &s.busy[n-1]; at >= last.end {
		if at == last.end {
			last.end = at + dur
		} else {
			s.busy = append(s.busy, interval{at, at + dur})
		}
		s.grow(at + dur)
		return at
	}
	// General path: find the first gap of length dur at or after `at`,
	// starting from the first interval ending after `at`.
	start = at
	idx := s.firstEndingAfter(at)
	for idx < n {
		iv := s.busy[idx]
		if start+dur <= iv.start {
			break // fits in the gap before this interval
		}
		if iv.end > start {
			start = iv.end
		}
		idx++
	}
	s.insert(idx, interval{start, start + dur})
	s.grow(start + dur)
	return start
}

// firstEndingAfter returns the index of the first live reservation
// that ends after at, for an arrival that the last one does. Two
// patterns dominate. Under CC, a miss books its response slots ahead
// of later arrivals at the clock, which land before every live
// reservation, so the head is checked first. Under STR, a late
// arrival usually has only the last reservation or two ending after
// it, so the search then scans back from the tail, and binary searches
// the rest of the live window only when the scan runs tailScan steps
// without reaching it.
func (s *Server) firstEndingAfter(at Time) int {
	if s.busy[s.head].end > at {
		return s.head
	}
	lo := len(s.busy) - 1 // busy[lo].end > at
	stop := lo - tailScan
	if stop < s.head {
		stop = s.head
	}
	for lo > stop && s.busy[lo-1].end > at {
		lo--
	}
	if lo == stop && lo > s.head && s.busy[lo-1].end > at {
		l, h := s.head, lo-1 // busy[lo-1].end > at
		for l < h {
			mid := int(uint(l+h) >> 1)
			if s.busy[mid].end <= at {
				l = mid + 1
			} else {
				h = mid
			}
		}
		lo = l
	}
	return lo
}

// pastArrival reports an Acquire below the horizon. Out of line so the
// message formatting stays off Acquire's path.
func (s *Server) pastArrival(at, h Time) {
	panic(fmt.Sprintf("sim: server %q acquired in the past (%v < horizon %v)", s.name, at, h))
}

// grow records a new reservation end time for NextFree.
func (s *Server) grow(end Time) {
	if end > s.lastEnd {
		s.lastEnd = end
	}
}

// insert places iv at position idx of busy (idx >= head), merging with
// contiguous neighbors. When the ring has pruned slack at the front and
// the insertion point is nearer the head, the shorter head side shifts
// left into the slack instead of memmoving the tail right.
func (s *Server) insert(idx int, iv interval) {
	mergeLeft := idx > s.head && s.busy[idx-1].end == iv.start
	mergeRight := idx < len(s.busy) && s.busy[idx].start == iv.end
	switch {
	case mergeLeft && mergeRight:
		s.busy[idx-1].end = s.busy[idx].end
		s.busy = append(s.busy[:idx], s.busy[idx+1:]...)
	case mergeLeft:
		s.busy[idx-1].end = iv.end
	case mergeRight:
		s.busy[idx].start = iv.start
	case s.head > 0 && idx-s.head < len(s.busy)-idx:
		copy(s.busy[s.head-1:], s.busy[s.head:idx])
		s.head--
		s.busy[idx-1] = iv
	default:
		s.busy = append(s.busy, interval{})
		copy(s.busy[idx+1:], s.busy[idx:])
		s.busy[idx] = iv
	}
}

// prune advances the head past every reservation that ends at or
// before the horizon h, compacting the slice once the dead prefix is
// both large and the majority of it.
func (s *Server) prune(h Time) {
	i := s.head
	for i < len(s.busy) && s.busy[i].end <= h {
		i++
	}
	s.pruned += uint64(i - s.head)
	s.head = i
	if i > 64 && 2*i >= len(s.busy) {
		live := copy(s.busy, s.busy[i:])
		s.busy = s.busy[:live]
		s.head = 0
		s.compactions++
	}
}

// NextFree returns the time the server falls idle after every
// reservation granted so far: the end of the latest-ending booking.
// Unlike Reservations it is not affected by pruning — the answer is
// remembered even after the booking itself has been discarded — so a
// fresh server returns 0 and a used one never forgets its last grant.
func (s *Server) NextFree() Time { return s.lastEnd }

// BusyTime returns the total time reserved on the server.
func (s *Server) BusyTime() Time { return s.busyAcc }

// Uses returns the number of acquisitions.
func (s *Server) Uses() uint64 { return s.uses }

// Utilization returns reserved time divided by the window [0, end].
func (s *Server) Utilization(end Time) float64 {
	if end == 0 {
		return 0
	}
	return float64(s.busyAcc) / float64(end)
}

// Reservations returns the currently tracked busy intervals (tests).
// Reservations that ended at or before the horizon may already have
// been dropped; aggregate accounting (BusyTime, Uses, NextFree) survives
// pruning, the interval list does not.
func (s *Server) Reservations() [][2]Time {
	live := s.busy[s.head:]
	out := make([][2]Time, len(live))
	for i, iv := range live {
		out[i] = [2]Time{iv.start, iv.end}
	}
	return out
}

// Pipe models a pipelined link: each transfer occupies the server for an
// occupancy proportional to its size, and completes a fixed latency
// after service starts. Transfers of different requests overlap in the
// pipeline.
type Pipe struct {
	Server
	// BytesPerCycle is the link width; Clock gives the cycle time. Both
	// are fixed after NewPipe. They share the Server's second host cache
	// line with its use count, so a transfer touches two lines.
	BytesPerCycle uint64
	Clock         Clock
	// Latency is the pipeline depth: time from service start to delivery.
	Latency Time
}

// NewPipe returns a pipelined link.
func NewPipe(name string, bytesPerCycle uint64, clock Clock, latency Time) *Pipe {
	p := &Pipe{
		Server:        Server{name: name, limit: ^Time(0), widthShift: -1},
		BytesPerCycle: bytesPerCycle,
		Clock:         clock,
		Latency:       latency,
	}
	if bytesPerCycle != 0 && bytesPerCycle&(bytesPerCycle-1) == 0 {
		p.widthShift = int8(bits.TrailingZeros64(bytesPerCycle))
	}
	return p
}

// Transfer moves nbytes through the pipe starting no earlier than at.
// It returns the time the last byte is delivered.
func (p *Pipe) Transfer(at Time, nbytes uint64) (done Time) {
	done, _ = p.TransferTracked(at, nbytes)
	return done
}

// TransferTracked is Transfer, additionally returning the arbitration
// wait: time from arrival at the link to service start (zero when the
// link was free). The latency-distribution layer records it as the NoC
// acquire wait.
func (p *Pipe) TransferTracked(at Time, nbytes uint64) (done, wait Time) {
	if nbytes == 0 {
		return at + p.Latency, 0
	}
	cycles := nbytes + p.BytesPerCycle - 1
	if p.widthShift >= 0 {
		cycles >>= uint(p.widthShift)
	} else {
		cycles /= p.BytesPerCycle
	}
	occ := p.Clock.Cycles(cycles)
	start := p.Acquire(at, occ)
	return start + occ + p.Latency, start - at
}
