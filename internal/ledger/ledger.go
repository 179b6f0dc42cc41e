// Package ledger is the cross-layer cycle-accounting subsystem: a
// per-core ledger that attributes every core cycle to a fixed taxonomy
// of classes, plus the report types of the memory system's latency
// distributions (latency.go), which the transaction tracer fills.
//
// The ledger is each core's only account of its time. Every site in
// internal/cpu that moves a core's clock charges exactly one class for
// the same span of simulated time, so the non-idle classes sum to the
// core's finish time by construction, and — with Idle defined as wall
// minus finish — all classes sum exactly to the run's wall time. That
// conservation invariant is what makes stacked breakdown figures
// trustworthy: no cycle is counted twice, none is dropped.
// Summary.Check enforces it and the repo's property test runs it across
// every shipped workload. The Figure 2 breakdown (cpu.Breakdown) is a
// coarser view of the same account, summed from its classes.
//
// Cost: a charge is one array add, always on (BenchmarkLedgerEnabled).
// Config.CycleLedger only decides whether the report carries the
// ledger's blocks.
package ledger

import (
	"fmt"

	"repro/internal/sim"
)

// Class is one cycle-accounting category.
type Class uint8

// The taxonomy. Compute covers issue, fetch and I-miss stalls (the
// Figure 2 "Useful" bucket). LoadStall and StoreStall split memory
// stalls by direction; StoreStall is store-buffer-full time. SyncWait is
// lock/barrier/flush waiting; DMAWait is time blocked on DMA command
// completion (reported inside "Sync" in Figure 2, split out here).
// PrefetchShadow is load-stall time on lines a prefetch had already
// in flight — latency the prefetcher hid partially. Idle is wall time
// after the core finished while others still ran (load imbalance).
const (
	Compute Class = iota
	LoadStall
	StoreStall
	SyncWait
	DMAWait
	PrefetchShadow
	Idle
	NumClasses
)

// classNames is indexed by Class; the strings are the fixed export
// vocabulary (probe series, report JSON, figure CSV columns).
var classNames = [NumClasses]string{
	"compute",
	"load_stall",
	"store_stall",
	"sync_wait",
	"dma_wait",
	"prefetch_shadow",
	"idle",
}

// String returns the export name of the class.
func (c Class) String() string {
	if c < NumClasses {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassNames returns the taxonomy in charge order (figure legends, CSV
// headers).
func ClassNames() []string {
	out := make([]string, NumClasses)
	copy(out, classNames[:])
	return out
}

// Ledger accumulates one core's cycle classes in femtoseconds.
type Ledger struct {
	classes [NumClasses]sim.Time
}

// Charge adds d to class c.
func (l *Ledger) Charge(c Class, d sim.Time) { l.classes[c] += d }

// Get returns the accumulated time of class c.
func (l *Ledger) Get(c Class) sim.Time { return l.classes[c] }

// Total returns the sum over all classes.
func (l *Ledger) Total() sim.Time {
	var t sim.Time
	for _, v := range l.classes {
		t += v
	}
	return t
}

// Classes returns the class array by value (report assembly).
func (l *Ledger) Classes() [NumClasses]sim.Time { return l.classes }

// Add accumulates src into l (aggregating cores for the probe series).
func (l *Ledger) Add(src *Ledger) {
	for i := range l.classes {
		l.classes[i] += src.classes[i]
	}
}

// Snapshot emits the live classes in fixed order (probe layer). Idle is
// excluded: it is derived at report time from wall minus finish and is
// meaningless mid-run.
func (l *Ledger) Snapshot(put func(name string, value float64)) {
	for c := Compute; c < Idle; c++ {
		put(classNames[c], float64(l.classes[c]))
	}
}

// Summary is the Report's cycle-accounting block: each core's class
// totals (including the derived Idle) plus the per-core average. The
// conservation invariant is that every row of PerCore sums exactly to
// the run's wall time.
type Summary struct {
	// Classes names the columns of PerCore and Avg, in order.
	Classes []string `json:"classes"`
	// PerCore[i][c] is core i's femtoseconds in class c.
	PerCore [][NumClasses]sim.Time `json:"per_core_fs"`
	// Avg is the per-core average of each class, on the same scale as
	// the wall time (truncating division; the invariant lives in
	// PerCore, not here).
	Avg [NumClasses]sim.Time `json:"avg_fs"`
}

// NewSummary assembles the report block from the per-core ledgers and
// finish times: Idle[i] = wall - finish[i].
func NewSummary(wall sim.Time, leds []*Ledger, finish []sim.Time) *Summary {
	s := &Summary{Classes: ClassNames()}
	for i, l := range leds {
		row := l.Classes()
		row[Idle] = wall - finish[i]
		s.PerCore = append(s.PerCore, row)
		for c := range row {
			s.Avg[c] += row[c]
		}
	}
	if n := sim.Time(uint64(len(leds))); n > 0 {
		for c := range s.Avg {
			s.Avg[c] /= n
		}
	}
	return s
}

// Check verifies the conservation invariant: every core's classes sum
// exactly to wall. A non-nil error names the first offending core and
// the discrepancy — a charge site that moved a clock without charging a
// class, or vice versa.
func (s *Summary) Check(wall sim.Time) error {
	for i, row := range s.PerCore {
		var sum sim.Time
		for _, v := range row {
			sum += v
		}
		if sum != wall {
			return fmt.Errorf("ledger: core %d classes sum to %v, wall is %v (off by %d fs)",
				i, sum, wall, int64(sum)-int64(wall))
		}
	}
	return nil
}
