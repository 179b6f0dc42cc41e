// Package trace collects simulation activity spans and exports them in
// the Chrome trace-event JSON format (chrome://tracing, Perfetto), so a
// run's stalls, synchronization and DMA waits, and traced memory
// transfers can be inspected on a timeline. Each core's track (tid =
// core id) is a view of its cycle ledger: internal/cpu records one span
// per stall or wait charge, named by the ledger class (load_stall,
// store_stall, sync_wait, dma_wait, prefetch_shadow) and merged with the
// class's previous span when contiguous, so per core and class the spans
// sum to the ledger's total. The transaction tracer merges its hops
// (DMA transfers included) onto component tracks from 1000 up, with flow
// arrows; the probe layer adds counter tracks. Collection is opt-in per
// run and capped, because a paper-scale simulation can produce millions
// of spans.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/sim"
)

// DefaultCap bounds the number of recorded spans.
const DefaultCap = 1 << 20

// Span is one timeline interval.
type Span struct {
	Track int    // timeline row: a core id, or a transaction component track
	Name  string // a core's ledger class ("load_stall"), or a hop ("dma_get dma.queue")
	Start sim.Time
	Dur   sim.Time
}

// Counter is one sample of a named counter track ("ph":"C" in the
// Chrome format; Perfetto renders it as a value-over-time graph above
// the span timeline). The probe layer's per-epoch series are merged in
// as counters after a run.
type Counter struct {
	Name  string
	At    sim.Time
	Value float64
}

// FlowStep is one anchor of a flow arrow: the track the request was on
// at that instant. Chrome draws an arrow between consecutive steps.
type FlowStep struct {
	Track int
	At    sim.Time
}

// Flow is one request arrow chain ("s"/"t"/"f" events sharing an id):
// the transaction tracer merges one Flow per traced memory request, so
// -trace timelines show where each request traveled.
type Flow struct {
	ID    uint64
	Name  string
	Steps []FlowStep
}

// Collector accumulates spans. The simulation engine is single-threaded,
// so no locking is needed.
type Collector struct {
	Cap      int
	spans    []Span
	counters []Counter
	flows    []Flow
	tracks   map[int]string
	dropped  uint64
}

// New returns a collector with the default cap.
func New() *Collector { return &Collector{Cap: DefaultCap} }

// Add records one span; spans beyond the cap are counted as dropped.
func (c *Collector) Add(track int, name string, start, dur sim.Time) {
	if c.Cap > 0 && len(c.spans) >= c.Cap {
		c.dropped++
		return
	}
	c.spans = append(c.spans, Span{Track: track, Name: name, Start: start, Dur: dur})
}

// Len returns the number of recorded spans.
func (c *Collector) Len() int { return len(c.spans) }

// Dropped returns how many spans were discarded after the cap.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Spans returns the recorded spans (read-only view).
func (c *Collector) Spans() []Span { return c.spans }

// AddCounter records one counter sample. Counter samples are bounded by
// their producer (the probe recorder's epoch cap), so they do not count
// against Cap.
func (c *Collector) AddCounter(name string, at sim.Time, value float64) {
	c.counters = append(c.counters, Counter{Name: name, At: at, Value: value})
}

// Counters returns the recorded counter samples (read-only view).
func (c *Collector) Counters() []Counter { return c.counters }

// AddFlow records one request arrow chain. Flows are bounded by their
// producer (the transaction tracer's reservoirs and sampling cap), so
// they do not count against Cap. Chains shorter than two steps draw no
// arrow and are dropped.
func (c *Collector) AddFlow(id uint64, name string, steps []FlowStep) {
	if len(steps) < 2 {
		return
	}
	c.flows = append(c.flows, Flow{ID: id, Name: name, Steps: steps})
}

// Flows returns the recorded flow chains (read-only view).
func (c *Collector) Flows() []Flow { return c.flows }

// SetTrackName labels a timeline row ("M" thread_name metadata), so
// merged component tracks render as "uncore.l2" instead of a bare tid.
func (c *Collector) SetTrackName(track int, name string) {
	if c.tracks == nil {
		c.tracks = map[int]string{}
	}
	c.tracks[track] = name
}

// chromeEvent is the trace-event wire format ("X" = complete event;
// timestamps and durations in microseconds).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// counterEvent is a "C" counter sample; Perfetto draws one graph track
// per name, with the sampled value under args.
type counterEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Pid  int                `json:"pid"`
	Args map[string]float64 `json:"args"`
}

// metaEvent is an "M" metadata record.
type metaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Args map[string]uint64 `json:"args"`
}

// threadNameEvent is the "M" thread_name record labeling one track.
type threadNameEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// flowEvent is one anchor of a flow arrow ("s" start, "t" step,
// "f" finish), tied together by Id.
type flowEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Id   uint64  `json:"id"`
	Ts   float64 `json:"ts"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// WriteChrome writes the spans, counter samples and a trailing
// dropped-span metadata record as a Chrome trace-event JSON array.
func (c *Collector) WriteChrome(w io.Writer) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	first := true
	emit := func(ev any) error {
		if !first {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	// Track labels first, in ascending track order (deterministic output
	// regardless of SetTrackName call order).
	tids := make([]int, 0, len(c.tracks))
	for tid := range c.tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		err := emit(threadNameEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  0,
			Tid:  tid,
			Args: map[string]string{"name": c.tracks[tid]},
		})
		if err != nil {
			return err
		}
	}
	for _, s := range c.spans {
		err := emit(chromeEvent{
			Name: s.Name,
			Cat:  "sim",
			Ph:   "X",
			Ts:   float64(s.Start) / float64(sim.Microsecond),
			Dur:  float64(s.Dur) / float64(sim.Microsecond),
			Pid:  0,
			Tid:  s.Track,
		})
		if err != nil {
			return err
		}
	}
	for _, cs := range c.counters {
		err := emit(counterEvent{
			Name: cs.Name,
			Cat:  "probe",
			Ph:   "C",
			Ts:   float64(cs.At) / float64(sim.Microsecond),
			Pid:  0,
			Args: map[string]float64{"value": cs.Value},
		})
		if err != nil {
			return err
		}
	}
	for _, f := range c.flows {
		for i, st := range f.Steps {
			ph := "t"
			switch i {
			case 0:
				ph = "s"
			case len(f.Steps) - 1:
				ph = "f"
			}
			err := emit(flowEvent{
				Name: f.Name,
				Cat:  "txn",
				Ph:   ph,
				Id:   f.ID,
				Ts:   float64(st.At) / float64(sim.Microsecond),
				Pid:  0,
				Tid:  st.Track,
			})
			if err != nil {
				return err
			}
		}
	}
	// Always record how much the cap discarded (zero included), so a
	// truncated timeline is never mistaken for a complete one.
	err := emit(metaEvent{
		Name: "dropped_spans",
		Ph:   "M",
		Pid:  0,
		Args: map[string]uint64{"dropped": c.dropped},
	})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, "]\n")
	return err
}

// Summary aggregates total duration per (track, name) for quick textual
// inspection and tests.
func (c *Collector) Summary() map[string]sim.Time {
	out := map[string]sim.Time{}
	for _, s := range c.spans {
		out[fmt.Sprintf("%d/%s", s.Track, s.Name)] += s.Dur
	}
	return out
}
