package txntrace

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/trace"
)

// ClassSummary is the per-class exemplar digest that rides on telemetry
// endpoints and paperbench manifest records (the tail_exemplars block):
// how many transactions the class saw, how many exemplar trees the
// reservoir holds, and the slowest transaction's identity.
type ClassSummary struct {
	Class     string `json:"class"`
	Count     uint64 `json:"count"`
	Exemplars int    `json:"exemplars"`
	SlowestID uint64 `json:"slowest_id,omitempty"`
	SlowestFS uint64 `json:"slowest_fs,omitempty"`
	Core      int    `json:"slowest_core,omitempty"`
}

// Summary returns one ClassSummary per class that observed at least one
// transaction, in class declaration order.
func (t *Tracer) Summary() []ClassSummary {
	if t == nil {
		return nil
	}
	var out []ClassSummary
	for _, c := range Classes() {
		n := t.Count(c)
		if n == 0 {
			continue
		}
		s := ClassSummary{Class: c.String(), Count: n, Exemplars: len(t.reservoirs[c])}
		if s.Exemplars > 0 {
			worst := t.reservoirs[c][0]
			s.SlowestID, s.SlowestFS, s.Core = worst.ID, uint64(worst.Latency()), worst.Core
		}
		out = append(out, s)
	}
	return out
}

// jsonTxn is the wire form of a transaction tree, with its sampled bit
// and exemplar mark made explicit.
type jsonTxn struct {
	ID          uint64    `json:"id"`
	Class       string    `json:"class"`
	Core        int       `json:"core"`
	Addr        uint64    `json:"addr"`
	StartFS     sim.Time  `json:"start_fs"`
	EndFS       sim.Time  `json:"end_fs"`
	LatencyFS   sim.Time  `json:"latency_fs"`
	Sampled     bool      `json:"sampled,omitempty"`
	Exemplar    bool      `json:"exemplar,omitempty"`
	Tags        []string  `json:"tags,omitempty"`
	Hops        []jsonHop `json:"hops,omitempty"`
	Kids        []jsonTxn `json:"children,omitempty"`
	DroppedHops uint64    `json:"dropped_hops,omitempty"`
	DroppedKids uint64    `json:"dropped_children,omitempty"`
}

// jsonHop is the wire form of a hop, with its tag rendered.
type jsonHop struct {
	Component string   `json:"component"`
	Op        string   `json:"op"`
	StartFS   sim.Time `json:"start_fs"`
	EndFS     sim.Time `json:"end_fs"`
	AdvanceFS sim.Time `json:"advance_fs"`
	Tag       string   `json:"tag,omitempty"`
}

func toJSON(x *Txn, inReservoir map[uint64]bool) jsonTxn {
	j := jsonTxn{
		ID: x.ID, Class: x.Class.String(), Core: x.Core, Addr: x.Addr,
		StartFS: x.StartFS, EndFS: x.EndFS, LatencyFS: x.Latency(),
		Sampled: x.sampled, Exemplar: inReservoir[x.ID],
		Tags:        x.Tags,
		DroppedHops: x.DroppedHops, DroppedKids: x.DroppedKids,
	}
	if len(x.Hops) > 0 {
		j.Hops = make([]jsonHop, len(x.Hops))
		for i, h := range x.Hops {
			j.Hops[i] = jsonHop{h.Component, h.Op, h.StartFS, h.EndFS, h.AdvanceFS, h.Tag()}
		}
	}
	for _, k := range x.Kids {
		j.Kids = append(j.Kids, toJSON(k, inReservoir))
	}
	return j
}

// roots returns every retained root tree — sampled captures plus
// exemplar reservoirs, deduplicated — in (StartFS, ID) order, plus the
// set of IDs that sit in an exemplar reservoir.
func (t *Tracer) roots() ([]*Txn, map[uint64]bool) {
	if t == nil {
		return nil, nil
	}
	inReservoir := map[uint64]bool{}
	byID := map[uint64]*Txn{}
	for _, c := range Classes() {
		for _, x := range t.reservoirs[c] {
			inReservoir[x.ID] = true
			byID[x.ID] = x
		}
	}
	for _, x := range t.kept {
		byID[x.ID] = x
	}
	// A reservoir can hold a nested transaction whose enclosing tree is
	// itself retained; exporting both would duplicate the subtree, so a
	// tree is top-level only when no other retained tree reaches it
	// through its Kids (the nested copy keeps its exemplar mark). A child
	// its parent dropped past maxKids is reachable from no tree, so it is
	// exported on its own.
	nested := map[uint64]bool{}
	var mark func(kids []*Txn)
	mark = func(kids []*Txn) {
		for _, k := range kids {
			nested[k.ID] = true
			mark(k.Kids)
		}
	}
	for _, x := range byID {
		mark(x.Kids)
	}
	txs := make([]*Txn, 0, len(byID))
	for id, x := range byID {
		if !nested[id] {
			txs = append(txs, x)
		}
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i].before(txs[j]) })
	return txs, inReservoir
}

// Trees returns how many root transaction trees the tracer retained:
// sampled captures plus exemplar reservoirs, deduplicated.
func (t *Tracer) Trees() int {
	txs, _ := t.roots()
	return len(txs)
}

// WriteJSONL writes every retained transaction tree as one JSON object
// per line (the -txn-trace sink), in deterministic (start, ID) order.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	txs, inReservoir := t.roots()
	for _, x := range txs {
		if err := enc.Encode(toJSON(x, inReservoir)); err != nil {
			return err
		}
	}
	return nil
}

// cycles renders a femtosecond interval in cycles of the given period.
func cycles(fs, period sim.Time) float64 {
	if period <= 0 {
		return 0
	}
	return float64(fs) / float64(period)
}

// WriteExplainTail prints the worst-K exemplar trees per class with
// per-hop cycle attribution (the memsim -explain-tail table). period is
// the core clock period; hop shares are printed in cycles and sum to
// each transaction's total latency by construction.
func (t *Tracer) WriteExplainTail(w io.Writer, period sim.Time) {
	if t == nil {
		return
	}
	for _, c := range Classes() {
		exs := t.Exemplars(c)
		if len(exs) == 0 {
			continue
		}
		fmt.Fprintf(w, "worst-%d %s exemplars (%d observed)\n", len(exs), c, t.Count(c))
		for _, x := range exs {
			writeTxnTree(w, x, period, "  ")
		}
	}
	if d := t.DroppedSampled(); d > 0 {
		fmt.Fprintf(w, "# %d sampled trees dropped past the retention cap\n", d)
	}
}

func writeTxnTree(w io.Writer, x *Txn, period sim.Time, indent string) {
	fmt.Fprintf(w, "%s#%d %s core=%d addr=0x%x: %.1f cycles (%d fs)\n",
		indent, x.ID, x.Class, x.Core, x.Addr, cycles(x.Latency(), period), x.Latency())
	for _, tag := range x.Tags {
		fmt.Fprintf(w, "%s  tag %s\n", indent, tag)
	}
	var sum sim.Time
	for _, h := range x.Hops {
		sum += h.AdvanceFS
		tag := h.Tag()
		if tag != "" {
			tag = "  " + tag
		}
		fmt.Fprintf(w, "%s  %8.1f cyc  %s.%s%s\n", indent, cycles(h.AdvanceFS, period), h.Component, h.Op, tag)
	}
	fmt.Fprintf(w, "%s  %8.1f cyc  = total\n", indent, cycles(sum, period))
	if x.DroppedHops > 0 {
		fmt.Fprintf(w, "%s  (%d hops dropped past the per-txn cap)\n", indent, x.DroppedHops)
	}
	for _, k := range x.Kids {
		writeTxnTree(w, k, period, indent+"    ")
	}
	if x.DroppedKids > 0 {
		fmt.Fprintf(w, "%s  (%d children dropped past the per-txn cap)\n", indent, x.DroppedKids)
	}
}

// Merged component tracks sit far above the per-core rows of the stall
// timeline, one row per component, in this fixed order.
const componentTrackBase = 1000

var componentTracks = []string{"l1", "noc", "l2", "dram", "dma", "txn", "wait"}

func trackOf(component string) int {
	if i := slices.Index(componentTracks, component); i >= 0 {
		return componentTrackBase + i
	}
	return componentTrackBase + len(componentTracks)
}

// MergeChrome merges the retained transaction trees into a Chrome-trace
// collector: each hop becomes an "X" span on its component's track, and
// each root transaction becomes a flow chain ("s"/"t"/"f" request
// arrows) threading its hops in time order, so -trace timelines show
// the causal path of every traced request.
func (t *Tracer) MergeChrome(tc *trace.Collector) {
	if t == nil || tc == nil {
		return
	}
	for i, c := range componentTracks {
		tc.SetTrackName(componentTrackBase+i, "txn."+c)
	}
	tc.SetTrackName(componentTrackBase+len(componentTracks), "txn.other")
	txs, _ := t.roots()
	for _, x := range txs {
		mergeTxn(tc, x)
	}
}

func mergeTxn(tc *trace.Collector, x *Txn) {
	class := x.Class.String()
	var steps []trace.FlowStep
	for _, h := range x.Hops {
		// Child aggregates ("txn" hops) are represented by the child's
		// own spans; skip the aggregate to avoid double-drawing.
		if h.Component == "txn" {
			continue
		}
		tr := trackOf(h.Component)
		tc.Add(tr, fmt.Sprintf("%s %s.%s", class, h.Component, h.Op), h.StartFS, h.EndFS-h.StartFS)
		steps = append(steps, trace.FlowStep{Track: tr, At: h.StartFS})
	}
	tc.AddFlow(x.ID, class, steps)
	for _, k := range x.Kids {
		mergeTxn(tc, k)
	}
}
