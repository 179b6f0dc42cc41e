package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// counts are the layers' work counters, read from the public report and
// Stats blocks after each run and summed over a job list.
type counts struct {
	syncFast, syncSlow, inline, handoffs uint64 // sim engine
	pruned                               uint64 // sim servers
	instr                                uint64 // cpu
	l1Acc, l1Hits, snoops                uint64 // cache
	misses, c2c                          uint64 // coher
	xbar                                 uint64 // noc
	l2Req, l2Acc, l2Hits                 uint64 // uncore
	dramAcc, rowHits, rowMisses          uint64 // dram
	dmaCmds, dmaBeats                    uint64 // dma
	trees                                uint64 // txntrace
}

func countsOf(rep *core.Report, sys *core.System) counts {
	c := counts{
		syncFast: rep.Engine.SyncFast, syncSlow: rep.Engine.SyncSlow,
		inline: rep.Engine.InlineSteps, handoffs: rep.Engine.Handoffs,
		pruned: rep.Servers.Pruned,
		instr:  rep.Instructions,
		l1Acc:  rep.L1.Reads + rep.L1.Writes, l1Hits: rep.L1.ReadHits + rep.L1.WriteHits,
		snoops: rep.L1.SnoopLookups,
		misses: rep.ReadMisses + rep.WriteMisses, c2c: rep.C2CCluster + rep.C2CRemote,
		xbar:  rep.Net.XbarMsgs,
		l2Req: rep.Unc.ReadRequests + rep.Unc.WriteRequests,
		l2Acc: rep.L2.Reads + rep.L2.Writes, l2Hits: rep.L2.ReadHits + rep.L2.WriteHits,
		dramAcc: rep.DRAM.Reads + rep.DRAM.Writes,
		rowHits: rep.DRAM.RowHits, rowMisses: rep.DRAM.RowMisses,
		dmaCmds: rep.DMACommands,
	}
	if sys.Model() == core.STR {
		for i := 0; i < sys.Cores(); i++ {
			c.dmaBeats += sys.StreamMem(i).DMA().Stats().Beats
		}
	}
	return c
}

func (c *counts) add(o counts) {
	c.syncFast += o.syncFast
	c.syncSlow += o.syncSlow
	c.inline += o.inline
	c.handoffs += o.handoffs
	c.pruned += o.pruned
	c.instr += o.instr
	c.l1Acc += o.l1Acc
	c.l1Hits += o.l1Hits
	c.snoops += o.snoops
	c.misses += o.misses
	c.c2c += o.c2c
	c.xbar += o.xbar
	c.l2Req += o.l2Req
	c.l2Acc += o.l2Acc
	c.l2Hits += o.l2Hits
	c.dramAcc += o.dramAcc
	c.rowHits += o.rowHits
	c.rowMisses += o.rowMisses
	c.dmaCmds += o.dmaCmds
	c.dmaBeats += o.dmaBeats
	c.trees += o.trees
}

// events are the engine's dispatch events: Syncs on either path plus
// inline steps.
func (c counts) events() uint64 { return c.syncFast + c.syncSlow + c.inline }

// layers are the host-time layers a CPU profile folds into, in print
// order. Their shares sum to 1.
var layers = []string{
	"sim.dispatch", "sim.server", "cpu", "cache", "coher", "noc", "uncore",
	"dram", "dma", "stream", "syncprim", "workload", "observers", "bench",
	"runtime.sched", "runtime.gc", "runtime.other", "other",
}

// packageLayer maps a package of the module to its layer; packages not
// listed (core, mem, energy, the benchmark itself, ...) are "other".
var packageLayer = map[string]string{
	"repro/internal/cpu":       "cpu",
	"repro/internal/cache":     "cache",
	"repro/internal/prefetch":  "cache",
	"repro/internal/coher":     "coher",
	"repro/internal/incoher":   "coher",
	"repro/internal/noc":       "noc",
	"repro/internal/uncore":    "uncore",
	"repro/internal/dram":      "dram",
	"repro/internal/dma":       "dma",
	"repro/internal/stream":    "stream",
	"repro/internal/lstore":    "stream",
	"repro/internal/syncprim":  "syncprim",
	"repro/internal/workload":  "workload",
	"repro/internal/ledger":    "observers",
	"repro/internal/txntrace":  "observers",
	"repro/internal/stats":     "observers",
	"repro/internal/trace":     "observers",
	"repro/internal/probe":     "observers",
	"repro/internal/bench":     "bench",
	"repro/internal/telemetry": "bench",
}

// frame is one function of a sampled stack.
type frame struct{ name, file string }

// pkgOf returns the import path of a symbol such as
// "repro/internal/sim.(*Engine).Run".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain dots and slashes
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/") || pkg == "internal/bytealg"
}

// Runtime frames that mark garbage-collector work and goroutine
// switching (channel operations, parking and the scheduler).
var (
	gcMarks = []string{"gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcStart",
		"gcMark", "markroot", "scanobject", "scanstack", "bgsweep", "bgscavenge",
		"sweepone", "sweepLocked", "mspan).sweep", "deductSweepCredit", "wbBufFlush",
		"gcWriteBarrier", "scavenge"}
	schedMarks = []string{"runtime.schedule", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.chansend", "runtime.chanrecv",
		"runtime.closechan", "runtime.selectgo", "runtime.mcall", "runtime.findRunnable",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.goexit0", "runtime.newproc", "runtime.gosched",
		"runtime.runqget", "runtime.runqput", "runtime.execute", "runtime.futex"}
)

func hasMark(fn string, marks []string) bool {
	for _, m := range marks {
		if strings.Contains(fn, m) {
			return true
		}
	}
	return false
}

// layerOf folds a stack, leaf first, into the layer of its leaf frame. A
// runtime leaf is split by the runtime frames above it into GC,
// scheduling and other runtime work. Other standard-library frames are
// passed through to the nearest caller in the module, so a sort or JSON
// encoding counts for the layer that asked for it.
func layerOf(stack []frame) string {
	if len(stack) == 0 {
		return "other"
	}
	if isRuntime(pkgOf(stack[0].name)) {
		layer := "runtime.other"
		for _, f := range stack {
			if !isRuntime(pkgOf(f.name)) {
				break
			}
			if hasMark(f.name, gcMarks) {
				return "runtime.gc"
			}
			if hasMark(f.name, schedMarks) {
				layer = "runtime.sched"
			}
		}
		return layer
	}
	for _, f := range stack {
		pkg := pkgOf(f.name)
		if pkg == "repro/internal/sim" {
			if strings.HasSuffix(filepath.ToSlash(f.file), "internal/sim/server.go") {
				return "sim.server"
			}
			return "sim.dispatch"
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "repro") || pkg == "main" {
			return "other"
		}
	}
	return "other"
}

// fold decodes a gzipped pprof CPU profile and sums its sampled CPU time
// by layer.
func fold(gz []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var stack []frame
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				f := p.funcs[fid]
				stack = append(stack, frame{p.str(f.name), p.str(f.file)})
			}
		}
		into[layerOf(stack)] += s.ns
	}
	return nil
}

// profile is the part of profile.proto (github.com/google/pprof) the
// fold needs: samples by location, locations by function, function names.
type profile struct {
	strs     []string
	funcs    map[uint64]struct{ name, file int64 }
	locLines map[uint64][]uint64 // function ids, innermost inlined frame first
	samples  []sample
}

type sample struct {
	locs []uint64 // leaf first
	ns   int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]struct{ name, file int64 }{}, locLines: map[uint64][]uint64{}}
	var sampleTypes, rawSamples [][]byte
	err := eachField(b, func(num int, _ uint64, sub []byte) error {
		switch num {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, sub)
		case 2: // sample
			rawSamples = append(rawSamples, sub)
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(sub, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locLines[id] = fids
			return err
		case 5: // function
			var id uint64
			var f struct{ name, file int64 }
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU profile's "cpu" column holds nanoseconds.
	col := -1
	for i, st := range sampleTypes {
		err := eachField(st, func(n int, v uint64, _ []byte) error {
			if n == 1 && p.str(int64(v)) == "cpu" {
				col = i
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if col < 0 {
		return nil, errors.New("profile: no cpu sample column")
	}
	for _, raw := range rawSamples {
		var s sample
		var vals []int64
		err := eachField(raw, func(n int, v uint64, d []byte) error {
			switch n {
			case 1:
				return packed(v, d, func(x uint64) { s.locs = append(s.locs, x) })
			case 2:
				return packed(v, d, func(x uint64) { vals = append(vals, int64(x)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if col < len(vals) {
			s.ns = vals[col]
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
			v = uint64(len(sub))
			if err := fn(num, v, sub); err != nil {
				return err
			}
			continue
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, nil); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field, packed (sub != nil) or not.
func packed(v uint64, sub []byte, put func(uint64)) error {
	if sub == nil {
		put(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := uvarint(sub)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		put(x)
		sub = sub[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// spanLog keeps the traced run's spans around the calls into each layer
// in memory, for writing out when the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: a root span
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_us"` // since the traced run began
	End    int64  `json:"end_us"`
}

type stamp struct {
	name     string
	from, to time.Time
}

// add records a span under parent (0: a root span) and returns its id.
func (l *spanLog) add(parent int, name, job string, pass int, from, to time.Time) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id, parent, name, job, pass,
		from.Sub(l.origin).Microseconds(), to.Sub(l.origin).Microseconds()})
	return id
}

// job records a job's root span, from its first stamp to its last, with
// one child span per layer call.
func (l *spanLog) job(key string, pass int, from time.Time, calls []stamp) {
	to := from
	for _, c := range calls {
		if c.to.After(to) {
			to = c.to
		}
	}
	root := l.add(0, "job", key, pass, from, to)
	for _, c := range calls {
		l.add(root, c.name, key, pass, c.from, c.to)
	}
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
