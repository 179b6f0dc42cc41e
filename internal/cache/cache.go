// Package cache implements the set-associative tag arrays used for every
// cache in the study: the 32 KB 2-way L1 data caches and 16 KB I-caches of
// the cache-coherent model, the 8 KB stack/global cache of the streaming
// model, and the shared 512 KB 16-way L2. It tracks tags, MESI state,
// dirty bits, LRU order and fill completion times — never data, because
// the simulator is functionally decoupled (see internal/mem).
package cache

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// State is a MESI coherence state. Caches that are not kept coherent (the
// L2, the streaming model's small cache) use only Invalid/Exclusive/
// Modified, treating Exclusive as plain "valid clean".
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the single-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Line is one cache line's bookkeeping. The fields are ordered so a
// line packs into 32 bytes. Callers may change State between valid
// states, Dirty and Prefetched; validity itself changes only through
// Insert, Invalidate and FlushAll, which keep the tag index in step.
type Line struct {
	Addr       mem.Addr // line-aligned address; valid only when State != Invalid
	FillDone   sim.Time // time the fill completes; accesses before it wait
	lastUse    uint64
	State      State
	Dirty      bool
	Prefetched bool // brought in by a prefetcher and not yet demanded
}

// Stats counts tag-array activity. The coherence layer and energy model
// interpret them.
type Stats struct {
	Reads        uint64 // read lookups (demand)
	Writes       uint64 // write lookups (demand)
	ReadHits     uint64
	WriteHits    uint64
	Fills        uint64 // lines installed
	Writebacks   uint64 // dirty lines evicted
	Evictions    uint64 // total lines evicted (dirty or clean)
	Invalidates  uint64 // lines killed by coherence
	SnoopLookups uint64 // tag probes on behalf of other agents
	PFSAllocs    uint64 // lines allocated without refill (PrepareForStore)
	PrefetchHits uint64 // demand hits on prefetched lines
}

// Add accumulates src into s (aggregating per-core caches).
func (s *Stats) Add(src Stats) {
	s.Reads += src.Reads
	s.Writes += src.Writes
	s.ReadHits += src.ReadHits
	s.WriteHits += src.WriteHits
	s.Fills += src.Fills
	s.Writebacks += src.Writebacks
	s.Evictions += src.Evictions
	s.Invalidates += src.Invalidates
	s.SnoopLookups += src.SnoopLookups
	s.PFSAllocs += src.PFSAllocs
	s.PrefetchHits += src.PrefetchHits
}

// Snapshot emits the counters in a fixed order; the probe layer
// (internal/probe) samples it every epoch to build miss-rate and
// writeback-burst series.
func (s Stats) Snapshot(put func(name string, value float64)) {
	put("reads", float64(s.Reads))
	put("writes", float64(s.Writes))
	put("read_hits", float64(s.ReadHits))
	put("write_hits", float64(s.WriteHits))
	put("fills", float64(s.Fills))
	put("writebacks", float64(s.Writebacks))
	put("evictions", float64(s.Evictions))
	put("invalidates", float64(s.Invalidates))
	put("snoop_lookups", float64(s.SnoopLookups))
	put("prefetch_hits", float64(s.PrefetchHits))
}

// Config sizes a cache.
type Config struct {
	Name     string
	Size     uint64 // bytes
	Assoc    int
	LineSize uint64 // must be mem.LineSize for this study
}

// Cache is a set-associative tag array. The ways of all sets live in
// one flat set-major array and the set index is a mask when the set
// count is a power of two (it always is for the study's Table 2
// geometries), keeping the per-access lookup free of divisions and
// pointer chasing — it is the hottest path of the whole simulator.
// A parallel array packs each way's tag into one word, so a lookup
// scans 8 bytes per way (128 B for a 16-way L2 set) instead of the
// whole lines.
type Cache struct {
	cfg   Config
	lines []Line // nsets * assoc entries, set-major
	// tags[i] is lines[i].Addr|1 while line i is valid and 0 while it is
	// Invalid (line addresses are 32-byte aligned, so bit 0 is free).
	tags    []uint64
	assoc   uint64
	nsets   uint64
	setMask uint64 // nsets-1; valid only when pow2
	pow2    bool
	tick    uint64
	stats   Stats
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.LineSize == 0 {
		cfg.LineSize = mem.LineSize
	}
	if cfg.LineSize != mem.LineSize {
		panic("cache: study uses 32-byte lines everywhere")
	}
	if cfg.Assoc <= 0 || cfg.Size == 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	nlines := cfg.Size / cfg.LineSize
	nsets := nlines / uint64(cfg.Assoc)
	if nsets == 0 || nlines%uint64(cfg.Assoc) != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible into %d-way sets", cfg.Name, nlines, cfg.Assoc))
	}
	return &Cache{
		cfg:     cfg,
		lines:   make([]Line, nlines),
		tags:    make([]uint64, nlines),
		assoc:   uint64(cfg.Assoc),
		nsets:   nsets,
		setMask: nsets - 1,
		pow2:    nsets&(nsets-1) == 0,
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// setBase returns the index of the first way of a's set.
func (c *Cache) setBase(a mem.Addr) uint64 {
	idx := uint64(a) >> mem.LineShift
	if c.pow2 {
		idx &= c.setMask
	} else {
		idx %= c.nsets
	}
	return idx * c.assoc
}

// tagOf returns the packed tag of the line holding a.
func tagOf(a mem.Addr) uint64 { return uint64(a.Line()) | 1 }

// find returns the index of the valid line holding a, or -1.
func (c *Cache) find(a mem.Addr) int {
	tag := tagOf(a)
	base := c.setBase(a)
	for i, t := range c.tags[base : base+c.assoc] {
		if t == tag {
			return int(base) + i
		}
	}
	return -1
}

// Lookup probes the tag array for the line holding a, without updating
// statistics. It returns nil on miss.
func (c *Cache) Lookup(a mem.Addr) *Line {
	if i := c.find(a); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Access probes for a demand read or write, updating hit/miss statistics
// and LRU order. It returns the line on a hit, nil on a miss.
func (c *Cache) Access(a mem.Addr, write bool) *Line {
	ln, _ := c.AccessTagged(a, write)
	return ln
}

// AccessTagged is Access, additionally reporting whether the hit landed
// on a line installed by a prefetcher and not yet demanded (the "tag"
// that advances a tagged prefetcher's stream).
func (c *Cache) AccessTagged(a mem.Addr, write bool) (ln *Line, wasPrefetched bool) {
	ln = c.Lookup(a)
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if ln == nil {
		return nil, false
	}
	if write {
		c.stats.WriteHits++
	} else {
		c.stats.ReadHits++
	}
	if ln.Prefetched {
		ln.Prefetched = false
		wasPrefetched = true
		c.stats.PrefetchHits++
	}
	c.tick++
	ln.lastUse = c.tick
	return ln, wasPrefetched
}

// Snoop probes on behalf of another agent (coherence, DMA), counting a
// snoop lookup. It returns the line or nil.
func (c *Cache) Snoop(a mem.Addr) *Line {
	c.stats.SnoopLookups++
	return c.Lookup(a)
}

// Evicted describes a line displaced by Insert.
type Evicted struct {
	Addr       mem.Addr
	Dirty      bool
	Valid      bool
	Prefetched bool // the victim was prefetched and never demanded
}

// Insert installs the line for a, evicting the LRU way if the set is full.
// The returned Evicted reports what was displaced so the caller can issue
// the writeback. The new line starts with the given state and fill time.
func (c *Cache) Insert(a mem.Addr, st State, fillDone sim.Time) (*Line, Evicted) {
	if st == Invalid {
		panic("cache: Insert with Invalid state")
	}
	la, tag := a.Line(), tagOf(a)
	base := c.setBase(a)
	set, tags := c.lines[base:base+c.assoc], c.tags[base:base+c.assoc]
	v := 0
	for i, t := range tags {
		if t == tag {
			panic(fmt.Sprintf("cache %s: Insert of already-present line %v", c.cfg.Name, la))
		}
		if t == 0 {
			v = i
			break
		}
		if set[i].lastUse < set[v].lastUse {
			v = i
		}
	}
	victim := &set[v]
	var ev Evicted
	if tags[v] != 0 {
		ev = Evicted{Addr: victim.Addr, Dirty: victim.Dirty, Valid: true, Prefetched: victim.Prefetched}
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tick++
	*victim = Line{Addr: la, State: st, FillDone: fillDone, lastUse: c.tick}
	tags[v] = tag
	c.stats.Fills++
	return victim, ev
}

// InsertPFS allocates and validates a line without refilling it, as the
// MIPS32 "Prepare For Store" instruction does. The line is Modified and
// immediately usable.
func (c *Cache) InsertPFS(a mem.Addr, at sim.Time) (*Line, Evicted) {
	ln, ev := c.Insert(a, Modified, at)
	ln.Dirty = true
	c.stats.PFSAllocs++
	c.stats.Fills-- // PFS is not a fill: no data was moved
	return ln, ev
}

// Invalidate removes the line holding a, if present, returning whether it
// was present and whether it was dirty (the caller decides if the dirty
// data must be transferred).
func (c *Cache) Invalidate(a mem.Addr) (present, dirty bool) {
	i := c.find(a)
	if i < 0 {
		return false, false
	}
	present, dirty = true, c.lines[i].Dirty
	c.stats.Invalidates++
	c.lines[i] = Line{}
	c.tags[i] = 0
	return present, dirty
}

// Downgrade moves the line holding a (if present) to Shared, returning the
// line. Dirtiness is cleared by the caller after it writes the data back.
func (c *Cache) Downgrade(a mem.Addr) *Line {
	ln := c.Lookup(a)
	if ln == nil {
		return nil
	}
	ln.State = Shared
	return ln
}

// FlushAll invalidates every line, returning the dirty line addresses in
// an unspecified order. Used by tests and by workload epilogues that
// model cache cleaning.
func (c *Cache) FlushAll() []mem.Addr {
	var dirty []mem.Addr
	for i, t := range c.tags {
		if t == 0 {
			continue
		}
		if ln := &c.lines[i]; ln.Dirty {
			dirty = append(dirty, ln.Addr)
		}
		c.lines[i] = Line{}
	}
	clear(c.tags)
	return dirty
}

// Lines returns the addresses of all valid lines, in set order.
func (c *Cache) Lines() []mem.Addr {
	var out []mem.Addr
	for i, t := range c.tags {
		if t != 0 {
			out = append(out, c.lines[i].Addr)
		}
	}
	return out
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// MissRate returns demand misses over demand accesses.
func (s Stats) MissRate() float64 {
	acc := s.Reads + s.Writes
	if acc == 0 {
		return 0
	}
	hits := s.ReadHits + s.WriteHits
	return float64(acc-hits) / float64(acc)
}

// Misses returns demand misses.
func (s Stats) Misses() uint64 {
	return s.Reads + s.Writes - s.ReadHits - s.WriteHits
}
