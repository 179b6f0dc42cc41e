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

// Line is one cache line's bookkeeping, 16 bytes, so four share a
// 64-byte host cache line and none straddles one. Its address and LRU
// stamp live beside the set's other tags and stamps (Cache.meta).
// Callers may change State between valid states, Dirty and Prefetched;
// validity itself changes only through Insert, Invalidate and FlushAll,
// which keep the tags in step.
type Line struct {
	FillDone   sim.Time // time the fill completes; accesses before it wait
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
// A parallel array holds, per set, one block of the set's packed tags
// followed by its LRU stamps, so a lookup scans 8 bytes per way and a
// hit's stamp update lands in the block it just read (one host line for
// a 2-way L1 set), while victim selection in a 16-way L2 set reads
// 256 B of tags and stamps instead of walking 16 lines.
type Cache struct {
	cfg   Config
	lines []Line // nsets * assoc entries, set-major
	// meta holds 2*assoc words per set: the set's tags, then its stamps.
	// Way w of the set whose lines start at lines[b] has its tag at
	// meta[2*b+w] and its stamp at meta[2*b+assoc+w]. A tag is the
	// line's address with bit 0 set while the line is valid, and 0 while
	// it is Invalid (line addresses are 32-byte aligned, so bit 0 is
	// free); a stamp is the tick of the way's last fill or demand hit.
	meta    []uint64
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
		meta:    make([]uint64, 2*nlines),
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

// find returns the index of the first line of a's set and the way of
// the valid line holding a, or way -1. The way's tag is meta[2*base+way]
// and its stamp meta[2*base+assoc+way].
func (c *Cache) find(a mem.Addr) (base uint64, way int) {
	tag := tagOf(a)
	base = c.setBase(a)
	for i, t := range c.meta[2*base : 2*base+c.assoc] {
		if t == tag {
			return base, i
		}
	}
	return base, -1
}

// eachValid calls fn with the index and address of every valid line,
// in set order.
func (c *Cache) eachValid(fn func(i int, a mem.Addr)) {
	for b := 0; b < len(c.lines); b += int(c.assoc) {
		for w, t := range c.meta[2*b : 2*b+int(c.assoc)] {
			if t != 0 {
				fn(b+w, mem.Addr(t&^1))
			}
		}
	}
}

// Lookup probes the tag array for the line holding a, without updating
// statistics. It returns nil on miss.
func (c *Cache) Lookup(a mem.Addr) *Line {
	if b, w := c.find(a); w >= 0 {
		return &c.lines[b+uint64(w)]
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
	b, w := c.find(a)
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	if w < 0 {
		return nil, false
	}
	ln = &c.lines[b+uint64(w)]
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
	c.meta[2*b+c.assoc+uint64(w)] = c.tick
	return ln, wasPrefetched
}

// CountSnoop counts one probe of the tags on behalf of another agent
// (coherence). The prober reads the tags with Lookup only when it cannot
// tell otherwise whether the line is here, so the count is the probes
// the modelled hardware makes, not the host's tag reads.
func (c *Cache) CountSnoop() { c.stats.SnoopLookups++ }

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
	tags := c.meta[2*base : 2*base+c.assoc]
	stamps := c.meta[2*base+c.assoc : 2*base+2*c.assoc]
	v := 0
	for i, t := range tags {
		if t == tag {
			panic(fmt.Sprintf("cache %s: Insert of already-present line %v", c.cfg.Name, la))
		}
		if t == 0 {
			v = i
			break
		}
		if stamps[i] < stamps[v] {
			v = i
		}
	}
	victim := &c.lines[int(base)+v]
	var ev Evicted
	if tags[v] != 0 {
		ev = Evicted{Addr: mem.Addr(tags[v] &^ 1), Dirty: victim.Dirty, Valid: true, Prefetched: victim.Prefetched}
		c.stats.Evictions++
		if victim.Dirty {
			c.stats.Writebacks++
		}
	}
	c.tick++
	*victim = Line{State: st, FillDone: fillDone}
	tags[v] = tag
	stamps[v] = c.tick
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
	b, w := c.find(a)
	if w < 0 {
		return false, false
	}
	i := b + uint64(w)
	present, dirty = true, c.lines[i].Dirty
	c.stats.Invalidates++
	c.lines[i] = Line{}
	c.meta[2*b+uint64(w)] = 0 // an empty way is a victim before any stamp is compared
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
	c.eachValid(func(i int, a mem.Addr) {
		if c.lines[i].Dirty {
			dirty = append(dirty, a)
		}
		c.lines[i] = Line{}
	})
	clear(c.meta)
	return dirty
}

// Lines returns the addresses of all valid lines, in set order.
func (c *Cache) Lines() []mem.Addr {
	var out []mem.Addr
	c.eachValid(func(_ int, a mem.Addr) { out = append(out, a) })
	return out
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	c.eachValid(func(int, mem.Addr) { n++ })
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
