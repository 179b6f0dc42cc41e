package coher

import (
	"math/bits"

	"repro/internal/mem"
)

// This file holds the hot-path table structures of the coherence layer.
// The per-access paths used to go through Go maps (map[mem.Addr]int per
// core for the RegionScout filter, map[mem.Addr]*state for the MESI
// invariant sweep); both are replaced here with array-backed and
// open-addressed tables keyed by region/line index. Workload address
// spaces are contiguous (mem.AddressSpace allocates upward from 1 MB),
// so region indices are small and dense — a flat counter array with a
// base offset beats hashing on every access.

// regionTable counts values per coarse-grain region for one agent. The
// zero value is an empty table.
type regionTable struct {
	base uint64  // region index of slot 0; valid once cnt is non-empty
	cnt  []int32 // counts, indexed by regionIndex-base
}

// get returns the count for region index idx.
func (t *regionTable) get(idx uint64) int32 {
	if len(t.cnt) == 0 || idx < t.base || idx-t.base >= uint64(len(t.cnt)) {
		return 0
	}
	return t.cnt[idx-t.base]
}

// add applies delta to region index idx, growing the table as needed,
// and returns the old and new counts. Counts never go below zero.
func (t *regionTable) add(idx uint64, delta int32) (old, new int32) {
	if len(t.cnt) == 0 {
		t.base = idx
		t.cnt = make([]int32, 64)
	}
	if idx < t.base {
		// Grow downward: shift existing counts up. Rare — allocation
		// proceeds upward — but kept correct for arbitrary layouts.
		shift := t.base - idx
		grown := make([]int32, uint64(len(t.cnt))+shift+64)
		copy(grown[shift:], t.cnt)
		t.cnt = grown
		t.base = idx
	}
	for idx-t.base >= uint64(len(t.cnt)) {
		t.cnt = append(t.cnt, make([]int32, len(t.cnt))...)
	}
	p := &t.cnt[idx-t.base]
	old = *p
	new = old + delta
	if new < 0 {
		new = 0
	}
	*p = new
	return old, new
}

// regionShift returns log2 of the smallest power of two >= n. The filter
// granularity is rounded up so region lookup is a shift, not a divide.
func regionShift(n uint64) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len64(n - 1))
}

// lineTable is a small open-addressed hash table keyed by line-aligned
// address, used by the MESI invariant sweep. Address 0 is the reserved
// "no address" (mem.AddressSpace starts at 1 MB), so it doubles as the
// empty-slot sentinel.
type lineTable struct {
	mask    uint64
	keys    []mem.Addr
	owners  []uint16 // Modified/Exclusive copies
	sharers []uint16 // Shared copies
}

// newLineTable returns a table with room for at least n lines.
func newLineTable(n int) *lineTable {
	sz := uint64(1)
	for sz < uint64(n)*2+1 {
		sz <<= 1
	}
	return &lineTable{
		mask:    sz - 1,
		keys:    make([]mem.Addr, sz),
		owners:  make([]uint16, sz),
		sharers: make([]uint16, sz),
	}
}

// slot returns the index for line address a, linear-probing from its
// Fibonacci-hashed home slot.
func (t *lineTable) slot(a mem.Addr) uint64 {
	i := (uint64(a) >> mem.LineShift) * 0x9E3779B97F4A7C15 >> 32 & t.mask
	for t.keys[i] != 0 && t.keys[i] != a {
		i = (i + 1) & t.mask
	}
	t.keys[i] = a
	return i
}

// addOwner records one Modified/Exclusive copy of line a.
func (t *lineTable) addOwner(a mem.Addr) { t.owners[t.slot(a)]++ }

// addSharer records one Shared copy of line a.
func (t *lineTable) addSharer(a mem.Addr) { t.sharers[t.slot(a)]++ }

// each calls fn for every recorded line.
func (t *lineTable) each(fn func(a mem.Addr, owners, sharers uint16)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(k, t.owners[i], t.sharers[i])
		}
	}
}

// holderTable is the domain's sharer index: for every line resident in
// at least one L1, the mask of the cores that hold it. It is an
// open-addressed table with linear probing and backward-shift deletion
// (no tombstones), sized at construction to at least twice the
// machine's total L1 lines. A line has an entry only while some L1
// holds it, so the table is never more than half full and never grows.
// A flat array indexed by line would need a slot for every line the
// workload touches, not only the resident ones.
type holderTable struct {
	keys  []uint32 // line index + 1; 0 marks an empty slot
	masks []uint64 // bit c set: core c holds the line
	shift uint     // 32 - log2(len(keys)), for Fibonacci hashing
}

// newHolderTable returns an empty index for a machine whose L1s hold
// lines lines in total.
func newHolderTable(lines int) *holderTable {
	sz := 16
	for sz < 2*lines {
		sz <<= 1
	}
	return &holderTable{
		keys:  make([]uint32, sz),
		masks: make([]uint64, sz),
		shift: uint(32 - bits.TrailingZeros(uint(sz))),
	}
}

// holderKey returns the table key of line a.
func holderKey(a mem.Addr) uint32 {
	idx := uint64(a) >> mem.LineShift
	if idx >= 1<<32-1 {
		panic("coher: line address beyond the sharer index's 32-bit line keys")
	}
	return uint32(idx) + 1
}

// home returns key k's home slot.
func (t *holderTable) home(k uint32) uint32 { return k * 0x9E3779B9 >> t.shift }

// find returns the slot holding key k, or the empty slot where it
// would go.
func (t *holderTable) find(k uint32) uint32 {
	m := uint32(len(t.keys) - 1)
	i := t.home(k)
	for t.keys[i] != 0 && t.keys[i] != k {
		i = (i + 1) & m
	}
	return i
}

// get returns the mask of cores holding line a (0 when none does).
func (t *holderTable) get(a mem.Addr) uint64 {
	return t.masks[t.find(holderKey(a))]
}

// add records that core c holds line a.
func (t *holderTable) add(a mem.Addr, c int) {
	k := holderKey(a)
	i := t.find(k)
	t.keys[i] = k
	t.masks[i] |= 1 << uint(c)
}

// remove records that core c no longer holds line a, deleting the
// line's entry once no core does.
func (t *holderTable) remove(a mem.Addr, c int) {
	i := t.find(holderKey(a))
	if t.masks[i] &^= 1 << uint(c); t.masks[i] != 0 || t.keys[i] == 0 {
		return
	}
	// Backward-shift deletion: walk the rest of the probe run and pull
	// back every entry whose home slot does not lie after the hole, so
	// each key stays reachable from its home without a gap.
	m := uint32(len(t.keys) - 1)
	for j := (i + 1) & m; t.keys[j] != 0; j = (j + 1) & m {
		if (j-t.home(t.keys[j]))&m >= (j-i)&m {
			t.keys[i], t.masks[i] = t.keys[j], t.masks[j]
			i = j
		}
	}
	t.keys[i], t.masks[i] = 0, 0
}

// each calls fn for every indexed line with its holder mask.
func (t *holderTable) each(fn func(a mem.Addr, holders uint64)) {
	for i, k := range t.keys {
		if k != 0 {
			fn(mem.Addr(k-1)<<mem.LineShift, t.masks[i])
		}
	}
}
