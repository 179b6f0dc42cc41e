// Package mem defines the simulated physical address space shared by both
// memory models: addresses, cache-line math, and a region allocator that
// workloads use to place their data structures.
//
// The simulator is timing-directed and functionally decoupled: addresses
// name *regions of the timing model* only. The actual data always lives in
// ordinary Go memory owned by the workload.
package mem

import (
	"fmt"
	"math/bits"
)

// Addr is a simulated physical byte address.
type Addr uint64

// LineSize is the cache-line and DMA-beat size used throughout the study
// (Table 2: 32-byte blocks everywhere).
const LineSize = 32

// LineShift is log2(LineSize).
const LineShift = 5

// Line returns the address of the cache line containing a.
func (a Addr) Line() Addr { return a &^ (LineSize - 1) }

// LineOffset returns the offset of a within its cache line.
func (a Addr) LineOffset() uint64 { return uint64(a) & (LineSize - 1) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%08x", uint64(a)) }

// LinesCovered returns how many distinct cache lines the byte range
// [a, a+n) touches.
func LinesCovered(a Addr, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	first := uint64(a.Line())
	last := uint64((a + Addr(n) - 1).Line())
	return (last-first)/LineSize + 1
}

// Divisor divides by a fixed positive value, as address interleaving
// does on every access (line to bank, channel or DRAM row). A power of
// two, which every Table 2 geometry is, divides with a shift and
// reduces with a mask; other values, used only by ablations, fall back
// to a hardware divide.
type Divisor struct {
	d, mask uint64
	shift   uint8
	pow2    bool
}

// NewDivisor returns a Divisor by d, which must be positive.
func NewDivisor(d uint64) Divisor {
	if d == 0 {
		panic("mem: zero divisor")
	}
	if d&(d-1) != 0 {
		return Divisor{d: d}
	}
	return Divisor{d: d, mask: d - 1, shift: uint8(bits.TrailingZeros64(d)), pow2: true}
}

// Div returns x / d.
func (v Divisor) Div(x uint64) uint64 {
	if v.pow2 {
		return x >> v.shift
	}
	return x / v.d
}

// Mod returns x % d.
func (v Divisor) Mod(x uint64) uint64 {
	if v.pow2 {
		return x & v.mask
	}
	return x % v.d
}

// Region is a named, contiguous block of the simulated address space.
type Region struct {
	Name string
	Base Addr
	Size uint64
}

// End returns one past the last byte of the region.
func (r Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the region.
func (r Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// At returns the address of byte offset off within the region, panicking on
// overflow: workloads use it to convert indices to simulated addresses, and
// an out-of-range index is always a workload bug.
func (r Region) At(off uint64) Addr {
	if off >= r.Size {
		panic(fmt.Sprintf("mem: offset %d outside region %q (size %d)", off, r.Name, r.Size))
	}
	return r.Base + Addr(off)
}

// Index returns the address of element i in an array of elemSize-byte
// elements starting at the region base.
func (r Region) Index(i int, elemSize uint64) Addr {
	return r.At(uint64(i) * elemSize)
}

// AddressSpace hands out non-overlapping regions. Allocation is permanent:
// the study's workloads allocate everything up front, as the paper's
// applications do after their fast-forwarded initialization.
type AddressSpace struct {
	next    Addr
	regions []Region
}

// NewAddressSpace returns an allocator starting at a non-zero base so that
// the zero Addr never aliases a live region (it is reserved as "no
// address").
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: 1 << 20}
}

// Alloc reserves size bytes aligned to a cache line and returns the region.
func (s *AddressSpace) Alloc(name string, size uint64) Region {
	if size == 0 {
		panic("mem: zero-size allocation " + name)
	}
	base := Addr((uint64(s.next) + LineSize - 1) &^ (LineSize - 1))
	r := Region{Name: name, Base: base, Size: size}
	s.next = base + Addr(size)
	s.regions = append(s.regions, r)
	return r
}

// AllocArray reserves an n-element array of elemSize-byte elements.
func (s *AddressSpace) AllocArray(name string, n int, elemSize uint64) Region {
	return s.Alloc(name, uint64(n)*elemSize)
}

// Regions returns all allocated regions in allocation order.
func (s *AddressSpace) Regions() []Region { return s.regions }

// Find returns the region containing a, if any.
func (s *AddressSpace) Find(a Addr) (Region, bool) {
	for _, r := range s.regions {
		if r.Contains(a) {
			return r, true
		}
	}
	return Region{}, false
}
