package workload

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/stream"
	"repro/internal/syncprim"
)

func init() {
	Register("bitonicsort", func(s Scale) core.Workload { return newBitonic(s) })
}

// bitonic sorts 32-bit keys with a bitonic network, operating on the
// list in situ ("BitonicSort operates on the list in situ ... retains
// full parallelism for its duration"). The defining behavior (Section
// 5.1): compare-exchanges often do not swap, so the cache-based system
// writes back only the lines it actually dirtied, while the streaming
// system DMA-writes every block back whether modified or not — giving
// STR more off-chip traffic and the CC version the edge at high core
// counts.
type bitonic struct {
	n       int
	keys    []uint32
	data    []uint32
	dataR   mem.Region
	cores   int
	barrier *syncprim.Barrier
}

func newBitonic(s Scale) *bitonic {
	n := 1 << 17
	switch s {
	case ScaleSmall:
		n = 1 << 13
	case ScalePaper:
		n = 1 << 19 // the paper's 2^19 keys (2 MB)
	}
	return &bitonic{n: n}
}

func (bt *bitonic) Name() string { return "bitonicsort" }

func (bt *bitonic) Setup(sys *core.System) {
	bt.cores = sys.Cores()
	bt.keys = make([]uint32, bt.n)
	r := newRNG(0xB170)
	for i := range bt.keys {
		// Moderately in-order input: a rising ramp with local noise, so
		// that long-distance compare-exchanges rarely swap while local
		// ones do ("it is often the case that sublists are moderately
		// in-order and elements don't need to be swapped").
		bt.keys[i] = uint32(i)<<6 + uint32(r.next()&0x3FFF)
	}
	bt.data = make([]uint32, bt.n)
	copy(bt.data, bt.keys)
	bt.dataR = sys.AddressSpace().AllocArray("bitonic.data", bt.n, 4)
	bt.barrier = syncprim.NewBarrier("bitonic.bar", bt.cores)
}

// bitonicWorkPerPair is the compare-exchange issue cost.
const bitonicWorkPerPair = 4

func (bt *bitonic) Run(p *cpu.Proc) {
	sm, isSTR := streamMem(p)
	for k := 2; k <= bt.n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			// The N/2 pair indices are split evenly across cores.
			lo, hi := span(bt.n/2, bt.cores, p.ID())
			if isSTR {
				bt.stageSTR(p, sm, k, j, lo, hi)
			} else {
				bt.stageCC(p, k, j, lo, hi)
			}
			bt.barrier.Wait(p)
		}
	}
}

// pairIndex maps pair p to its lower element index for distance j.
func pairIndex(pi, j int) int { return (pi/j)*(2*j) + pi%j }

// exchange performs the compare-exchange for element i and partner i+j
// within the k-block ordering, reporting whether it swapped.
func (bt *bitonic) exchange(i, j, k int) bool {
	a, b := bt.data[i], bt.data[i+j]
	up := i&k == 0
	if (a > b) == up {
		bt.data[i], bt.data[i+j] = b, a
		return true
	}
	return false
}

// stageCC processes pairs [lo, hi) for stage (k, j) through the caches.
// It loads both sides and stores back only the cache lines that an
// actual swap dirtied.
func (bt *bitonic) stageCC(p *cpu.Proc, k, j, lo, hi int) {
	const lineElems = mem.LineSize / 4
	for pi := lo; pi < hi; {
		// Process one contiguous run of pair indices within a segment.
		i0 := pairIndex(pi, j)
		segLeft := j - pi%j
		n := min(segLeft, hi-pi)
		// Fetch both sides (for j < lineElems the ranges overlap within
		// lines; the second LoadN then hits in the L1).
		p.LoadN(bt.dataR.Index(i0, 4), 4, uint64(n))
		p.LoadN(bt.dataR.Index(i0+j, 4), 4, uint64(n))
		var dirtyLo, dirtyHi uint64 // swapped-line bitmaps via counters
		var lineDirtyA, lineDirtyB bool
		for t := 0; t < n; t++ {
			i := i0 + t
			sw := bt.exchange(i, j, k)
			if sw {
				lineDirtyA, lineDirtyB = true, true
			}
			if (i+1)%lineElems == 0 || t == n-1 {
				if lineDirtyA {
					p.Store(bt.dataR.Index(i, 4)) // dirty the lower line
					dirtyLo++
					lineDirtyA = false
				}
				if lineDirtyB {
					p.Store(bt.dataR.Index(i+j, 4)) // dirty the upper line
					dirtyHi++
					lineDirtyB = false
				}
			}
		}
		p.Work(uint64(n) * bitonicWorkPerPair)
		pi += n
	}
}

// stageSTR processes pairs [lo, hi) with DMA: both sides are fetched and
// written back in full blocks, modified or not ("the streaming memory
// system writes the unmodified data back to main memory anyway").
// Segments are double-buffered: the next pair of gets is in flight while
// the current segment computes.
func (bt *bitonic) stageSTR(p *cpu.Proc, sm *stream.Mem, k, j, lo, hi int) {
	const maxBlock = 1024 // elements per DMA buffer per side
	if j <= maxBlock {
		bt.stageSTRContig(p, sm, k, j, lo, hi)
		return
	}
	type seg struct{ i0, n int }
	var segs []seg
	for pi := lo; pi < hi; {
		i0 := pairIndex(pi, j)
		n := min(min(j-pi%j, hi-pi), maxBlock)
		segs = append(segs, seg{i0, n})
		pi += n
	}
	getSeg := func(s seg) [2]dmaTag {
		return [2]dmaTag{
			sm.Get(p, bt.dataR.Index(s.i0, 4), uint64(s.n)*4),
			sm.Get(p, bt.dataR.Index(s.i0+j, 4), uint64(s.n)*4),
		}
	}
	gets := getSeg(segs[0])
	var puts []dmaTag
	for si, s := range segs {
		cur := gets
		if si+1 < len(segs) {
			gets = getSeg(segs[si+1])
		}
		sm.Wait(p, cur[0])
		sm.Wait(p, cur[1])
		for t := 0; t < s.n; t++ {
			bt.exchange(s.i0+t, j, k)
		}
		sm.LSLoadN(p, uint64(2*s.n))
		p.Work(uint64(s.n) * bitonicWorkPerPair)
		sm.LSStoreN(p, uint64(2*s.n))
		for len(puts) > 2 {
			sm.Wait(p, puts[0])
			puts = puts[1:]
		}
		puts = append(puts,
			sm.Put(p, bt.dataR.Index(s.i0, 4), uint64(s.n)*4),
			sm.Put(p, bt.dataR.Index(s.i0+j, 4), uint64(s.n)*4))
	}
	for _, t := range puts {
		sm.Wait(p, t)
	}
}

// stageSTRContig handles small exchange distances: whole segments are
// contiguous in memory, so the local store holds 2*maxBlock-element
// chunks covering many segments, fetched and written back as single
// sequential transfers (the blocking a streaming programmer would use).
func (bt *bitonic) stageSTRContig(p *cpu.Proc, sm *stream.Mem, k, j, lo, hi int) {
	const chunkPairs = 1024 // pairs per chunk = 2048 elements = 8 KB
	type chunk struct{ p0, n int }
	var chunks []chunk
	for pi := lo; pi < hi; {
		n := min(chunkPairs, hi-pi)
		chunks = append(chunks, chunk{pi, n})
		pi += n
	}
	get := func(c chunk) dmaTag {
		i0 := pairIndex(c.p0, j)
		return sm.Get(p, bt.dataR.Index(i0, 4), uint64(2*c.n)*4)
	}
	gets := get(chunks[0])
	var puts []dmaTag
	for ci, c := range chunks {
		cur := gets
		if ci+1 < len(chunks) {
			gets = get(chunks[ci+1])
		}
		sm.Wait(p, cur)
		for t := 0; t < c.n; t++ {
			bt.exchange(pairIndex(c.p0+t, j), j, k)
		}
		sm.LSLoadN(p, uint64(2*c.n))
		p.Work(uint64(c.n) * bitonicWorkPerPair)
		sm.LSStoreN(p, uint64(2*c.n))
		for len(puts) > 1 {
			sm.Wait(p, puts[0])
			puts = puts[1:]
		}
		i0 := pairIndex(c.p0, j)
		puts = append(puts, sm.Put(p, bt.dataR.Index(i0, 4), uint64(2*c.n)*4))
	}
	for _, t := range puts {
		sm.Wait(p, t)
	}
}

func (bt *bitonic) Verify() error {
	return verifyMemo(inputSum("bitonicsort", bt.keys), outputSum(bt.data), func() error {
		want := make([]uint32, bt.n)
		copy(want, bt.keys)
		slices.Sort(want)
		for i := range want {
			if bt.data[i] != want[i] {
				return fmt.Errorf("bitonicsort: data[%d] = %d, want %d", i, bt.data[i], want[i])
			}
		}
		return nil
	})
}
