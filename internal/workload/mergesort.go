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
	Register("mergesort", func(s Scale) core.Workload { return newMergeSort(s, false) })
	Register("mergesort-pfs", func(s Scale) core.Workload { return newMergeSort(s, true) })
}

// mergeChunk is the initial quicksort granule ("The processors first
// sort chunks of 4096 keys in parallel using quicksort").
const mergeChunk = 4096

// mergeSort sorts 32-bit keys: parallel quicksort of 4096-key chunks,
// then pairwise merge levels whose parallelism halves every level
// ("MergeSort gradually reduces in parallelism as it progresses"). It
// alternates output between two buffer arrays, as the paper describes.
type mergeSort struct {
	pfs   bool
	n     int
	keys  []uint32 // original input (kept for verification)
	a, b  []uint32 // ping-pong buffers
	aR    mem.Region
	bR    mem.Region
	final []uint32 // which buffer holds the result
	cores int

	chunkQ  *syncprim.TaskQueue
	levelQ  *syncprim.TaskQueue
	barrier *syncprim.Barrier
}

func newMergeSort(s Scale, pfs bool) *mergeSort {
	n := 1 << 18
	switch s {
	case ScaleSmall:
		n = 1 << 14
	case ScalePaper:
		n = 1 << 19 // the paper's 2^19 32-bit keys (2 MB)
	}
	return &mergeSort{pfs: pfs, n: n}
}

func (m *mergeSort) Name() string {
	if m.pfs {
		return "mergesort-pfs"
	}
	return "mergesort"
}

func (m *mergeSort) Setup(sys *core.System) {
	m.cores = sys.Cores()
	m.keys = make([]uint32, m.n)
	r := newRNG(0x5027ED)
	for i := range m.keys {
		m.keys[i] = uint32(r.next())
	}
	m.a = make([]uint32, m.n)
	copy(m.a, m.keys)
	m.b = make([]uint32, m.n)
	m.aR = sys.AddressSpace().AllocArray("ms.a", m.n, 4)
	m.bR = sys.AddressSpace().AllocArray("ms.b", m.n, 4)
	m.chunkQ = syncprim.NewTaskQueue("ms.chunks", m.n/mergeChunk)
	m.levelQ = syncprim.NewTaskQueue("ms.level", 0)
	m.barrier = syncprim.NewBarrier("ms.bar", m.cores)
}

// quickInstr approximates the quicksort instruction count for n keys:
// about 4 issue slots per compare/swap over n·log2(n) steps.
func quickInstr(n int) uint64 {
	log := 0
	for v := n; v > 1; v >>= 1 {
		log++
	}
	return uint64(4 * n * log)
}

// mergeWorkPerElem is the merge inner loop cost: compare, select, copy,
// advance, loop bound check.
const mergeWorkPerElem = 6

func (m *mergeSort) Run(p *cpu.Proc) {
	sm, isSTR := streamMem(p)

	// Phase 1: quicksort 4096-key chunks off the task queue.
	for {
		idx := m.chunkQ.Next(p)
		if idx < 0 {
			break
		}
		lo, hi := idx*mergeChunk, (idx+1)*mergeChunk
		seg := m.a[lo:hi]
		slices.Sort(seg)
		if isSTR {
			// The 16 KB chunk is DMA'd in, sorted in the local store,
			// and DMA'd back. It fills most of the store, so this phase
			// is single-buffered, as on Cell-style machines.
			tag := sm.Get(p, m.aR.Index(lo, 4), mergeChunk*4)
			sm.Wait(p, tag)
			p.Work(quickInstr(mergeChunk))
			sm.LSLoadN(p, mergeChunk)
			sm.LSStoreN(p, mergeChunk)
			out := sm.Put(p, m.aR.Index(lo, 4), mergeChunk*4)
			sm.Wait(p, out)
		} else {
			p.LoadN(m.aR.Index(lo, 4), 4, mergeChunk)
			p.Work(quickInstr(mergeChunk))
			p.StoreN(m.aR.Index(lo, 4), 4, mergeChunk)
		}
	}
	m.barrier.Wait(p)

	// Phase 2: merge levels. Core 0 refills the task queue per level;
	// all cores synchronize between levels.
	src, dst := m.a, m.b
	srcR, dstR := m.aR, m.bR
	for run := mergeChunk; run < m.n; run *= 2 {
		if p.ID() == 0 {
			m.levelQ.Reset(m.n / (2 * run))
		}
		m.barrier.Wait(p)
		for {
			idx := m.levelQ.Next(p)
			if idx < 0 {
				break
			}
			lo := idx * 2 * run
			if isSTR {
				m.mergeSTR(p, sm, src, dst, srcR, dstR, lo, run)
			} else {
				m.mergeCC(p, src, dst, srcR, dstR, lo, run)
			}
		}
		m.barrier.Wait(p)
		src, dst = dst, src
		srcR, dstR = dstR, srcR
	}
	m.final = src
}

// mergeCC merges src[lo:lo+run] and src[lo+run:lo+2run] into dst,
// streaming through the caches in 2048-element blocks.
func (m *mergeSort) mergeCC(p *cpu.Proc, src, dst []uint32, srcR, dstR mem.Region, lo, run int) {
	const block = 2048
	ai, bi := lo, lo+run
	aEnd, bEnd := lo+run, lo+2*run
	aLoaded, bLoaded := ai, bi
	for out := lo; out < lo+2*run; out += block {
		outEnd := min(out+block, lo+2*run)
		n := outEnd - out
		// Worst case this block consumes n from either input; fetch
		// what is not yet resident.
		needA := min(ai+n, aEnd)
		if needA > aLoaded {
			p.LoadN(srcR.Index(aLoaded, 4), 4, uint64(needA-aLoaded))
			aLoaded = needA
		}
		needB := min(bi+n, bEnd)
		if needB > bLoaded {
			p.LoadN(srcR.Index(bLoaded, 4), 4, uint64(needB-bLoaded))
			bLoaded = needB
		}
		for o := out; o < outEnd; o++ {
			if ai < aEnd && (bi >= bEnd || src[ai] <= src[bi]) {
				dst[o] = src[ai]
				ai++
			} else {
				dst[o] = src[bi]
				bi++
			}
		}
		p.Work(uint64(n) * mergeWorkPerElem)
		if m.pfs {
			p.StorePFSN(dstR.Index(out, 4), 4, uint64(n))
		} else {
			p.StoreN(dstR.Index(out, 4), 4, uint64(n))
		}
	}
}

// mergeSTR merges with double-buffered DMA input streams and a drained
// output buffer. The inner loop pays extra compares to check for buffer
// exhaustion ("the inner loop executes extra comparisons to check if an
// output buffer is full and needs to be drained to main memory").
func (m *mergeSort) mergeSTR(p *cpu.Proc, sm *stream.Mem, src, dst []uint32, srcR, dstR mem.Region, lo, run int) {
	const block = 1024
	sm.LocalStore().Reset()
	sm.LocalStore().Alloc("mergeBufs", 6*block*4) // 2 per stream: A, B, out
	inA := newStrIn(p, sm, srcR.Index(lo, 4), 4, run, block)
	inB := newStrIn(p, sm, srcR.Index(lo+run, 4), 4, run, block)
	out := newStrOut(p, sm, dstR.Index(lo, 4), 4, block)
	ai, bi := lo, lo+run
	aEnd, bEnd := lo+run, lo+2*run
	for o := lo; o < lo+2*run; o += block {
		oEnd := min(o+block, lo+2*run)
		n := oEnd - o
		inA.ensure(min(n, aEnd-ai))
		inB.ensure(min(n, bEnd-bi))
		a0, b0 := ai, bi
		for j := o; j < oEnd; j++ {
			if ai < aEnd && (bi >= bEnd || src[ai] <= src[bi]) {
				dst[j] = src[ai]
				ai++
			} else {
				dst[j] = src[bi]
				bi++
			}
		}
		inA.consume(ai - a0)
		inB.consume(bi - b0)
		p.Work(uint64(n) * (mergeWorkPerElem + 2)) // +2: buffer checks
		out.produce(n)
	}
	out.flush()
}

func (m *mergeSort) Verify() error {
	if m.final == nil {
		return fmt.Errorf("mergesort: no result recorded")
	}
	return verifyMemo(inputSum("mergesort", m.keys), outputSum(m.final), func() error {
		want := make([]uint32, m.n)
		copy(want, m.keys)
		slices.Sort(want)
		for i := range want {
			if m.final[i] != want[i] {
				return fmt.Errorf("mergesort: result[%d] = %d, want %d", i, m.final[i], want[i])
			}
		}
		return nil
	})
}
