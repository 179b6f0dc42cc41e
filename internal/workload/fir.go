package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dma"
	"repro/internal/mem"
	"repro/internal/stream"
)

func init() {
	Register("fir", func(s Scale) core.Workload { return newFIR(s, false) })
	// The Figure 8 variant: output-only stores use "Prepare For Store".
	Register("fir-pfs", func(s Scale) core.Workload { return newFIR(s, true) })
}

// firTaps is the filter length ("The FIR filter has 16 taps and is
// parallelized across long strips of samples").
const firTaps = 16

// fir implements the 16-tap FIR filter. It performs a small computation
// per element and is bandwidth-bound: the defining Figure 5/6 workload.
type fir struct {
	pfs   bool
	n     int // input samples
	in    []float32
	out   []float32
	taps  [firTaps]float32
	inR   mem.Region
	outR  mem.Region
	cores int
}

func newFIR(s Scale, pfs bool) *fir {
	n := 1 << 20 // default: 1M samples, 4 MB in + 4 MB out
	switch s {
	case ScaleSmall:
		n = 1 << 15
	case ScalePaper:
		n = 1 << 21 // the paper's 2^21 32-bit samples
	}
	return &fir{pfs: pfs, n: n}
}

func (f *fir) Name() string {
	if f.pfs {
		return "fir-pfs"
	}
	return "fir"
}

func (f *fir) Setup(sys *core.System) {
	f.cores = sys.Cores()
	f.in = make([]float32, f.n)
	f.out = make([]float32, f.n-firTaps+1)
	r := newRNG(0xF1F1F1)
	for i := range f.in {
		f.in[i] = float32(r.float01()*2 - 1)
	}
	for j := range f.taps {
		f.taps[j] = float32(j+1) / (firTaps * 4)
	}
	f.inR = sys.AddressSpace().AllocArray("fir.in", f.n, 4)
	f.outR = sys.AddressSpace().AllocArray("fir.out", len(f.out), 4)
}

// firWorkPerElem is the issue cost of the 16 multiply-accumulates: two
// FPU slots per 3-wide instruction sustain 2 MACs per cycle.
const firWorkPerElem = 8

func (f *fir) compute(lo, hi int) {
	for i := lo; i < hi; i++ {
		var acc float32
		for j := 0; j < firTaps; j++ {
			acc += f.taps[j] * f.in[i+j]
		}
		f.out[i] = acc
	}
}

func (f *fir) Run(p *cpu.Proc) {
	lo, hi := span(len(f.out), f.cores, p.ID())
	if lo >= hi {
		return
	}
	if sm, ok := streamMem(p); ok {
		f.runSTR(p, sm, lo, hi)
	} else {
		f.runCC(p, lo, hi)
	}
}

// runCC streams through the strip in 2048-element blocks that fit the
// L1 alongside the output.
func (f *fir) runCC(p *cpu.Proc, lo, hi int) {
	const block = 2048
	for b := lo; b < hi; b += block {
		e := min(b+block, hi)
		n := uint64(e - b)
		p.LoadN(f.inR.Index(b, 4), 4, n+firTaps-1)
		f.compute(b, e)
		p.Work(n * firWorkPerElem)
		if f.pfs {
			p.StorePFSN(f.outR.Index(b, 4), 4, n)
		} else {
			p.StoreN(f.outR.Index(b, 4), 4, n)
		}
	}
}

// runSTR uses the paper's 128-element DMA transfers, double-buffered on
// both the input and output streams. The transfer-management overhead
// (the paper measured 14% more instructions than the caching version)
// comes from the per-element buffer bookkeeping plus per-transfer setup.
func (f *fir) runSTR(p *cpu.Proc, sm *stream.Mem, lo, hi int) {
	const block = 128 // elements per DMA transfer, as in the paper
	ls := sm.LocalStore()
	ls.Reset()
	ls.Alloc("in0", (block+firTaps)*4)
	ls.Alloc("in1", (block+firTaps)*4)
	ls.Alloc("out0", block*4)
	ls.Alloc("out1", block*4)

	type blk struct{ b, e int }
	var blocks []blk
	for b := lo; b < hi; b += block {
		blocks = append(blocks, blk{b, min(b+block, hi)})
	}
	getTag := sm.Get(p, f.inR.Index(blocks[0].b, 4), uint64(blocks[0].e-blocks[0].b+firTaps-1)*4)
	var prevPut dma.Tag
	havePrev := false
	for i, blkI := range blocks {
		cur := getTag
		if i+1 < len(blocks) {
			nb := blocks[i+1]
			getTag = sm.Get(p, f.inR.Index(nb.b, 4), uint64(nb.e-nb.b+firTaps-1)*4)
		}
		sm.Wait(p, cur)
		n := uint64(blkI.e - blkI.b)
		sm.LSLoadN(p, n)
		f.compute(blkI.b, blkI.e)
		p.Work(n * (firWorkPerElem + 1)) // +1: output-buffer bookkeeping
		sm.LSStoreN(p, n)
		if havePrev {
			sm.Wait(p, prevPut) // reclaim the other output buffer
		}
		prevPut = sm.Put(p, f.outR.Index(blkI.b, 4), n*4)
		havePrev = true
	}
	sm.Wait(p, prevPut)
}

func (f *fir) Verify() error {
	return verifyMemo(inputSum("fir", f.in, f.taps[:]), outputSum(f.out), func() error {
		for i := range f.out {
			var want float32
			for j := 0; j < firTaps; j++ {
				want += f.taps[j] * f.in[i+j]
			}
			if f.out[i] != want {
				return fmt.Errorf("fir: out[%d] = %v, want %v", i, f.out[i], want)
			}
		}
		return nil
	})
}
