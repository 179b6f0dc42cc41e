// Package workload implements the study's eleven applications (Table 3)
// for both memory models, parallelized exactly as Section 4.2 describes.
// Every application computes real results over deterministic synthetic
// datasets and verifies them against an independent reference
// implementation; the timing model sees the same blocking, access
// patterns and instruction intensities the paper's versions had.
//
// Each application registers one or more variants:
//
//	fir, mergesort, bitonicsort, art, art-orig, jpeg-encode,
//	jpeg-decode, mpeg2, mpeg2-orig, h264, raytracer, depth, fem
//
// The "-orig" variants are the pre-stream-programming versions of
// Section 6 (Figures 9 and 10).
package workload

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stream"
)

// Scale selects dataset sizes: Small for unit tests, Default for benches
// (same shape as the paper at lower cost), Paper for paper-scale inputs.
type Scale int

// Dataset scales.
const (
	ScaleSmall Scale = iota
	ScaleDefault
	ScalePaper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleDefault:
		return "default"
	case ScalePaper:
		return "paper"
	}
	return "unknown"
}

// ParseScale converts a scale name ("small", "default" or "paper", in
// any case) to a Scale.
func ParseScale(s string) (Scale, error) {
	for sc := ScaleSmall; sc <= ScalePaper; sc++ {
		if strings.EqualFold(s, sc.String()) {
			return sc, nil
		}
	}
	return ScaleSmall, fmt.Errorf("unknown scale %q (want small, default or paper)", s)
}

// Factory builds a fresh workload instance at the given scale.
type Factory func(scale Scale) core.Workload

var registry = map[string]Factory{}
var names []string

// Register adds a workload under name; it panics on duplicates.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate registration " + name)
	}
	registry[name] = f
	names = append(names, name)
	sort.Strings(names)
}

// Get returns the factory for name.
func Get(name string) (Factory, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q (have %v)", name, names)
	}
	return f, nil
}

// Names lists the registered workloads.
func Names() []string { return append([]string(nil), names...) }

// streamMem returns the streaming first level when p runs on the STR
// model.
func streamMem(p *cpu.Proc) (*stream.Mem, bool) {
	sm, ok := p.Mem().(*stream.Mem)
	return sm, ok
}

// span returns the half-open range [lo, hi) of item i of n split in
// parts contiguous pieces.
func span(n, parts, i int) (lo, hi int) {
	return n * i / parts, n * (i + 1) / parts
}

// rng is a small deterministic PRNG (xorshift64*), so datasets are
// reproducible without pulling in math/rand state semantics.
type rng uint64

func newRNG(seed uint64) *rng {
	r := rng(seed*2685821657736338717 + 1)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 2685821657736338717
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// byteAt returns a deterministic pseudo-random byte.
func (r *rng) byte() byte { return byte(r.next() >> 32) }

// float01 returns a float64 in [0, 1).
func (r *rng) float01() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}
