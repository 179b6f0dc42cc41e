package cache

import (
	"testing"

	"repro/internal/mem"
)

// The per-access tag lookup is the hottest path of the simulator; these
// benchmarks track it across the map→array/mask table changes. Run them
// with go test -bench 'AccessHit|LookupMiss|InsertEvict' and compare
// same-run pairs: no recorded baseline gates them.

func benchCache() *Cache {
	return New(Config{Name: "l1d", Size: 32 * 1024, Assoc: 2})
}

func BenchmarkAccessHit(b *testing.B) {
	c := benchCache()
	const lines = 256 // resident working set: 256 lines in 512 sets
	for i := 0; i < lines; i++ {
		c.Insert(mem.Addr(1<<20+i*mem.LineSize), Exclusive, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(mem.Addr(1<<20+(i%lines)*mem.LineSize), i&1 == 0)
	}
}

func BenchmarkLookupMiss(b *testing.B) {
	c := benchCache()
	for i := 0; i < b.N; i++ {
		if c.Lookup(mem.Addr(1<<20+i*mem.LineSize)) != nil {
			b.Fatal("unexpected hit")
		}
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := benchCache()
	for i := 0; i < b.N; i++ {
		// Walk far past the capacity so every insert evicts.
		c.Insert(mem.Addr(1<<20+i*mem.LineSize), Modified, 0)
	}
}
