package coher

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

func TestRegionTableCounts(t *testing.T) {
	var rt regionTable
	if got := rt.get(42); got != 0 {
		t.Fatalf("empty table get = %d", got)
	}
	if old, now := rt.add(1024, 1); old != 0 || now != 1 {
		t.Fatalf("add = (%d,%d), want (0,1)", old, now)
	}
	if old, now := rt.add(1024, 1); old != 1 || now != 2 {
		t.Fatalf("second add = (%d,%d), want (1,2)", old, now)
	}
	// Far above: table grows upward.
	rt.add(5000, 3)
	if got := rt.get(5000); got != 3 {
		t.Fatalf("get(5000) = %d, want 3", got)
	}
	// Below base: table grows downward.
	rt.add(12, 7)
	if got := rt.get(12); got != 7 {
		t.Fatalf("get(12) = %d, want 7", got)
	}
	if got := rt.get(1024); got != 2 {
		t.Fatalf("get(1024) after growth = %d, want 2", got)
	}
	// Counts clamp at zero, as the old map semantics deleted entries.
	if _, now := rt.add(1024, -5); now != 0 {
		t.Fatalf("clamped count = %d, want 0", now)
	}
}

func TestRegionShift(t *testing.T) {
	cases := []struct {
		n    uint64
		want uint
	}{{1, 0}, {2, 1}, {1024, 10}, {1000, 10}, {1025, 11}}
	for _, c := range cases {
		if got := regionShift(c.n); got != c.want {
			t.Errorf("regionShift(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestLineTableCounts(t *testing.T) {
	lt := newLineTable(8)
	a := mem.Addr(1 << 20)
	b := a + mem.LineSize
	lt.addOwner(a)
	lt.addSharer(b)
	lt.addSharer(b)
	got := map[mem.Addr][2]uint16{}
	lt.each(func(addr mem.Addr, owners, sharers uint16) {
		got[addr] = [2]uint16{owners, sharers}
	})
	if len(got) != 2 {
		t.Fatalf("%d lines recorded, want 2", len(got))
	}
	if got[a] != [2]uint16{1, 0} {
		t.Errorf("line a = %v, want {1 0}", got[a])
	}
	if got[b] != [2]uint16{0, 2} {
		t.Errorf("line b = %v, want {0 2}", got[b])
	}
}

// BenchmarkRegionFilter tracks the RegionScout hot path: the per-fill
// region bookkeeping plus the shared-region query every global broadcast
// consults (formerly one map probe per core).
func BenchmarkRegionFilter(b *testing.B) {
	d := &Domain{
		regShift: regionShift(1024),
		regions:  make([]regionTable, 16),
	}
	const span = 1 << 22 // 4 MB working set
	for i := 0; i < b.N; i++ {
		a := mem.Addr(1<<20 + (i*mem.LineSize)%span)
		core := i & 15
		d.regionTrack(core, a, 1)
		if d.regionShared(core, a) {
			// Typical outcome once regions warm up; keep the branch live.
			_ = a
		}
		d.regionTrack(core, a, -1)
	}
}

// TestHolderTableMatchesMap drives the sharer index with random holder
// additions and removals against a map. The lines all hash to the
// table's last two slots, so their probe runs wrap past its end and
// backward-shift deletion moves entries back across it.
func TestHolderTableMatchesMap(t *testing.T) {
	ht := newHolderTable(8)
	size := uint32(len(ht.keys))
	var lines []mem.Addr
	for idx := uint64(1 << 15); len(lines) < 7; idx++ {
		if a := mem.Addr(idx << mem.LineShift); ht.home(holderKey(a)) >= size-2 {
			lines = append(lines, a)
		}
	}
	ref := map[mem.Addr]uint64{}
	rng := rand.New(rand.NewSource(1))
	wrapped, deleted := 0, 0
	for step := 0; step < 20000; step++ {
		a, c := lines[rng.Intn(len(lines))], rng.Intn(3)
		if rng.Intn(2) == 0 {
			ht.add(a, c)
			ref[a] |= 1 << c
		} else {
			ht.remove(a, c)
			if ref[a] == 1<<c {
				deleted++
			}
			if ref[a] &^= 1 << c; ref[a] == 0 {
				delete(ref, a)
			}
		}
		for _, l := range lines {
			if got := ht.get(l); got != ref[l] {
				t.Fatalf("step %d: holders of %v = %b, want %b", step, l, got, ref[l])
			}
		}
		n := 0
		ht.each(func(a mem.Addr, held uint64) {
			if n++; ref[a] != held {
				t.Fatalf("step %d: entry %v = %b, want %b", step, a, held, ref[a])
			}
		})
		if n != len(ref) {
			t.Fatalf("step %d: %d entries, want %d", step, n, len(ref))
		}
		for i, k := range ht.keys {
			if k != 0 && ht.home(k) > uint32(i) {
				wrapped++
				break
			}
		}
	}
	if wrapped == 0 || deleted == 0 {
		t.Fatalf("%d steps had an entry wrapped past the end, %d removals deleted an entry; want both", wrapped, deleted)
	}
}
