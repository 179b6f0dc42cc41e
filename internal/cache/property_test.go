package cache

import (
	"fmt"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/sim"
)

// refCache is an oracle: a fully-associative-per-set model tracking the
// same geometry with straightforward maps, used to cross-check the
// packed implementation under random operation sequences.
type refCache struct {
	nsets uint64
	assoc int
	sets  []map[mem.Addr]int // line -> lastUse
	clock int
}

func newRefCache(size uint64, assoc int) *refCache {
	nsets := size / mem.LineSize / uint64(assoc)
	r := &refCache{nsets: nsets, assoc: assoc}
	for i := uint64(0); i < nsets; i++ {
		r.sets = append(r.sets, map[mem.Addr]int{})
	}
	return r
}

func (r *refCache) set(a mem.Addr) map[mem.Addr]int {
	return r.sets[(uint64(a)>>mem.LineShift)%r.nsets]
}

func (r *refCache) access(a mem.Addr) bool {
	la := a.Line()
	s := r.set(a)
	if _, ok := s[la]; ok {
		r.clock++
		s[la] = r.clock
		return true
	}
	return false
}

func (r *refCache) insert(a mem.Addr) {
	la := a.Line()
	s := r.set(a)
	if len(s) == r.assoc {
		// Evict LRU.
		var victim mem.Addr
		oldest := int(^uint(0) >> 1)
		for addr, use := range s {
			if use < oldest {
				oldest, victim = use, addr
			}
		}
		delete(s, victim)
	}
	r.clock++
	s[la] = r.clock
}

// TestAgainstReferenceModel drives both implementations with the same
// random trace and requires identical hit/miss behavior.
func TestAgainstReferenceModel(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "dut", Size: 2048, Assoc: 4})
		r := newRefCache(2048, 4)
		for _, op := range ops {
			a := mem.Addr(op) * 8 // 512 distinct lines over 64-line cache
			gotHit := c.Access(a, false) != nil
			wantHit := r.access(a)
			if gotHit != wantHit {
				return false
			}
			if !gotHit {
				c.Insert(a, Exclusive, 0)
				r.insert(a)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestStatsBalance: across any op sequence, fills == evictions + live
// lines, and hits + misses == accesses.
func TestStatsBalance(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "dut", Size: 1024, Assoc: 2})
		for _, op := range ops {
			a := mem.Addr(op) * 16
			write := op%3 == 0
			if c.Access(a, write) == nil {
				ln, _ := c.Insert(a, Exclusive, 0)
				if write {
					ln.Dirty = true
				}
			}
		}
		st := c.Stats()
		if st.Fills != st.Evictions+uint64(c.Occupancy()) {
			return false
		}
		hits := st.ReadHits + st.WriteHits
		return hits+st.Misses() == st.Reads+st.Writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// checkTags verifies the packed tags against the lines: a way's tag is
// nonzero exactly while its line is valid, and then it is a line
// address with bit 0 set that maps to the way's own set.
func checkTags(c *Cache) error {
	for i, ln := range c.lines {
		set, way := i/int(c.assoc), i%int(c.assoc)
		tag := c.meta[2*set*int(c.assoc)+way]
		if (tag != 0) != (ln.State != Invalid) {
			return fmt.Errorf("way %d: tag %#x, line %+v", i, tag, ln)
		}
		if a := mem.Addr(tag &^ 1); tag != 0 && (tag&1 == 0 || a != a.Line() || c.setBase(a) != uint64(set)*c.assoc) {
			return fmt.Errorf("way %d of set %d: tag %#x is not a line of that set", i, set, tag)
		}
	}
	return nil
}

// TestTagIndexConsistency drives random Insert, InsertPFS, Invalidate,
// Downgrade, Access and FlushAll sequences, including the callers'
// in-place state changes, and checks after every step that the tag
// index matches the lines and that Lookup agrees with a scan of them.
func TestTagIndexConsistency(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(Config{Name: "dut", Size: 2048, Assoc: 4})
		for step, op := range ops {
			a := mem.Addr(op>>3) * 24 // unaligned addresses, 171 distinct lines
			switch op & 7 {
			case 0, 1:
				if c.Lookup(a) == nil {
					ln, _ := c.Insert(a, State(1+op%3), sim.Time(step))
					ln.Dirty = op&8 != 0
				}
			case 2:
				if c.Lookup(a) == nil {
					c.InsertPFS(a, sim.Time(step))
				}
			case 3:
				c.Invalidate(a)
			case 4:
				if ln := c.Downgrade(a); ln != nil {
					ln.Dirty = false
				}
			case 5:
				if ln := c.Access(a, true); ln != nil {
					ln.State, ln.Dirty = Modified, true
				}
			case 6:
				c.Access(a, false)
			case 7:
				if op%16 == 7 {
					c.FlushAll()
				}
			}
			if err := checkTags(c); err != nil {
				t.Logf("step %d (op %#x): %v", step, op, err)
				return false
			}
			var scan *Line
			base := c.setBase(a)
			for i := base; i < base+c.assoc; i++ {
				if ln := &c.lines[i]; ln.State != Invalid && c.meta[base+i] == uint64(a.Line())|1 {
					scan = ln
				}
			}
			if c.Lookup(a) != scan {
				t.Logf("step %d: Lookup(%v) disagrees with a scan of the lines", step, a)
				return false
			}
		}
		return c.Occupancy() == len(c.Lines())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLineIs16Bytes pins the packed line layout: with the address and
// the LRU stamp beside the set's tags, four lines share a 64-byte host
// cache line and none straddles one.
func TestLineIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 16 {
		t.Fatalf("Line is %d bytes, want 16", n)
	}
}
