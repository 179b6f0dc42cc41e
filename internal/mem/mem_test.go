package mem

import (
	"testing"
	"testing/quick"
)

func TestLineMath(t *testing.T) {
	if got := Addr(0x1234).Line(); got != 0x1220 {
		t.Errorf("Line(0x1234) = %v, want 0x1220", got)
	}
	if got := Addr(0x1234).LineOffset(); got != 0x14 {
		t.Errorf("LineOffset(0x1234) = %#x, want 0x14", got)
	}
	if got := Addr(0x1220).Line(); got != 0x1220 {
		t.Errorf("Line of aligned addr changed: %v", got)
	}
}

func TestLinesCovered(t *testing.T) {
	cases := []struct {
		a    Addr
		n    uint64
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 32, 1},
		{0, 33, 2},
		{31, 2, 2},
		{32, 32, 1},
		{16, 32, 2},
		{0, 4096, 128},
	}
	for _, c := range cases {
		if got := LinesCovered(c.a, c.n); got != c.want {
			t.Errorf("LinesCovered(%v, %d) = %d, want %d", c.a, c.n, got, c.want)
		}
	}
}

func TestLinesCoveredProperty(t *testing.T) {
	// The number of lines is always between ceil(n/LineSize) and that +1.
	f := func(a uint32, n uint16) bool {
		if n == 0 {
			return LinesCovered(Addr(a), 0) == 0
		}
		got := LinesCovered(Addr(a), uint64(n))
		lo := (uint64(n) + LineSize - 1) / LineSize
		return got >= lo && got <= lo+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddressSpaceNonOverlapping(t *testing.T) {
	s := NewAddressSpace()
	a := s.Alloc("a", 100)
	b := s.Alloc("b", 100)
	c := s.AllocArray("c", 10, 8)
	regions := []Region{a, b, c}
	for i, r := range regions {
		if r.Base.LineOffset() != 0 {
			t.Errorf("region %d not line-aligned: %v", i, r.Base)
		}
		for j, q := range regions {
			if i == j {
				continue
			}
			if r.Contains(q.Base) || q.Contains(r.Base) {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
	}
	if c.Size != 80 {
		t.Errorf("AllocArray size = %d, want 80", c.Size)
	}
}

func TestRegionIndexAndFind(t *testing.T) {
	s := NewAddressSpace()
	r := s.AllocArray("arr", 100, 4)
	if got := r.Index(3, 4); got != r.Base+12 {
		t.Errorf("Index(3,4) = %v, want %v", got, r.Base+12)
	}
	found, ok := s.Find(r.Base + 50)
	if !ok || found.Name != "arr" {
		t.Errorf("Find failed: %v %v", found, ok)
	}
	if _, ok := s.Find(0); ok {
		t.Error("Find(0) should fail; zero address is reserved")
	}
}

func TestRegionAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := NewAddressSpace()
	r := s.Alloc("r", 8)
	r.At(8)
}

// TestDivisorMatchesDivision: the shift-and-mask path for powers of two
// and the division fallback both agree with / and %.
func TestDivisorMatchesDivision(t *testing.T) {
	f := func(x uint64, d uint16) bool {
		for _, dv := range []uint64{uint64(d) + 1, 1 << (d % 64)} {
			v := NewDivisor(dv)
			if v.Div(x) != x/dv || v.Mod(x) != x%dv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
