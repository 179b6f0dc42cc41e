package workload

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// verifiedOutput runs the named workload at small scale on STR, which
// verifies it (and so fills the memo), and returns the workload with a
// switch that flips its output's element i (true) or restores it.
func verifiedOutput(t *testing.T, name string, i int) (core.Workload, func(flip bool)) {
	t.Helper()
	f, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	w := f(ScaleSmall)
	if _, err := core.New(core.DefaultConfig(core.STR, 2)).Run(w); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var flip func(bool)
	switch w := w.(type) {
	case *fir:
		orig := w.out[i]
		flip = func(on bool) {
			if w.out[i] = orig; on {
				w.out[i] = orig + 1
			}
		}
	case *mergeSort:
		orig := w.final[i]
		flip = func(on bool) {
			if w.final[i] = orig; on {
				w.final[i] = orig ^ 1
			}
		}
	case *bitonic:
		orig := w.data[i]
		flip = func(on bool) {
			if w.data[i] = orig; on {
				w.data[i] = orig ^ 1
			}
		}
	default:
		t.Fatalf("%s: no output accessor", name)
	}
	return w, flip
}

// TestVerifyMemoCatchesOneBadElement: with the memo warm from a good
// run, flipping one output element must still fail Verify, and the
// error must name that element's index, as the full reference
// comparison always did. Restoring it verifies again.
func TestVerifyMemoCatchesOneBadElement(t *testing.T) {
	for _, name := range []string{"fir", "mergesort", "bitonicsort"} {
		const bad = 777
		w, flip := verifiedOutput(t, name, bad)
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: good output failed the memoized Verify: %v", name, err)
		}
		flip(true)
		err := w.Verify()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("[%d]", bad)) {
			t.Fatalf("%s: Verify with element %d flipped = %v, want an error naming it", name, bad, err)
		}
		flip(false)
		if err := w.Verify(); err != nil {
			t.Fatalf("%s: restored output failed Verify: %v", name, err)
		}
	}
}

// TestVerifyMemoConcurrent verifies two instances of each workload from
// two goroutines at once, one of them repeatedly corrupted and
// restored, so the memo is read and written concurrently (run it under
// -race).
func TestVerifyMemoConcurrent(t *testing.T) {
	for _, name := range []string{"fir", "mergesort", "bitonicsort"} {
		good, _ := verifiedOutput(t, name, 0)
		other, flip := verifiedOutput(t, name, 5)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := good.Verify(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				flip(i%2 == 0)
				if err := other.Verify(); (err != nil) != (i%2 == 0) {
					t.Errorf("%s round %d: Verify = %v", name, i, err)
				}
			}
		}()
		wg.Wait()
	}
}
