package memsys_test

import (
	"fmt"
	"testing"

	memsys "repro"
)

func TestWorkloadsRegistered(t *testing.T) {
	names := memsys.Workloads()
	want := []string{
		"art", "art-orig", "bitonicsort", "depth", "fem", "fir",
		"fir-pfs", "h264", "jpeg-decode", "jpeg-encode", "mergesort",
		"mergesort-pfs", "mpeg2", "mpeg2-orig", "mpeg2-pfs", "raytracer",
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("workload %q not registered (have %v)", w, names)
		}
	}
}

func TestRunQuickstart(t *testing.T) {
	rep, err := memsys.Run(memsys.DefaultConfig(memsys.CC, 4), "fir", memsys.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Wall == 0 || rep.Instructions == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := memsys.Run(memsys.DefaultConfig(memsys.CC, 1), "nope", memsys.ScaleSmall); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestBothModelsAllWorkloadsSmall(t *testing.T) {
	// Every registered workload must verify on both models at 2 cores.
	for _, name := range memsys.Workloads() {
		for _, model := range []memsys.Model{memsys.CC, memsys.STR} {
			name, model := name, model
			t.Run(name+"/"+model.String(), func(t *testing.T) {
				t.Parallel()
				if _, err := memsys.Run(memsys.DefaultConfig(model, 2), name, memsys.ScaleSmall); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestINCModelOnCommunicationFreeWorkloads(t *testing.T) {
	// The incoherent model (Table 1's third option) is sound without
	// extra software coherence for workloads whose sharing is read-only
	// and whose outputs are disjoint; the coherent and incoherent
	// machines must produce verified results and comparable times.
	apps := []string{"fir", "depth", "jpeg-encode", "jpeg-decode", "raytracer", "mpeg2"}
	for _, app := range apps {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			inc, err := memsys.Run(memsys.DefaultConfig(memsys.INC, 4), app, memsys.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := memsys.Run(memsys.DefaultConfig(memsys.CC, 4), app, memsys.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(inc.Wall) / float64(cc.Wall)
			if ratio < 0.5 || ratio > 1.5 {
				t.Errorf("INC/CC wall ratio = %.2f; removing the protocol should not change these apps much", ratio)
			}
		})
	}
}

// TestTraceCollectsSpans: on every model the timeline carries the
// stall and wait classes the run spends time in, under the cycle
// ledger's class names: synchronization everywhere, DMA waits on STR,
// load and store stalls on the cached models.
func TestTraceCollectsSpans(t *testing.T) {
	for _, model := range []memsys.Model{memsys.CC, memsys.STR, memsys.INC} {
		tr := memsys.NewTrace()
		cfg := memsys.DefaultConfig(model, 2)
		cfg.Trace = tr
		if _, err := memsys.Run(cfg, "mergesort", memsys.ScaleSmall); err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, s := range tr.Spans() {
			got[s.Name]++
		}
		want := []string{"sync_wait", "load_stall", "store_stall"}
		if model == memsys.STR {
			want = []string{"sync_wait", "dma_wait"}
		}
		for _, name := range want {
			if got[name] == 0 {
				t.Errorf("%v: no %s spans in %v", model, name, got)
			}
		}
	}
}

func TestOddCoreCounts(t *testing.T) {
	// Core counts that are not powers of two exercise the partitioning
	// and cluster-boundary logic (e.g. a half-filled cluster).
	for _, cores := range []int{3, 5, 6, 7} {
		for _, app := range []string{"fir", "mergesort", "fem"} {
			for _, model := range []memsys.Model{memsys.CC, memsys.STR} {
				cores, app, model := cores, app, model
				t.Run(fmt.Sprintf("%s/%v/%d", app, model, cores), func(t *testing.T) {
					t.Parallel()
					if _, err := memsys.Run(memsys.DefaultConfig(model, cores), app, memsys.ScaleSmall); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

func TestParseHelpers(t *testing.T) {
	cases := []struct {
		in   string
		want memsys.Model
	}{{"cc", memsys.CC}, {"STR", memsys.STR}, {"Inc", memsys.INC}}
	for _, c := range cases {
		got, err := memsys.ParseModel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseModel(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := memsys.ParseModel("bogus"); err == nil {
		t.Error("ParseModel accepted garbage")
	}
	if sc, err := memsys.ParseScale("paper"); err != nil || sc != memsys.ScalePaper {
		t.Errorf("ParseScale(paper) = %v, %v", sc, err)
	}
	if _, err := memsys.ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted garbage")
	}
}
