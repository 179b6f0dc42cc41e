package bench

import (
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// sharedRunner memoizes across the package's tests: the figures
// reuse many of the same configurations (baselines especially).
var sharedRunner = NewRunner(workload.ScaleSmall)

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(workload.ScaleSmall)
	cfg := core.DefaultConfig(core.CC, 2)
	a, err := r.Run(cfg, "fir")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(cfg, "fir")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second run not served from cache")
	}
}

func TestTable2Writes(t *testing.T) {
	var sb strings.Builder
	Table2(&sb)
	if !strings.Contains(sb.String(), "512 KB 16-way") {
		t.Error("Table 2 missing L2 row")
	}
}

func TestTable3SmallScale(t *testing.T) {
	r := sharedRunner
	rows, err := r.Table3(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(AllApps) {
		t.Fatalf("%d rows, want %d", len(rows), len(AllApps))
	}
	byApp := map[string]Table3Row{}
	for _, row := range rows {
		byApp[row.App] = row
		if row.OffChipMBps <= 0 {
			t.Errorf("%s: no off-chip traffic measured", row.App)
		}
	}
	// Table 3 shape: depth is the most compute-intense; fir and the
	// sorts demand the most bandwidth.
	if byApp["depth"].InstrPerL1Miss < 4*byApp["fir"].InstrPerL1Miss {
		t.Errorf("depth instr/miss (%.0f) should dwarf fir's (%.0f)",
			byApp["depth"].InstrPerL1Miss, byApp["fir"].InstrPerL1Miss)
	}
	if byApp["fir"].OffChipMBps < byApp["depth"].OffChipMBps {
		t.Error("fir should demand more bandwidth than depth")
	}
}

// figure returns the entry of Figures with the given -only name.
func figure(name string) Figure {
	for _, f := range Figures {
		if f.Name == name {
			return f
		}
	}
	panic("no figure " + name)
}

// render draws a figure on the shared runner (apps nil: every app) and
// returns its panels by CSV name.
func render(t *testing.T, name string, apps ...string) map[string]Panel {
	t.Helper()
	panels, err := sharedRunner.Render(io.Discard, figure(name), apps)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Panel{}
	for _, p := range panels {
		byName[p.Name] = p
	}
	return byName
}

// seg is bar b's segment of the given chart-legend name.
func seg(t *testing.T, k Kind, b Bar, name string) float64 {
	t.Helper()
	for i, n := range kinds[k].segs {
		if n == name {
			return b.Segs[i]
		}
	}
	t.Fatalf("kind %d has no segment %q", k, name)
	return 0
}
func TestFigure2Subset(t *testing.T) {
	out := render(t, "fig2", "fir", "depth")
	if len(out) != 2 {
		t.Fatalf("%d panels, want 2", len(out))
	}
	for name, p := range out {
		if len(p.Bars) != 8 { // 4 core counts x 2 models
			t.Errorf("%s: %d bars, want 8", name, len(p.Bars))
		}
		for _, b := range p.Bars {
			if b.Total <= 0 || b.Total > 1.5 {
				t.Errorf("%s %s: normalized total %.3f out of range", name, b.Label, b.Total)
			}
		}
	}
	// Compute-bound depth: both models nearly identical at 16 cores.
	bars := out["fig2-depth"].Bars
	cc16, str16 := bars[6], bars[7]
	ratio := cc16.Total / str16.Total
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("depth CC16/STR16 = %.2f, want ~1", ratio)
	}
}

func TestFigure6Shape(t *testing.T) {
	bars := render(t, "fig6")["fig6-fir"].Bars
	if len(bars) != 9 {
		t.Fatalf("%d bars, want 9", len(bars))
	}
	// More bandwidth must not hurt the cache-based system.
	cc16, cc128 := bars[0], bars[6]
	if cc128.Total > cc16.Total*1.02 {
		t.Errorf("CC at 12.8 GB/s (%.3f) slower than at 1.6 (%.3f)", cc128.Total, cc16.Total)
	}
	// The gap CC vs STR shrinks as bandwidth grows.
	gapLo := bars[0].Total / bars[1].Total
	gapHi := bars[6].Total / bars[7].Total
	if gapHi > gapLo*1.05 {
		t.Errorf("bandwidth did not close the CC/STR gap: %.2f -> %.2f", gapLo, gapHi)
	}
}

func TestFigure9Shape(t *testing.T) {
	out := render(t, "fig9")
	bars, traffic := out["fig9-mpeg2-time"].Bars, out["fig9-mpeg2-traffic"].Bars
	if len(bars) != 8 || len(traffic) != 8 {
		t.Fatalf("bars=%d traffic=%d, want 8 each", len(bars), len(traffic))
	}
	// At 16 cores the optimized version is faster and moves less data.
	orig16, opt16 := bars[6], bars[7]
	if opt16.Total >= orig16.Total {
		t.Errorf("optimized MPEG-2 (%.3f) not faster than original (%.3f) at 16 cores",
			opt16.Total, orig16.Total)
	}
	bytesOf := func(b Bar) float64 { return seg(t, Traffic, b, "read") + seg(t, Traffic, b, "write") }
	tOrig, tOpt := bytesOf(traffic[6]), bytesOf(traffic[7])
	if tOpt >= tOrig {
		t.Errorf("optimized traffic (%.3f) not below original (%.3f)", tOpt, tOrig)
	}
}

func TestFigure10Shape(t *testing.T) {
	bars := render(t, "fig10")["fig10-art"].Bars
	// Dramatic speedup "even at small core counts".
	orig2, opt2 := bars[0], bars[1]
	if sp := Speedup(orig2, opt2); sp < 2 {
		t.Errorf("art optimization speedup at 2 cores = %.2f, want >= 2", sp)
	}
}

func TestFigure4Shape(t *testing.T) {
	out := render(t, "fig4")
	for _, app := range []string{"fem", "mpeg2", "fir", "bitonicsort"} {
		bars := out["fig4-"+app].Bars
		if len(bars) != 2 {
			t.Fatalf("%s: %d bars", app, len(bars))
		}
		for _, b := range bars {
			if b.Total <= 0 {
				t.Errorf("%s %s: non-positive energy", app, b.Label)
			}
		}
	}
	// FIR: streaming spends less total energy.
	fir := out["fig4-fir"].Bars
	if fir[1].Total >= fir[0].Total {
		t.Errorf("fir STR energy %.3f >= CC %.3f", fir[1].Total, fir[0].Total)
	}
}

func TestFigure5Shape(t *testing.T) {
	out := render(t, "fig5")
	for _, app := range []string{"mpeg2", "fir", "bitonicsort"} {
		bars := out["fig5-"+app].Bars
		if len(bars) != 8 {
			t.Fatalf("%s: %d bars, want 8", app, len(bars))
		}
		// Higher clocks never make the same machine slower.
		for i := 2; i < 8; i++ {
			if bars[i].Total > bars[i-2].Total*1.02 {
				t.Errorf("%s: %s (%.3f) slower than %s (%.3f)",
					app, bars[i].Label, bars[i].Total, bars[i-2].Label, bars[i-2].Total)
			}
		}
	}
	// FIR at 6.4 GHz: STR ahead (the paper's 36%).
	fir := out["fig5-fir"].Bars
	if fir[7].Total >= fir[6].Total {
		t.Errorf("fir @6.4GHz: STR %.3f not ahead of CC %.3f", fir[7].Total, fir[6].Total)
	}
	// BitonicSort at 6.4 GHz: CC ahead (the paper's 19%).
	bt := out["fig5-bitonicsort"].Bars
	if bt[6].Total >= bt[7].Total {
		t.Errorf("bitonic @6.4GHz: CC %.3f not ahead of STR %.3f", bt[6].Total, bt[7].Total)
	}
}

func TestFigure7Shape(t *testing.T) {
	out := render(t, "fig7")
	if len(out) != 2 {
		t.Fatalf("%d panels, want 2", len(out))
	}
	for name, p := range out {
		bars := p.Bars
		if len(bars) != 3 { // CC, CC+P4, STR
			t.Fatalf("%s: %d bars", name, len(bars))
		}
		cc, p4 := seg(t, Time, bars[0], "load"), seg(t, Time, bars[1], "load")
		if p4 > cc/2 {
			t.Errorf("%s: P4 left %.3f of %.3f load stall", name, p4, cc)
		}
		if bars[1].Total >= bars[0].Total {
			t.Errorf("%s: P4 (%.3f) not faster than CC (%.3f)", name, bars[1].Total, bars[0].Total)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	out := render(t, "fig8")
	for _, app := range []string{"fir", "mergesort", "mpeg2"} {
		bars := out["fig8-"+app].Bars
		if len(bars) != 3 { // CC, CC+PFS, STR
			t.Fatalf("%s: %d bars", app, len(bars))
		}
		cc, pfs := seg(t, Traffic, bars[0], "read"), seg(t, Traffic, bars[1], "read")
		if pfs >= cc {
			t.Errorf("%s: PFS reads %.3f >= CC %.3f", app, pfs, cc)
		}
	}
	energy := out["fig8-fir-energy"].Bars
	if len(energy) != 3 {
		t.Fatalf("energy bars = %d", len(energy))
	}
	if energy[1].Total >= energy[0].Total {
		t.Errorf("PFS energy %.3f >= CC %.3f", energy[1].Total, energy[0].Total)
	}
}

func TestOnRecordFiresPerFreshSimulation(t *testing.T) {
	r := NewRunner(workload.ScaleSmall)
	var mu sync.Mutex
	var recs []Record
	r.OnRecord = func(rec Record) {
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
	}
	cfg := core.DefaultConfig(core.CC, 2)
	if _, err := r.Run(cfg, "fir"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg, "fir"); err != nil { // memo hit: no record
		t.Fatal(err)
	}
	if _, err := r.Run(core.DefaultConfig(core.STR, 2), "fir"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (one per fresh simulation)", len(recs))
	}
	for _, rec := range recs {
		if rec.Name != "fir" || rec.Report == nil || rec.Err != "" {
			t.Errorf("bad record %+v", rec)
		}
		if rec.HostNS <= 0 {
			t.Errorf("host duration not measured: %d", rec.HostNS)
		}
		if rec.Report.Engine.Dispatches == 0 && rec.Report.Engine.InlineSteps == 0 {
			t.Errorf("engine metrics missing from report")
		}
	}
}
