package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ledger"
	"repro/internal/stats"
)

// Figure is one of the paper's figures as data: the machines it runs
// and the panels it draws them in. Runner.Render runs and draws it.
type Figure struct {
	Name  string // paperbench -only key, e.g. "fig2"
	Title string // name on the failure summary line, e.g. "Figure 2"
	// Panels lays the figure out for apps (never nil); only the
	// per-application figures (Figure 2, cycle accounting) use it.
	Panels func(apps []string) []Panel
}

// Panel is one table and chart of a figure: labeled cells, each one
// simulation, normalized to a baseline simulation.
type Panel struct {
	Name  string // CSV file stem, e.g. "fig2-fir"
	Title string
	Kind  Kind
	Base  *Job // nil for Cycles, whose bars self-normalize
	Cells []Cell

	// Set by Render: one bar per cell, and the panel as a CSV table.
	Bars []Bar
	CSV  *stats.Table
}

// Cell is one bar of a panel.
type Cell struct {
	Label string
	Job   Job
}

// Jobs lists the panel's simulations, baseline first.
func (p Panel) Jobs() []Job {
	var jobs []Job
	if p.Base != nil {
		jobs = append(jobs, *p.Base)
	}
	for _, c := range p.Cells {
		jobs = append(jobs, c.Job)
	}
	return jobs
}

// Kind is what a panel's bars stack.
type Kind int

const (
	Time    Kind = iota // useful, sync, load, store over baseline wall time (Figure 2)
	Traffic             // DRAM read, write over baseline bytes (Figure 3)
	Energy              // components over baseline energy (Figure 4)
	Cycles              // cycle-ledger class fractions of cores x wall
)

// Bar is one rendered cell: its segments in the order of its kind's
// chart legend, and its total. Err marks a cell whose simulation
// failed: it renders as ERR and is left out of the chart, so one bad
// configuration costs one marker, not the figure.
type Bar struct {
	Label string
	Segs  []float64
	Total float64
	Err   bool
}

// Speedup returns total(a)/total(b) for two bars (how much faster b is).
func Speedup(a, b Bar) float64 { return a.Total / b.Total }

// kinds holds what the bar kinds draw differently.
var kinds = [...]struct {
	segs  []string // chart legend and the text table's columns before total
	csv   []string // CSV columns after "config": segments, then total if any
	total bool     // the text table ends in a total column
	bar   func(rep, base *core.Report) (segs []float64, total float64)
}{
	Time: {
		segs:  []string{"useful", "sync", "load", "store"},
		csv:   []string{"useful", "sync", "load", "store", "total"},
		total: true,
		bar: func(rep, base *core.Report) ([]float64, float64) {
			bt := float64(base.Wall)
			bd := rep.Breakdown
			return []float64{float64(bd.Useful) / bt, float64(bd.Sync) / bt,
				float64(bd.LoadStall) / bt, float64(bd.StoreStall) / bt}, float64(rep.Wall) / bt
		},
	},
	Traffic: {
		segs:  []string{"read", "write"},
		csv:   []string{"read", "write"},
		total: true,
		bar: func(rep, base *core.Report) ([]float64, float64) {
			bt := float64(base.DRAM.TotalBytes())
			if bt == 0 {
				bt = 1
			}
			rd, wr := float64(rep.DRAM.ReadBytes)/bt, float64(rep.DRAM.WriteBytes)/bt
			return []float64{rd, wr}, rd + wr
		},
	},
	Energy: {
		segs:  []string{"core", "i$", "d$", "lmem", "net", "l2", "dram"},
		csv:   []string{"core", "icache", "dcache", "lmem", "net", "l2", "dram"},
		total: true,
		bar: func(rep, base *core.Report) ([]float64, float64) {
			bt := base.Energy.Total()
			e := rep.Energy
			return []float64{e.Core / bt, e.ICache / bt, e.DCache / bt, e.LMem / bt,
				e.Network / bt, e.L2 / bt, e.DRAM / bt}, e.Total() / bt
		},
	},
	Cycles: {
		segs: ledger.ClassNames(),
		csv:  ledger.ClassNames(),
		// The fractions of the machine's core-cycles sum to 1 by the
		// ledger's conservation invariant.
		bar: func(rep, _ *core.Report) ([]float64, float64) {
			segs := make([]float64, ledger.NumClasses)
			total := float64(rep.Wall) * float64(len(rep.Cycles.PerCore))
			if total == 0 {
				return segs, 0
			}
			sum := 0.0
			for _, row := range rep.Cycles.PerCore {
				for c, v := range row {
					f := float64(v) / total
					segs[c] += f
					sum += f
				}
			}
			return segs, sum
		},
	},
}

// Render runs a figure and writes each panel to w as a text table and
// a stacked-bar chart. All of the figure's jobs are admitted to the
// pool before the first is collected. A panel whose baseline failed is
// skipped with a note; a failed cell renders as ERR. Render returns the
// drawn panels with Bars and CSV set, and, when any job failed, a
// *GridError that counts each distinct job of the figure once.
func (r *Runner) Render(w io.Writer, f Figure, apps []string) ([]Panel, error) {
	if apps == nil {
		apps = AllApps
	}
	panels := f.Panels(apps)
	var jobs []Job
	for _, p := range panels {
		jobs = append(jobs, p.Jobs()...)
	}
	r.Prefetch(jobs)
	g := &gridTracker{}
	var drawn []Panel
	for _, p := range panels {
		var base *core.Report
		if p.Base != nil {
			var err error
			if base, err = r.Run(p.Base.Cfg, p.Base.Name); !g.job(*p.Base, err) {
				fmt.Fprintf(w, "# %s: baseline failed, panel skipped: %v\n", p.Title, err)
				continue
			}
		}
		k := kinds[p.Kind]
		header := append([]string{"config"}, k.segs...)
		if k.total {
			header = append(header, "total")
		}
		tb := stats.NewTable(p.Title, header...)
		p.CSV = stats.NewTable("", append([]string{"config"}, k.csv...)...)
		ch := stats.Chart{SegNames: k.segs, Max: 1.0}
		for _, c := range p.Cells {
			rep, err := r.Run(c.Job.Cfg, c.Job.Name)
			b := Bar{Label: c.Label, Err: !g.job(c.Job, err)}
			row := []any{b.Label}
			if b.Err {
				for range header[1:] {
					row = append(row, "ERR")
				}
			} else {
				b.Segs, b.Total = k.bar(rep, base)
				for _, v := range b.Segs {
					row = append(row, v)
				}
				if k.total {
					row = append(row, b.Total)
				}
				ch.Bars = append(ch.Bars, stats.StackedBar{Label: b.Label, Segments: b.Segs})
			}
			tb.Row(row...)
			p.CSV.Row(row[:1+len(k.csv)]...)
			p.Bars = append(p.Bars, b)
		}
		tb.WriteText(w)
		ch.Write(w)
		drawn = append(drawn, p)
	}
	return drawn, g.finish(w, f.Title)
}

// baseline is the run the paper normalizes to: one 800 MHz CC core,
// default bandwidth.
func baseline(app string) *Job { return &Job{core.DefaultConfig(core.CC, 1), app} }

// coreCounts are Figure 2's x axis.
var coreCounts = []int{2, 4, 8, 16}

// fig34Apps are the applications Figures 3 and 4 report.
var fig34Apps = []string{"fem", "mpeg2", "fir", "bitonicsort"}

// breakdownCores is the core count the cycle-accounting figure reports:
// the largest machine before Figure 2's 16-core tail, keeping the
// ledger-enabled campaign affordable while still showing contention.
const breakdownCores = 8

// perApp lays out one panel per application, named prefix-app.
func perApp(prefix string, apps []string, panel func(app string) Panel) []Panel {
	var ps []Panel
	for _, app := range apps {
		p := panel(app)
		p.Name = prefix + "-" + app
		ps = append(ps, p)
	}
	return ps
}

// modelPairs is one cell per model, CC then STR, at each point of a
// sweep; at gives each cell's label and machine.
func modelPairs[T any](app string, xs []T, at func(x T, m core.Model) (string, core.Config)) []Cell {
	var cells []Cell
	for _, x := range xs {
		for _, m := range []core.Model{core.CC, core.STR} {
			label, cfg := at(x, m)
			cells = append(cells, Cell{label, Job{cfg, app}})
		}
	}
	return cells
}

// at16 is CC and STR at 16 cores, labeled by model.
func at16(app string) []Cell {
	return modelPairs(app, []int{16}, func(n int, m core.Model) (string, core.Config) {
		return m.String(), core.DefaultConfig(m, n)
	})
}

// fast is a 3.2 GHz machine of model with cores cores, a 12.8 GB/s
// channel and prefetch depth pf: the latency-bound regime of Figure 7.
func fast(m core.Model, cores, pf int) core.Config {
	cfg := core.DefaultConfig(m, cores)
	cfg.CoreMHz = 3200
	cfg.DRAMBandwidthMBps = 12800
	cfg.PrefetchDepth = pf
	return cfg
}

// pfsCells is Figure 8's CC, CC with "Prepare For Store" and STR at 16
// cores.
func pfsCells(app string) []Cell {
	return []Cell{
		{"CC", Job{core.DefaultConfig(core.CC, 16), app}},
		{"CC+PFS", Job{core.DefaultConfig(core.CC, 16), app + "-pfs"}},
		{"STR", Job{core.DefaultConfig(core.STR, 16), app}},
	}
}

// origOpt is the grid Figures 9 and 10 share: the original and
// stream-optimized variants on the CC model at 2-16 cores.
func origOpt(orig, opt string) []Cell {
	var cells []Cell
	for _, n := range coreCounts {
		cells = append(cells,
			Cell{fmt.Sprintf("ORIG-%d", n), Job{core.DefaultConfig(core.CC, n), orig}},
			Cell{fmt.Sprintf("OPT-%d", n), Job{core.DefaultConfig(core.CC, n), opt}})
	}
	return cells
}

// Figures is the paper's Figures 2 to 10 and the cycle-accounting
// figure, in paperbench's output order.
var Figures = []Figure{
	{"fig2", "Figure 2", func(apps []string) []Panel {
		// CC and STR at 2-16 cores.
		return perApp("fig2", apps, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Figure 2 [%s]: normalized execution time", app), Kind: Time, Base: baseline(app),
				Cells: modelPairs(app, coreCounts, func(n int, m core.Model) (string, core.Config) {
					return fmt.Sprintf("%s-%d", m, n), core.DefaultConfig(m, n)
				})}
		})
	}},
	{"fig3", "Figure 3", func([]string) []Panel {
		return perApp("fig3", fig34Apps, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Figure 3 [%s]: normalized off-chip traffic (16 cores)", app),
				Kind: Traffic, Base: baseline(app), Cells: at16(app)}
		})
	}},
	{"fig4", "Figure 4", func([]string) []Panel {
		return perApp("fig4", fig34Apps, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Figure 4 [%s]: normalized energy (16 cores)", app),
				Kind: Energy, Base: baseline(app), Cells: at16(app)}
		})
	}},
	{"fig5", "Figure 5", func([]string) []Panel {
		// The core clock swept at 16 cores, for the computational-scaling
		// applications.
		return perApp("fig5", []string{"mpeg2", "fir", "bitonicsort"}, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Figure 5 [%s]: clock scaling (16 cores)", app), Kind: Time, Base: baseline(app),
				Cells: modelPairs(app, []uint64{800, 1600, 3200, 6400}, func(mhz uint64, m core.Model) (string, core.Config) {
					cfg := core.DefaultConfig(m, 16)
					cfg.CoreMHz = mhz
					return fmt.Sprintf("%s-%.1fGHz", m, float64(mhz)/1000), cfg
				})}
		})
	}},
	{"fig6", "Figure 6", func([]string) []Panel {
		// Off-chip bandwidth swept for FIR at 16 cores, 3.2 GHz; at 12.8
		// GB/s the cache-based system also runs with hardware prefetching,
		// as in the paper.
		cells := modelPairs("fir", []uint64{1600, 3200, 6400, 12800}, func(bw uint64, m core.Model) (string, core.Config) {
			cfg := core.DefaultConfig(m, 16)
			cfg.CoreMHz = 3200
			cfg.DRAMBandwidthMBps = bw
			return fmt.Sprintf("%s-%.1fGB/s", m, float64(bw)/1000), cfg
		})
		cells = append(cells, Cell{"CC+P4-12.8GB/s", Job{fast(core.CC, 16, 4), "fir"}})
		return []Panel{{Name: "fig6-fir", Title: "Figure 6 [fir]: off-chip bandwidth sweep (16 cores @ 3.2 GHz)",
			Kind: Time, Base: baseline("fir"), Cells: cells}}
	}},
	{"fig7", "Figure 7", func([]string) []Panel {
		// Hardware prefetching (depth 4) on MergeSort and 179.art.
		return perApp("fig7", []string{"mergesort", "art"}, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Figure 7 [%s]: hardware prefetching (2 cores @ 3.2 GHz, 12.8 GB/s)", app),
				Kind: Time, Base: baseline(app), Cells: []Cell{
					{"CC", Job{fast(core.CC, 2, 0), app}},
					{"CC+P4", Job{fast(core.CC, 2, 4), app}},
					{"STR", Job{fast(core.STR, 2, 0), app}},
				}}
		})
	}},
	{"fig8", "Figure 8", func([]string) []Panel {
		// "Prepare For Store": traffic for three applications, then the
		// FIR energy comparison.
		ps := perApp("fig8", []string{"fir", "mergesort", "mpeg2"}, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Figure 8 [%s]: PFS off-chip traffic (16 cores)", app),
				Kind: Traffic, Base: baseline(app), Cells: pfsCells(app)}
		})
		return append(ps, Panel{Name: "fig8-fir-energy", Title: "Figure 8 [fir]: PFS energy (16 cores @ 800 MHz)",
			Kind: Energy, Base: baseline("fir"), Cells: pfsCells("fir")})
	}},
	{"fig9", "Figure 9", func([]string) []Panel {
		// The original and stream-optimized cache-based MPEG-2 encoders.
		cells := origOpt("mpeg2-orig", "mpeg2")
		return []Panel{
			{Name: "fig9-mpeg2-time", Title: "Figure 9 [mpeg2]: stream-programming optimizations, execution time",
				Kind: Time, Base: baseline("mpeg2-orig"), Cells: cells},
			{Name: "fig9-mpeg2-traffic", Title: "Figure 9 [mpeg2]: stream-programming optimizations, off-chip traffic",
				Kind: Traffic, Base: baseline("mpeg2-orig"), Cells: cells},
		}
	}},
	{"fig10", "Figure 10", func([]string) []Panel {
		return []Panel{{Name: "fig10-art", Title: "Figure 10 [179.art]: stream-programming optimizations",
			Kind: Time, Base: baseline("art-orig"), Cells: origOpt("art-orig", "art")}}
	}},
	{"breakdown", "Cycle accounting", func(apps []string) []Panel {
		// Where every core cycle goes, CC beside STR. Each bar fills to
		// 1.0, so the models' class mixes compare directly even when
		// their wall times differ.
		return perApp("breakdown", apps, func(app string) Panel {
			return Panel{Title: fmt.Sprintf("Cycle accounting [%s]: class fractions (%d cores)", app, breakdownCores), Kind: Cycles,
				Cells: modelPairs(app, []int{breakdownCores}, func(n int, m core.Model) (string, core.Config) {
					cfg := core.DefaultConfig(m, n)
					cfg.CycleLedger = true
					return m.String(), cfg
				})}
		})
	}},
}
