package memsys_test

import (
	"bytes"
	"encoding/json"
	"testing"

	memsys "repro"
	"repro/internal/txntrace"
)

// TestLedgerConservation is the cycle-accounting layer's property test:
// for every shipped workload, on both of the paper's models (plus the
// incoherent extension) and across core counts, each core's ledger
// classes — with Idle derived from wall minus finish — must sum EXACTLY
// to the run's wall time. Any charge site that moves a core clock
// without charging a class (or double-charges one) fails here with the
// femtosecond discrepancy.
func TestLedgerConservation(t *testing.T) {
	models := []memsys.Model{memsys.CC, memsys.STR, memsys.INC}
	coreCounts := []int{1, 4, 8}
	if testing.Short() {
		coreCounts = []int{4}
	}
	for _, name := range memsys.Workloads() {
		for _, model := range models {
			for _, cores := range coreCounts {
				name, model, cores := name, model, cores
				t.Run(name+"-"+model.String()+"-"+itoa(cores), func(t *testing.T) {
					t.Parallel()
					cfg := memsys.DefaultConfig(model, cores)
					cfg.CycleLedger = true
					rep, err := memsys.Run(cfg, name, memsys.ScaleSmall)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if rep.Cycles == nil {
						t.Fatalf("CycleLedger set but Report.Cycles is nil")
					}
					if err := rep.Cycles.Check(rep.Wall); err != nil {
						t.Errorf("conservation: %v", err)
					}
					if rep.Latency == nil {
						t.Fatalf("CycleLedger set but Report.Latency is nil")
					}
				})
			}
		}
	}
}

// TestLedgerDoesNotPerturbReports pins the accounting layer's zero-
// interference invariant, the same discipline as
// TestProbeDoesNotPerturbReports: enabling the cycle ledger must not
// change the simulated outcome. Stripping the two ledger-only blocks
// from the enabled report must leave bytes identical to the disabled
// run's report.
func TestLedgerDoesNotPerturbReports(t *testing.T) {
	cases := []struct {
		workload string
		model    memsys.Model
	}{
		{"fir", memsys.CC},
		{"fir", memsys.STR},
		{"mergesort", memsys.CC},
		{"mergesort", memsys.STR},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload+"-"+tc.model.String(), func(t *testing.T) {
			t.Parallel()
			run := func(ledgerOn bool) []byte {
				cfg := memsys.DefaultConfig(tc.model, 4)
				cfg.CycleLedger = ledgerOn
				rep, err := memsys.Run(cfg, tc.workload, memsys.ScaleSmall)
				if err != nil {
					t.Fatalf("run (ledger=%v): %v", ledgerOn, err)
				}
				js, err := json.Marshal(rep)
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				// Strip the ledger-only blocks; everything else must match.
				var m map[string]json.RawMessage
				if err := json.Unmarshal(js, &m); err != nil {
					t.Fatalf("unmarshal: %v", err)
				}
				if ledgerOn {
					if _, ok := m["Cycles"]; !ok {
						t.Fatalf("enabled report lacks Cycles block")
					}
				} else {
					if _, ok := m["Cycles"]; ok {
						t.Fatalf("disabled report carries a Cycles block")
					}
				}
				delete(m, "Cycles")
				delete(m, "Latency")
				out, err := json.Marshal(m)
				if err != nil {
					t.Fatalf("re-marshal: %v", err)
				}
				return out
			}
			off := run(false)
			on := run(true)
			if !bytes.Equal(off, on) {
				t.Errorf("report differs with the ledger on:\noff: %s\non:  %s", off, on)
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestLatencyCountsMatchCounters pins the latency histograms to the
// model counters they observe: every workload on every model, with the
// ledger armed, must record exactly one read_miss or write_miss per
// first-level demand miss, one l2_hit or dram_fill per uncore line read
// and one dma_get or dma_put per DMA command. A charge site that stops
// emitting into the tracer fails here. With a tracer armed as well, its
// per-class counts must equal the histograms.
func TestLatencyCountsMatchCounters(t *testing.T) {
	for _, name := range memsys.Workloads() {
		for _, model := range []memsys.Model{memsys.CC, memsys.STR, memsys.INC} {
			name, model := name, model
			t.Run(name+"-"+model.String(), func(t *testing.T) {
				t.Parallel()
				for _, traced := range []bool{false, true} {
					cfg := memsys.DefaultConfig(model, 4)
					cfg.CycleLedger = true
					var tr *memsys.TxnTrace
					if traced {
						tr = memsys.NewTxnTrace()
						cfg.TxnTrace = tr
					}
					checkLatencyCounts(t, cfg, name, tr)
				}
			})
		}
	}
}

func checkLatencyCounts(t *testing.T, cfg memsys.Config, name string, tr *memsys.TxnTrace) {
	t.Helper()
	w, err := memsys.NewWorkload(name, memsys.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	sys := memsys.NewSystem(cfg)
	rep, err := sys.Run(w)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var readMisses, writeMisses, gets, puts, sparseGets uint64
	for i := 0; i < cfg.Cores; i++ {
		st := sys.L1(i).Stats()
		readMisses += st.ReadMisses
		writeMisses += st.WriteMisses
		if cfg.Model == memsys.STR {
			ds := sys.StreamMem(i).DMA().Stats()
			gets += ds.GetCommands
			puts += ds.PutCommands
			sparseGets += ds.SparseGets
		}
	}
	count := func(d *memsys.LatencyDist) uint64 {
		if d == nil {
			return 0
		}
		return d.Count
	}
	lat := rep.Latency
	for _, c := range []struct {
		what      string
		hist, ctr uint64
	}{
		{"read_miss vs L1 ReadMisses", count(lat.ReadMiss), readMisses},
		{"write_miss vs L1 WriteMisses", count(lat.WriteMiss), writeMisses},
		// Sparse DMA gathers read single elements, not lines: they count
		// as uncore read requests but are not line-read transactions.
		{"l2_hit+dram_fill vs Unc.ReadRequests-SparseGets", count(lat.L2Hit) + count(lat.DRAMFill), rep.Unc.ReadRequests - sparseGets},
		{"dma_get vs GetCommands", count(lat.DMAGet), gets},
		{"dma_put vs PutCommands", count(lat.DMAPut), puts},
	} {
		if c.hist != c.ctr {
			t.Errorf("traced=%v: %s: histogram %d, counter %d", tr != nil, c.what, c.hist, c.ctr)
		}
	}
	if tr == nil {
		return
	}
	for _, c := range []struct {
		class txntrace.Class
		d     *memsys.LatencyDist
	}{
		{txntrace.ReadMiss, lat.ReadMiss},
		{txntrace.WriteMiss, lat.WriteMiss},
		{txntrace.L2Hit, lat.L2Hit},
		{txntrace.DRAMFill, lat.DRAMFill},
		{txntrace.DMAGet, lat.DMAGet},
		{txntrace.DMAPut, lat.DMAPut},
	} {
		if got := tr.Count(c.class); got != count(c.d) {
			t.Errorf("%s: tracer count %d, histogram %d", c.class, got, count(c.d))
		}
	}
}
