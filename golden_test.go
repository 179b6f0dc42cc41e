package memsys_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	memsys "repro"
	"repro/internal/sim"
)

// goldenRun is one pinned simulation: every shipped workload on every
// model at 8 cores (two clusters, so remote snoops and cross-cluster
// write-backs occur), plus the CC store-policy and protocol ablations
// on a streaming, a sorting and a PFS workload.
type goldenRun struct {
	key  string
	cfg  memsys.Config
	name string
}

func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, model := range []memsys.Model{memsys.CC, memsys.STR, memsys.INC} {
		for _, name := range memsys.Workloads() {
			runs = append(runs, goldenRun{model.String() + "/" + name, memsys.DefaultConfig(model, 8), name})
		}
	}
	for _, name := range []string{"fir", "mergesort", "mpeg2-pfs"} {
		cfg := memsys.DefaultConfig(memsys.CC, 8)
		cfg.PrefetchDepth = 4
		runs = append(runs, goldenRun{"CC-P4/" + name, cfg, name})
		cfg = memsys.DefaultConfig(memsys.CC, 8)
		cfg.NoWriteAllocate = true
		runs = append(runs, goldenRun{"CC-NWA/" + name, cfg, name})
		cfg = memsys.DefaultConfig(memsys.CC, 8)
		cfg.SnoopFilter = true
		runs = append(runs, goldenRun{"CC-SF/" + name, cfg, name})
	}
	return runs
}

// goldenReport runs cfg and returns the report JSON, its Servers block
// zeroed: those are calendar-maintenance counters, which depend on how
// the calendars prune, not on the simulated machine; Engine stays
// pinned because it proves the dispatch schedule is unchanged.
func goldenReport(t *testing.T, g goldenRun, cfg memsys.Config) []byte {
	t.Helper()
	rep, err := memsys.Run(cfg, g.name, memsys.ScaleSmall)
	if err != nil {
		t.Fatalf("%s: %v", g.key, err)
	}
	rep.Servers = sim.ServerMetrics{}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// goldenDigest runs one configuration with every observer armed and
// hashes all of its outputs: the report JSON (with the cycle ledger and
// latency histograms), the sampled tracer's JSONL, the explain-tail
// text, and the Chrome trace with the transaction spans merged in. It
// also checks the core timeline against the ledger and returns the
// report JSON alone.
func goldenDigest(t *testing.T, g goldenRun) (string, []byte) {
	t.Helper()
	cfg := g.cfg
	cfg.CycleLedger = true
	tr := memsys.NewTrace()
	cfg.Trace = tr
	txn := memsys.NewTxnTrace()
	txn.SampleEvery = 16
	txn.Seed = 42
	cfg.TxnTrace = txn
	raw := goldenReport(t, g, cfg)
	checkSpansMatchLedger(t, g.key, tr, raw)
	h := sha256.New()
	h.Write(raw)
	if err := txn.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	txn.WriteExplainTail(h, sim.MHz(cfg.CoreMHz).Period)
	txn.MergeChrome(tr)
	if err := tr.WriteChrome(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil)), raw
}

// checkSpansMatchLedger asserts that the core timeline is a view of the
// cycle ledger: per core and per stall or wait class, the spans sum
// exactly to the report's Cycles.PerCore entry, no span carries another
// name, and the collector dropped none. It runs before MergeChrome adds
// the transaction spans.
func checkSpansMatchLedger(t *testing.T, key string, tr *memsys.Trace, raw []byte) {
	t.Helper()
	var rep struct{ Cycles *memsys.CycleSummary }
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	if n := tr.Dropped(); n != 0 {
		t.Errorf("%s: timeline dropped %d spans", key, n)
	}
	col := map[string]int{}
	for c, name := range rep.Cycles.Classes {
		if name != "compute" && name != "idle" {
			col[name] = c
		}
	}
	got := make([]map[string]sim.Time, len(rep.Cycles.PerCore))
	for i := range got {
		got[i] = map[string]sim.Time{}
	}
	for _, s := range tr.Spans() {
		if _, ok := col[s.Name]; !ok || s.Track < 0 || s.Track >= len(got) {
			t.Fatalf("%s: span %+v is not a core's stall or wait class", key, s)
		}
		got[s.Track][s.Name] += s.Dur
	}
	for i, row := range rep.Cycles.PerCore {
		for name, c := range col {
			if got[i][name] != row[c] {
				t.Errorf("%s: core %d %s spans sum to %d fs, ledger %d fs", key, i, name, got[i][name], row[c])
			}
		}
	}
}

// TestModelOutputGoldens pins every observable output of the three
// first-level models, except the calendar-maintenance counters, to
// recorded digests. A refactor of model code must leave all of them
// unchanged; an intended behavior change re-records them (the failure
// message prints the new table).
//
// Each run is repeated with only the cycle ledger armed, and that
// report JSON must equal the fully armed run's byte for byte: the
// Latency block must not depend on which observers are attached.
func TestModelOutputGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 57 traced 8-core simulations, each also ledger-only")
	}
	var got bytes.Buffer
	failed := false
	for _, g := range goldenRuns() {
		d, armed := goldenDigest(t, g)
		cfg := g.cfg
		cfg.CycleLedger = true
		if only := goldenReport(t, g, cfg); !bytes.Equal(only, armed) {
			t.Errorf("%s: ledger-only report differs from the fully armed one:\nonly:  %s\narmed: %s", g.key, only, armed)
		}
		fmt.Fprintf(&got, "\t%q: %q,\n", g.key, d)
		want, ok := modelGoldens[g.key]
		if !ok {
			t.Errorf("%s: no golden digest recorded", g.key)
			failed = true
		} else if d != want {
			t.Errorf("%s: digest %s, want %s", g.key, d, want)
			failed = true
		}
	}
	if failed {
		t.Logf("current digests:\n%s", strings.TrimRight(got.String(), "\n"))
	}
}

var modelGoldens = map[string]string{
	"CC/art":            "f9ab9c2b15d3e61d9b1338fc178665b9cf640d6d32c78f6821ff30cb3eb4543d",
	"CC/art-orig":       "3d9e26ae765aa43426850493eb2ec9a5e4b49c668dccd752bf34814b05efb36f",
	"CC/bitonicsort":    "5438d602b997f3d72fe28723ac041793cf24fad16a3d63f2cdfc8bca32e2bb47",
	"CC/depth":          "2c618e8692bc5bdaac050d1e1689754316aa6a6a4d0a656eb47b5d4bab43efb3",
	"CC/fem":            "acca6b6580f58c9731422384d10b6bfb0b1f1eeeb3b710b32e4f5f445f03ec16",
	"CC/fir":            "fac898d7d099c4cf14bdbbff66da2a8351027ee13d76a118024d58d3dc6b7014",
	"CC/fir-pfs":        "1d55bcfe02fa7af2c692e4f3e456fd5b32a41afe367d464c1db9649cfd2eb3c7",
	"CC/h264":           "9658700c419cf5aa351752b8bb33a462c72e1fd6d084d6baeedf279ff6c36879",
	"CC/jpeg-decode":    "526d2f8780bf8490eb0fe7091dad0d01589d3f86fa2b7cc40bdd906a507ccf6f",
	"CC/jpeg-encode":    "fabb3040f5f8ab7f464de76a475cf44056af0102a4a9ee618caa6d03b551ffd4",
	"CC/mergesort":      "f12b6012e3db026c6e471ada010763da8416ec9df69a5fc1a1c065c214ba50e3",
	"CC/mergesort-pfs":  "5a17e45f7a99f7c8c35532d1a1dfcc8901c482a949193b12da1f9d27ea5a1700",
	"CC/mpeg2":          "a6ca3c19f828d81afd126dedbed52a95c52ff6db3ac97c0d5629e500849969fb",
	"CC/mpeg2-orig":     "695770be55216c27bf8709094817c4864721da13bbdffbd8f9c8c43c1f2ce678",
	"CC/mpeg2-pfs":      "304ac68d49ca6a8d11c14a441b72ada70b70e75fddeb2bb21a00e98141c923c2",
	"CC/raytracer":      "11f1bc47fd80636f6b15bb3a38e4402f43b8584710ff536cf9dd112c591402da",
	"STR/art":           "b01be5faeadc14bf5877ae17f7edbfeeeadfcbc3351359c58ef367956186c060",
	"STR/art-orig":      "3ed04f37752687edc8206065a2db883a98a1ffe48cf33b53598bf9a0bc432d84",
	"STR/bitonicsort":   "afc1891d29e7c6c175787ae24a344afe9cb2762cda74d7db48a93827bb717e71",
	"STR/depth":         "4c98ee4721911147e96e1225e02c0c50bf8eb4d8271468faccd7a3701e847504",
	"STR/fem":           "5fecdd7bc2ff8d2697a843ce6a979a39fb0d3fe52d5f60a89855ad3a1aedf535",
	"STR/fir":           "02408be13c3d7962f84168ac77cec60a6b572c0efc1134480062aba5989ff6ab",
	"STR/fir-pfs":       "02408be13c3d7962f84168ac77cec60a6b572c0efc1134480062aba5989ff6ab",
	"STR/h264":          "8d11c1bc130e40be138672c78140ddc630160f1cc18421ed27d71fa53974404d",
	"STR/jpeg-decode":   "31b900c0850912bb25c2bdcdd05a89c0360f3240d8e2bc15f6647f19305b5c73",
	"STR/jpeg-encode":   "17b31918633472a38df78a7341bbd955ea278dbd89a2b0d4cc18d84ff1622c69",
	"STR/mergesort":     "934b6c1207f4fa75c05d58e22edb0a74ebefde8d1235c6eefa36abc605c12652",
	"STR/mergesort-pfs": "934b6c1207f4fa75c05d58e22edb0a74ebefde8d1235c6eefa36abc605c12652",
	"STR/mpeg2":         "c4ccce7ad6e225f592454c7b6b01b06e65101f48561cc570e716d8abae967700",
	"STR/mpeg2-orig":    "ceaf25ec169c20ec0d400e139737e29c10a431853ae9702c1bb377d98b1d5b4b",
	"STR/mpeg2-pfs":     "c4ccce7ad6e225f592454c7b6b01b06e65101f48561cc570e716d8abae967700",
	"STR/raytracer":     "ae9ecb100fa6febb0f514ae651886d4df2608e780eb99d69c8f5a27ede99f93c",
	"INC/art":           "00ad60111742003721c3a976b2c1e106f113be2068c4915caafc1bfdbe90e4ae",
	"INC/art-orig":      "414cce409c7453012999e794c8041c5bb0d6eb88b8b63c6c75274589f1be3399",
	"INC/bitonicsort":   "f54d790bfb7c54578f9fc9d3e42eca9e594a3606e68457f23cd39a5826ce0fb5",
	"INC/depth":         "6d66cd756e47218265f38907f0ed570257c6259abdbe1cd64a5b2588b150d3be",
	"INC/fem":           "c103dab2b44fce7e7ccdbf9fa5df941a843ac4c2dfa1b1ca97867fd0822971d1",
	"INC/fir":           "cf88046a661bd76bb5e0ddd5067d1fa2ac21beee7ad3f6c29e4c7c77659e586a",
	"INC/fir-pfs":       "f99815332ef294057f57f40cd2626d3c5a945329be929f7b36c670e34255d0be",
	"INC/h264":          "26b7d1a3596b662c9cc4f94a93756e6ce94d7da016dcb42523a16f1bd1995891",
	"INC/jpeg-decode":   "b709727dc8e783c22d5f945ae9be276bb6f0866ae35163b022092e548bfdf5eb",
	"INC/jpeg-encode":   "881e60562a45838b3dbd8c1a1abe3f1f3c92cb87c3525a33de0baa4daadecf0d",
	"INC/mergesort":     "127eb521aba9ad62e55a83a1e3b4f7bcae5b5ba4e15f1bcef47680b67b1df716",
	"INC/mergesort-pfs": "c56432c306f330ed9bec91ed7ec0e1b171fee496f539f7d75362045db84e53d0",
	"INC/mpeg2":         "20b32253c3b61478edc47ce537a78b28aec6736a61286a5988890bdb9fa6b0cc",
	"INC/mpeg2-orig":    "fc32cf901de067b1e9c0e652ee100132d81a8a1016876b51ff33b1e0704b0271",
	"INC/mpeg2-pfs":     "566fc2725dbf7756bf39d923b7e4415797689a1885362a5f567e47916af5fa4b",
	"INC/raytracer":     "c986ecb045da2cce001a2a3f12d0eb62ceb366d2c8ff88f88255c2e0efa4a0e4",
	"CC-P4/fir":         "0ab33e32475a712273a56b7ac1546a1439e8801a50f0d37944cd04ede6abcff2",
	"CC-NWA/fir":        "fa2bdb0b122d436587a7ebaf2485aef3a4012d6fe5c41091277672758e8f80f6",
	"CC-SF/fir":         "39a3a89a91b502a19497b6cc948589cc3f18cee75600eb58f8d506c976a7c678",
	"CC-P4/mergesort":   "e99f9b393a743fdb7dfc09b665a7a1e1b93a330de2070a9ca42fd522530a00fb",
	"CC-NWA/mergesort":  "c642140bb6c6aad8cb072043208bb07121b27cb039e9d4ee527179b342649713",
	"CC-SF/mergesort":   "0eeedf10836b587b8941be619a731fb05a59243ddda1b6ad5e3c62fa8e2d7de0",
	"CC-P4/mpeg2-pfs":   "7fb474c96ee88155b3575efb80b65e0ae401fa1509d6e9168a7029e4d565d1e2",
	"CC-NWA/mpeg2-pfs":  "7746478de783357cddbce5248413f9e8de1a8e894600e9c7cfc72d030aa7769a",
	"CC-SF/mpeg2-pfs":   "74cc828e583367fc2ba91240cea6048568e6026938c9ba903bcdcacb919a0a1c",
}
