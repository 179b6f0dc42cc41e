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
// also returns the report JSON alone.
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
	"CC/art":            "48cd8aee70c3893e7137da3648e186f1e4e1b030d0d72bc1dbc5c6bb2d13f2d5",
	"CC/art-orig":       "9944df577b83efb8c55e39a4ebccef1710dc6a8dee5cfe09dbb95102165dd2f3",
	"CC/bitonicsort":    "bb50f650cce7439fa3ca72db84e8deb758854211281d6510b1adceec32635b8b",
	"CC/depth":          "f6e20c500e58d52abcb168b22f8e76ea45024ced56ee1e39e4095027752e6b95",
	"CC/fem":            "43a1d00874ce4070d97f304d07bf115599b433bc7ee4382541fa6ca878f1aece",
	"CC/fir":            "a38e621655eea681a45264deb2be5f3a548a5b55e143d5c7ed35a28fde67e25b",
	"CC/fir-pfs":        "e44e4afa3369997a225e6407b9411b3d0ca36c26e1d430156e05e13d3e1eea67",
	"CC/h264":           "1cb46fb824df188570650af0ac4b143758584cd4960092838bc910243d9bfc59",
	"CC/jpeg-decode":    "7dbd7d5d8a342dac13002593c03a2653838b342d143642f1d55d54f54d9b8a7d",
	"CC/jpeg-encode":    "a2e5f70e7a506bd5bf85c858165c6253f581a9812e1d0785d07876da47dc2b45",
	"CC/mergesort":      "a57483f65d707bdb8d2ac7eeb98cf8e9e34be1b167ce89d469f929a32c06a33b",
	"CC/mergesort-pfs":  "a8206368f31835a6fb7e67469a3a799d9332a617837ed2cd1664fcd5a2b58eaf",
	"CC/mpeg2":          "51e0374b74521f09448092a96b27465872dc313e5db92136afdb3e15e4015964",
	"CC/mpeg2-orig":     "681d5ae8c7379392584615b4e88a7c51bbe0a74ec7dbd674e45ba0934c46f4fb",
	"CC/mpeg2-pfs":      "087fadf582b1dcbec7f4eda3c7ac15eb92d6441d77cf6a18b3e6a4fd78212d10",
	"CC/raytracer":      "9be8cbe7ea9d0a7b064e725d28e075db88a0f69ae4844ffe21d04f7711f0cb19",
	"STR/art":           "f366738e356a7d20ae9a185f6f7ebda8b34fce1b68219f75642241f37f251afe",
	"STR/art-orig":      "4b724861b7bc0df2c3f071edd6fd8a58205f1e65646bbce7d9b9a7f89358b49d",
	"STR/bitonicsort":   "40cd57a22c8f68658c59edce133db662beca8d7b063dc78f2de5a48c71a23774",
	"STR/depth":         "0578cec51b93baf5a9336d60bcb477c34fa34ac67472f3fc6b2e9966406f5dd4",
	"STR/fem":           "1a94daec39f1f567134508689f99e4a4e34a42c53ad648e830bad761f4006a6d",
	"STR/fir":           "ba1b606cf51812aaddebaa8a95cd0c36541dbbac61133c17e27f6ee561f6929f",
	"STR/fir-pfs":       "ba1b606cf51812aaddebaa8a95cd0c36541dbbac61133c17e27f6ee561f6929f",
	"STR/h264":          "92a862dd53e22174bdff5e496def1e95f0dc8f6c2b894f68b75ac32b19aaa9f1",
	"STR/jpeg-decode":   "8ddd84ef1facc523824116107b32f03c46bb6ce604e1c1604de0cde8ff047ef3",
	"STR/jpeg-encode":   "2a84f9d71e0ecbe89ecb76f1a61c109698cc91ee9a1f5c8cf5ead8135c48c398",
	"STR/mergesort":     "442255b22ef3233d0624f59f7e017de102d7119eb47c43c123557dc6c67b867b",
	"STR/mergesort-pfs": "442255b22ef3233d0624f59f7e017de102d7119eb47c43c123557dc6c67b867b",
	"STR/mpeg2":         "8b5101b314cda3a3adb51fbcfbd24975671f912ca1b07f3efa9f56c3a4df9c08",
	"STR/mpeg2-orig":    "2ca3ac13a3d25878fb0b7c36c4cda9b573b5bd4e454c18e89bf46453ba46f1bf",
	"STR/mpeg2-pfs":     "8b5101b314cda3a3adb51fbcfbd24975671f912ca1b07f3efa9f56c3a4df9c08",
	"STR/raytracer":     "b7c14db339331cb74f28bea6cdafd3c5f31c04eeb60cd9bdfb59ae221b4dbf94",
	"INC/art":           "84ff89d60094fe8c34cef9b7e0c1eedcaabe163a80c548a30c0ad8896612f145",
	"INC/art-orig":      "9e682739f48fbed8f337980b62d2431873448166d316dabca7bd4b0480eefb40",
	"INC/bitonicsort":   "97f8de93299587e2d78195ffb32735d21c335001ded3d9eb304eb4542b025d88",
	"INC/depth":         "a23ec200e5bbd148a7b5bf5c0c02ef71345bf5718d5fd89e5e5bf6e121bb7eeb",
	"INC/fem":           "4ce06860e5c8949086d8d9b073a3dcf2fb99dade82344f16e9e10f382a5f0333",
	"INC/fir":           "5e97e2d4365bf25034a1493f14027458232a7c349745d6b128e5bb0a2dfb72b0",
	"INC/fir-pfs":       "c289ec9a2ffdd450c28de57d88ecd55dd3aee6b02be58854e030c12a4cb5c192",
	"INC/h264":          "3009f04c24db29d5f4523cc439d1fe7c3eaaf4826602c4fad350f44eb47d0ad0",
	"INC/jpeg-decode":   "68bcc7e7ad78ff4edad8b7ef87a587382ce2c998a5e888f93c7f088a60cecba7",
	"INC/jpeg-encode":   "e229e627f63013a3686676d3294b67ff01a6cf545d3858927572d93edc792ef1",
	"INC/mergesort":     "25ead82ab39cd8a4a445abb5ce23ab14b537bbe29f10186b55cd5a039aa15295",
	"INC/mergesort-pfs": "143159e6bc5b0d923fc716aaad5a3d3eb47fb519333763373d10d145875923a5",
	"INC/mpeg2":         "b172a63bd6347c011546808018c5d1e2d303d1198849a414c0fc948d69e69621",
	"INC/mpeg2-orig":    "9c205441f31c4f235eeba09dba87c267adcf5d374613d663fbbfa1468d083848",
	"INC/mpeg2-pfs":     "0d2e5b3bad34881abbfce3628127fb19588750e7b7cb75fe9ab39e25f3df11bf",
	"INC/raytracer":     "e1dde881537b47c8fb3e52fd657be4918c6921d7f19f86b92cd739c171336530",
	"CC-P4/fir":         "02e8e486a33793e18788658cb19d243257cea10ad1cec69ee3a367329e74cbaa",
	"CC-NWA/fir":        "e12bd0792d8523c84e33e9cde733b0257cb48fa7d826b0c9d836c73217eccd80",
	"CC-SF/fir":         "f92bd4fbed7e7ded9195b04e997d99a9340a79df3a1969b7a06ecbc151236ef4",
	"CC-P4/mergesort":   "966163d701b31d26caa400e8838be4eda96cf4c29c2f73f943bb8cf4667f4050",
	"CC-NWA/mergesort":  "817d1beaf43ee6d82ded7a9a9e09451a58db891c08a2128efee81adef0337812",
	"CC-SF/mergesort":   "907c71af9098324a2e876828cf829e1dad20ca37f03e3d7d3299d37d6b2e61fa",
	"CC-P4/mpeg2-pfs":   "4dd407202f2d371ebf04ef780a12a44556d70c9c1bc1fc180381f76dadc45f54",
	"CC-NWA/mpeg2-pfs":  "24b00ccb7ac3ee26377f7d5e0873a228c525f64605a37ef7a4f77fda700abbe0",
	"CC-SF/mpeg2-pfs":   "90f8d1424d4d5c0a734fe6e09c808d6866f01a7eadd6a469fcf1c379e15a1af0",
}
