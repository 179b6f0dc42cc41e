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

// goldenDigest runs one configuration with every observer armed and
// hashes all of its outputs: the report JSON (with the cycle ledger and
// latency histograms), the sampled tracer's JSONL, the explain-tail
// text, and the Chrome trace with the transaction spans merged in.
func goldenDigest(t *testing.T, g goldenRun) string {
	t.Helper()
	cfg := g.cfg
	cfg.CycleLedger = true
	tr := memsys.NewTrace()
	cfg.Trace = tr
	txn := memsys.NewTxnTrace()
	txn.SampleEvery = 16
	txn.Seed = 42
	cfg.TxnTrace = txn
	rep, err := memsys.Run(cfg, g.name, memsys.ScaleSmall)
	if err != nil {
		t.Fatalf("%s: %v", g.key, err)
	}
	h := sha256.New()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(raw)
	if err := txn.WriteJSONL(h); err != nil {
		t.Fatal(err)
	}
	txn.WriteExplainTail(h, sim.MHz(cfg.CoreMHz).Period)
	txn.MergeChrome(tr)
	if err := tr.WriteChrome(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelOutputGoldens pins every observable output of the three
// first-level models to digests recorded before the private-cache
// front end was shared between them. A refactor of model code must
// leave all of them unchanged; an intended behavior change re-records
// them (the failure message prints the new table).
func TestModelOutputGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 57 traced 8-core simulations")
	}
	var got bytes.Buffer
	failed := false
	for _, g := range goldenRuns() {
		d := goldenDigest(t, g)
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
	"CC/art":            "07c77e21a088076c76175cbde970306fcfba2910dbd16952a0929b1dd9aef684",
	"CC/art-orig":       "0abed1697e96ed27d5a48d4596927a84889611d4d60a43dc250e73ceececc188",
	"CC/bitonicsort":    "0e43648607290c851c6900990f5b65b5998bf965b2557a9fcb58e82d88db2cc0",
	"CC/depth":          "84e025ed15007f1b5df64c31938d7ee60fc6a05f7dc7f7fb7f9fe73a7e90aa74",
	"CC/fem":            "43a1d00874ce4070d97f304d07bf115599b433bc7ee4382541fa6ca878f1aece",
	"CC/fir":            "47e20bd8a6a5da372363c90498060c829b6a4651e79bc1dbdf90cc562e7714e9",
	"CC/fir-pfs":        "e44e4afa3369997a225e6407b9411b3d0ca36c26e1d430156e05e13d3e1eea67",
	"CC/h264":           "e4eabc3b9e2a86df9b35d761436e14e47aec86182acc785610f61c55be02f216",
	"CC/jpeg-decode":    "6d30151048c41843cc344dc4c0a285aec9be7017eefb8bcbb0ea7fd1bede0f47",
	"CC/jpeg-encode":    "ed269379c94728431543f9f4217d3ee9654c473126dfb2e7240dcd5c15c481f7",
	"CC/mergesort":      "a5f09e9163b3246fc959ace86a024e6e38f20eeec9e69bfe067237d72137b90d",
	"CC/mergesort-pfs":  "7b51a6fe610cce83de70f8a29011de8edb280c1d8c315e0bec01cafed0d13212",
	"CC/mpeg2":          "51e0374b74521f09448092a96b27465872dc313e5db92136afdb3e15e4015964",
	"CC/mpeg2-orig":     "681d5ae8c7379392584615b4e88a7c51bbe0a74ec7dbd674e45ba0934c46f4fb",
	"CC/mpeg2-pfs":      "087fadf582b1dcbec7f4eda3c7ac15eb92d6441d77cf6a18b3e6a4fd78212d10",
	"CC/raytracer":      "9be8cbe7ea9d0a7b064e725d28e075db88a0f69ae4844ffe21d04f7711f0cb19",
	"STR/art":           "ceb65df09051ff74a21b01c48fea8fa5758bbb61a8ecd5445d510170ee124b1e",
	"STR/art-orig":      "369007a72859a7ef511d0605eff0e2cfbeaa654fa412a98f74fa838bd1472f4b",
	"STR/bitonicsort":   "fc6a5c14ecf393f73b01aac66fd7211601622c0d56c2fa4ea301a81359ec184c",
	"STR/depth":         "41f077bbf66d9c0104038fe3ef5a11b2d485663a2467c4c9614988597d9a06f0",
	"STR/fem":           "1a94daec39f1f567134508689f99e4a4e34a42c53ad648e830bad761f4006a6d",
	"STR/fir":           "ba1b606cf51812aaddebaa8a95cd0c36541dbbac61133c17e27f6ee561f6929f",
	"STR/fir-pfs":       "ba1b606cf51812aaddebaa8a95cd0c36541dbbac61133c17e27f6ee561f6929f",
	"STR/h264":          "45bce8f599770d6a83b0c5f44bebe31875ccdb3789d692f58210db06c4e8fce1",
	"STR/jpeg-decode":   "8ddd84ef1facc523824116107b32f03c46bb6ce604e1c1604de0cde8ff047ef3",
	"STR/jpeg-encode":   "e3f12a17f20e43b4027ea3e10d27e1222644986e27e74a41933a8f462013e905",
	"STR/mergesort":     "8b887348f94c818f1847e3e7aeac50312526e12fa49ef9a1da0c3901128bba94",
	"STR/mergesort-pfs": "8b887348f94c818f1847e3e7aeac50312526e12fa49ef9a1da0c3901128bba94",
	"STR/mpeg2":         "8b5101b314cda3a3adb51fbcfbd24975671f912ca1b07f3efa9f56c3a4df9c08",
	"STR/mpeg2-orig":    "2ca3ac13a3d25878fb0b7c36c4cda9b573b5bd4e454c18e89bf46453ba46f1bf",
	"STR/mpeg2-pfs":     "8b5101b314cda3a3adb51fbcfbd24975671f912ca1b07f3efa9f56c3a4df9c08",
	"STR/raytracer":     "b7c14db339331cb74f28bea6cdafd3c5f31c04eeb60cd9bdfb59ae221b4dbf94",
	"INC/art":           "f38061b905326eb2da65927f8f1588bb0205da49354a8a6002a5ae3316885eed",
	"INC/art-orig":      "91a23a600a1662a0af72f31d7400a668e248eaf681ae1e7efb3647b916f5b515",
	"INC/bitonicsort":   "2ec504df693985aa38cc93492fa36a84e81c074df498735e10a94410e3950a80",
	"INC/depth":         "ebb72199f3f0cd07bcccd2f6eda4ed782f406782a48837896d2b06231478abd6",
	"INC/fem":           "4ce06860e5c8949086d8d9b073a3dcf2fb99dade82344f16e9e10f382a5f0333",
	"INC/fir":           "345a2c50c92f3874f07254c705078032794f07858a529648a85c274ad61c3ea1",
	"INC/fir-pfs":       "c289ec9a2ffdd450c28de57d88ecd55dd3aee6b02be58854e030c12a4cb5c192",
	"INC/h264":          "c464e4058bf85c8398af0e204ce59b21873d1f1112ab4ac3919a5d1dd1c07f78",
	"INC/jpeg-decode":   "1564767e8f02da150ea336cdf355f61ea8168220c1a3538d6afe7d09a58591d4",
	"INC/jpeg-encode":   "fcf5b96aedc990a0ab2e4130789dcccd03e7ffe5089c4b078b03113b6db8f5e4",
	"INC/mergesort":     "7bd583c6d57e679e82f664f45968a087263823ce86804f4dc9cfc0ef1dcfb5c3",
	"INC/mergesort-pfs": "0977858f9814ff76f9c329c3fbfdf0843d77271a25ca9517cbc8ce58bafd1688",
	"INC/mpeg2":         "b172a63bd6347c011546808018c5d1e2d303d1198849a414c0fc948d69e69621",
	"INC/mpeg2-orig":    "9c205441f31c4f235eeba09dba87c267adcf5d374613d663fbbfa1468d083848",
	"INC/mpeg2-pfs":     "0d2e5b3bad34881abbfce3628127fb19588750e7b7cb75fe9ab39e25f3df11bf",
	"INC/raytracer":     "e1dde881537b47c8fb3e52fd657be4918c6921d7f19f86b92cd739c171336530",
	"CC-P4/fir":         "4f4087dc28223b3145f0a723b9adf249560d8ad9890e8fdf8d7c6c7a40d8b1b4",
	"CC-NWA/fir":        "e12bd0792d8523c84e33e9cde733b0257cb48fa7d826b0c9d836c73217eccd80",
	"CC-SF/fir":         "052a0fbd74fe8ed28d8c237deba84074cb99ab5051eacf8a73e79a4e3e130f71",
	"CC-P4/mergesort":   "cecd480a6d68484c1aca88fab605bf2ac5ca0985b68e475ca697286528c5600c",
	"CC-NWA/mergesort":  "c05571d56cd6951d1b64ab76cf20b8f5767ef0259edeaad915ad80989b2098cf",
	"CC-SF/mergesort":   "f4f4012d00900478587c50a7d8c3ec3ca930474ed6783afcdcde18a0e91f4a51",
	"CC-P4/mpeg2-pfs":   "4dd407202f2d371ebf04ef780a12a44556d70c9c1bc1fc180381f76dadc45f54",
	"CC-NWA/mpeg2-pfs":  "24b00ccb7ac3ee26377f7d5e0873a228c525f64605a37ef7a4f77fda700abbe0",
	"CC-SF/mpeg2-pfs":   "90f8d1424d4d5c0a734fe6e09c808d6866f01a7eadd6a469fcf1c379e15a1af0",
}
