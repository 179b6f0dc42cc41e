package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	memsys "repro"
	"repro/internal/fault"
)

func TestCCOnlyFlags(t *testing.T) {
	cases := []struct {
		model   memsys.Model
		pf      int
		nwa     bool
		filter  bool
		wantErr string
	}{
		{memsys.CC, 4, true, true, ""},
		{memsys.STR, 0, false, false, ""},
		{memsys.INC, 0, false, false, ""},
		{memsys.STR, 4, false, false, "-pf"},
		{memsys.STR, 0, true, false, "-nwa"},
		{memsys.INC, 0, false, true, "-snoopfilter"},
		{memsys.STR, 4, true, true, "-pf, -nwa, -snoopfilter"},
	}
	for _, tc := range cases {
		err := ccOnlyFlags(tc.model, tc.pf, tc.nwa, tc.filter)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%v/pf=%d: unexpected error %v", tc.model, tc.pf, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v/pf=%d nwa=%v filter=%v: err = %v, want mention of %q",
				tc.model, tc.pf, tc.nwa, tc.filter, err, tc.wantErr)
		}
	}
}

// TestExitCodes pins the CLI contract: 0 success, 1 runtime/simulation
// failure, 2 flag or configuration validation error.
func TestExitCodes(t *testing.T) {
	fault.RegisterWorkloads()
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"list", []string{"-list"}, 0, ""},
		{"run ok", []string{"-w", "fir", "-cores", "2", "-scale", "small"}, 0, ""},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, "flag provided but not defined"},
		{"bad model", []string{"-model", "zzz"}, 2, "unknown model"},
		{"bad scale", []string{"-scale", "huge"}, 2, "unknown scale"},
		{"unknown workload", []string{"-w", "nope"}, 2, "unknown workload"},
		{"cc-only flag", []string{"-w", "fir", "-model", "str", "-pf", "4"},
			2, "-pf only applies to -model cc (got -model str)"},
		{"all cc-only flags", []string{"-w", "fir", "-model", "str", "-pf", "4", "-nwa", "-snoopfilter"},
			2, "-pf, -nwa, -snoopfilter only applies to -model cc (got -model str)"},
		{"bad cores", []string{"-w", "fir", "-cores", "65"}, 2, "-cores must be in 1..64 (got 65)"},
		{"sample-csv without sample", []string{"-w", "fir", "-sample-csv", "/tmp/x.csv"},
			2, "-sample-csv requires -sample"},
		{"latency-csv without breakdown", []string{"-w", "fir", "-latency-csv", "/tmp/x.csv"},
			2, "-latency-csv requires -breakdown"},
		{"breakdown ok", []string{"-w", "fir", "-cores", "2", "-breakdown"}, 0, ""},
		{"verify failure", []string{"-w", fault.BadVerify, "-cores", "2"}, 1, "checksum mismatch"},
		{"deadlock", []string{"-w", fault.Deadlock, "-cores", "4"}, 1, "deadlock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Fatalf("run(%v) stderr %q, want mention of %q", tc.args, stderr.String(), tc.stderr)
			}
		})
	}
}

// TestBreakdownOutput checks the -breakdown tables render the ledger
// classes and latency metrics, and that conservation shows up as shares
// summing to ~100%.
func TestBreakdownOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-w", "fir", "-model", "str", "-cores", "2", "-breakdown"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d (stderr: %s)", got, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"cycle accounting", "compute", "dma_wait", "idle", "latency distributions", "dma_get", "noc_acquire"} {
		if !strings.Contains(out, want) {
			t.Errorf("-breakdown output missing %q:\n%s", want, out)
		}
	}
}

func TestHeadlineSeriesMerge(t *testing.T) {
	pr := memsys.NewProbe(100 * 1000 * 1000 * 1000) // 100ns
	cfg := memsys.DefaultConfig(memsys.STR, 2)
	cfg.Probe = pr
	tr := memsys.NewTrace()
	cfg.Trace = tr
	if _, err := memsys.Run(cfg, "fir", memsys.ScaleSmall); err != nil {
		t.Fatal(err)
	}
	mergeProbeCounters(tr, pr)
	if len(tr.Counters()) == 0 {
		t.Fatal("no counter samples merged into trace")
	}
	seen := map[string]bool{}
	for _, c := range tr.Counters() {
		seen[c.Name] = true
	}
	for _, want := range []string{"dram.read_bytes", "cpu.instructions", "dma.get_bytes"} {
		if !seen[want] {
			t.Errorf("counter track %q missing; have %v", want, seen)
		}
	}
	if seen["coher.c2c_cluster"] {
		t.Error("CC-only series merged on an STR run")
	}
}

// TestFlightTailOnTypedFailure pins the stderr rendering of the flight
// recorder: a deadlock run prints the scheduler-event tail that led
// there, and -flightrec 0 turns it off.
func TestFlightTailOnTypedFailure(t *testing.T) {
	fault.RegisterWorkloads()
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-w", fault.Deadlock, "-cores", "4"}, &stdout, &stderr); got != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", got, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "flight recorder: last ") {
		t.Fatalf("no flight-recorder tail on deadlock stderr:\n%s", out)
	}
	if !strings.Contains(out, "block") {
		t.Fatalf("tail lacks the blocking events that formed the deadlock:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if got := run([]string{"-w", fault.Deadlock, "-cores", "4", "-flightrec", "0"}, &stdout, &stderr); got != 1 {
		t.Fatalf("run = %d, want 1", got)
	}
	if strings.Contains(stderr.String(), "flight recorder") {
		t.Fatalf("-flightrec 0 still printed a tail:\n%s", stderr.String())
	}
}

// TestMemsimHTTP serves one run's telemetry: the span must reach done
// and the contract metric must report it.
func TestMemsimHTTP(t *testing.T) {
	var stdout, stderr bytes.Buffer
	got := run([]string{"-w", "fir", "-cores", "2", "-scale", "small", "-http", "127.0.0.1:0"}, &stdout, &stderr)
	if got != 0 {
		t.Fatalf("run = %d (stderr: %s)", got, stderr.String())
	}
	if !strings.Contains(stderr.String(), "memsim: telemetry on http://") {
		t.Fatalf("no serving line on stderr: %q", stderr.String())
	}
	// Flag validation for the linger/addr pairing.
	if got := run([]string{"-w", "fir", "-http-linger", "5s"}, &stdout, &stderr); got != 2 {
		t.Fatalf("-http-linger without -http: exit %d, want 2", got)
	}
	if got := run([]string{"-w", "fir", "-flightrec", "-1"}, &stdout, &stderr); got != 2 {
		t.Fatalf("-flightrec -1: exit %d, want 2", got)
	}
}

// TestStoreWarmRunByteIdentical: with -store, a second identical run is
// served from the store and prints byte-identical output; the output
// also matches a run with no store at all.
func TestStoreWarmRunByteIdentical(t *testing.T) {
	fault.RegisterWorkloads()
	dir := t.TempDir()
	args := []string{"-w", "fir", "-cores", "2", "-scale", "small", "-v"}
	withStore := append(append([]string{}, args...), "-store", dir)

	var bare, cold, warm bytes.Buffer
	var coldErr, warmErr bytes.Buffer
	if code := run(args, &bare, &coldErr); code != 0 {
		t.Fatalf("bare run exited %d: %s", code, coldErr.String())
	}
	coldErr.Reset()
	if code := run(withStore, &cold, &coldErr); code != 0 {
		t.Fatalf("cold store run exited %d: %s", code, coldErr.String())
	}
	if code := run(withStore, &warm, &warmErr); code != 0 {
		t.Fatalf("warm store run exited %d: %s", code, warmErr.String())
	}
	if !strings.Contains(warmErr.String(), "served from store") {
		t.Fatalf("warm run did not hit the store: %s", warmErr.String())
	}
	if strings.Contains(coldErr.String(), "served from store") {
		t.Fatalf("cold run claims a store hit: %s", coldErr.String())
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("warm store output differs from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}
	if !bytes.Equal(bare.Bytes(), cold.Bytes()) {
		t.Errorf("-store changed the output:\nbare:\n%s\nstore:\n%s", bare.String(), cold.String())
	}
}

// TestStoreJSONWarmRun: the JSON printing path is byte-identical too.
func TestStoreJSONWarmRun(t *testing.T) {
	fault.RegisterWorkloads()
	dir := t.TempDir()
	args := []string{"-w", "fir", "-cores", "2", "-scale", "small", "-json", "-store", dir}
	var cold, warm, errs bytes.Buffer
	if code := run(args, &cold, &errs); code != 0 {
		t.Fatalf("cold run exited %d: %s", code, errs.String())
	}
	if code := run(args, &warm, &errs); code != 0 {
		t.Fatalf("warm run exited %d: %s", code, errs.String())
	}
	if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
		t.Errorf("JSON output differs between cold and warm store runs:\n%s\n---\n%s", cold.String(), warm.String())
	}
}

// TestStoreFlagValidation pins the -store flag contract.
func TestStoreFlagValidation(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-w", "fir", "-store-max-bytes", "1024"}, &out, &errs); code != 2 {
		t.Fatalf("-store-max-bytes without -store exited %d", code)
	}
	if !strings.Contains(errs.String(), "-store-max-bytes requires -store") {
		t.Fatalf("stderr: %s", errs.String())
	}
	errs.Reset()
	if code := run([]string{"-w", "fir", "-store", t.TempDir(), "-store-max-bytes", "-1"}, &out, &errs); code != 2 {
		t.Fatalf("negative -store-max-bytes exited %d", code)
	}
	if !strings.Contains(errs.String(), "must be non-negative") {
		t.Fatalf("stderr: %s", errs.String())
	}
}

// TestStoreTraceRunAlwaysSimulates: artifact-collecting runs skip the
// store probe (a hit could not produce the trace) but still persist, so
// a later plain run hits.
func TestStoreTraceRunAlwaysSimulates(t *testing.T) {
	fault.RegisterWorkloads()
	dir := t.TempDir()
	traceFile := dir + "/t.json"
	plain := []string{"-w", "fir", "-cores", "2", "-scale", "small", "-store", dir}
	traced := append(append([]string{}, plain...), "-trace", traceFile)

	var out, errs bytes.Buffer
	if code := run(plain, &out, &errs); code != 0 {
		t.Fatalf("seed run exited %d: %s", code, errs.String())
	}
	errs.Reset()
	if code := run(traced, &out, &errs); code != 0 {
		t.Fatalf("traced run exited %d: %s", code, errs.String())
	}
	if strings.Contains(errs.String(), "served from store") {
		t.Fatal("traced run was served from the store; its trace would be empty")
	}
	errs.Reset()
	if code := run(plain, &out, &errs); code != 0 {
		t.Fatalf("warm run exited %d: %s", code, errs.String())
	}
	if !strings.Contains(errs.String(), "served from store") {
		t.Fatalf("plain rerun missed after traced run persisted: %s", errs.String())
	}
}

// TestTxnFlagValidation pins the -txn-sample/-txn-seed pairing rule.
func TestTxnFlagValidation(t *testing.T) {
	var out, errs bytes.Buffer
	for _, args := range [][]string{
		{"-w", "fir", "-txn-sample", "8"},
		{"-w", "fir", "-txn-seed", "3"},
	} {
		errs.Reset()
		if code := run(args, &out, &errs); code != 2 {
			t.Fatalf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errs.String(), "-txn-sample/-txn-seed require -txn-trace or -explain-tail") {
			t.Fatalf("stderr: %s", errs.String())
		}
	}
	// Paired with an enabling flag they are accepted.
	if code := run([]string{"-w", "fir", "-cores", "2", "-scale", "small",
		"-explain-tail", "-txn-sample", "64", "-txn-seed", "3"}, &out, &errs); code != 0 {
		t.Fatalf("valid -txn-sample run exited %d: %s", code, errs.String())
	}
}

// TestExplainTailDeterministic is the CLI acceptance check: the
// acceptance workload (fir, CC, 8 cores) prints a worst-K read-miss
// table whose trees are identical across two runs at the same seed,
// and the report portion is byte-identical to an untraced run.
func TestExplainTailDeterministic(t *testing.T) {
	args := []string{"-w", "fir", "-model", "cc", "-cores", "8", "-scale", "small",
		"-explain-tail", "-txn-sample", "64", "-txn-seed", "7"}
	var a, b, plain, errs bytes.Buffer
	if code := run(args, &a, &errs); code != 0 {
		t.Fatalf("first run exited %d: %s", code, errs.String())
	}
	if code := run(args, &b, &errs); code != 0 {
		t.Fatalf("second run exited %d: %s", code, errs.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("-explain-tail output differs between two same-seed runs")
	}
	for _, want := range []string{"worst-", "read_miss exemplars", "= total", "cyc"} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("-explain-tail output missing %q:\n%s", want, a.String())
		}
	}
	if code := run([]string{"-w", "fir", "-model", "cc", "-cores", "8", "-scale", "small"}, &plain, &errs); code != 0 {
		t.Fatalf("plain run exited %d: %s", code, errs.String())
	}
	if !bytes.HasPrefix(a.Bytes(), plain.Bytes()) {
		t.Fatal("traced run's report prefix differs from the untraced report")
	}
}

// TestTxnTraceSinkAndMerge: -txn-trace writes the JSONL sink and a
// combined -trace file gains the transaction flow events.
func TestTxnTraceSinkAndMerge(t *testing.T) {
	dir := t.TempDir()
	jsonl := dir + "/txn.jsonl"
	chrome := dir + "/trace.json"
	var out, errs bytes.Buffer
	code := run([]string{"-w", "fir", "-cores", "2", "-scale", "small",
		"-txn-trace", jsonl, "-trace", chrome}, &out, &errs)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, errs.String())
	}
	if !strings.Contains(out.String(), "txn-trace: ") {
		t.Fatalf("no txn-trace summary line:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"class":"read_miss"`)) {
		t.Fatalf("JSONL sink has no read_miss tree: %.200s", raw)
	}
	tj, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, "txn.dram"} {
		if !bytes.Contains(tj, []byte(want)) {
			t.Fatalf("merged Chrome trace missing %q", want)
		}
	}
}

// TestStoreExplainTailAlwaysSimulates: like -trace, a txn-tracing run
// must skip the store probe (a stored report cannot yield trees).
func TestStoreExplainTailAlwaysSimulates(t *testing.T) {
	dir := t.TempDir()
	plain := []string{"-w", "fir", "-cores", "2", "-scale", "small", "-store", dir}
	var out, errs bytes.Buffer
	if code := run(plain, &out, &errs); code != 0 {
		t.Fatalf("seed run exited %d: %s", code, errs.String())
	}
	errs.Reset()
	traced := append(append([]string{}, plain...), "-explain-tail")
	if code := run(traced, &out, &errs); code != 0 {
		t.Fatalf("traced run exited %d: %s", code, errs.String())
	}
	if strings.Contains(errs.String(), "served from store") {
		t.Fatal("-explain-tail run was served from the store; its trees would be empty")
	}
}

// TestArtifactWriteFailureExits1: an artifact the disk refuses is a
// runtime failure, not a file reported as written.
func TestArtifactWriteFailureExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	var out, errs bytes.Buffer
	args := []string{"-w", "fir", "-cores", "2", "-breakdown", "-latency-csv", "/dev/full"}
	if code := run(args, &out, &errs); code != 1 {
		t.Fatalf("run(%v) = %d, want 1 (stderr: %s)", args, code, errs.String())
	}
	if strings.Contains(out.String(), "written to") {
		t.Fatalf("stdout reports the refused file as written:\n%s", out.String())
	}
}
