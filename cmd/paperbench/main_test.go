package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
)

func TestMain(m *testing.M) {
	fault.RegisterWorkloads()
	// Child mode for the SIGKILL crash-recovery test: re-exec'ed with the
	// CLI args joined by the ASCII unit separator in the environment, run
	// the real entry point.
	if env := os.Getenv("PAPERBENCH_CHILD_ARGS"); env != "" {
		os.Exit(run(strings.Split(env, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestExitCodes pins the CLI contract: 0 success, 2 flag/config
// validation error, 3 partial grid.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		want   int
		stderr string
	}{
		{"table2 only", []string{"-only", "table2", "-q"}, 0, ""},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2, "flag provided but not defined"},
		{"bad scale", []string{"-scale", "huge"}, 2, "unknown scale"},
		{"negative flightrec", []string{"-flightrec", "-1"}, 2, "-flightrec must be non-negative"},
		{"negative timeout", []string{"-job-timeout", "-5s"}, 2, "-job-timeout must be non-negative"},
		{"resume without artifacts", []string{"-resume"}, 2, "-resume requires -artifacts"},
		{"resume with store", []string{"-resume", "-artifacts", "a", "-store", "s"}, 2, "cannot be combined with -store"},
		{"unknown app", []string{"-only", "fig2", "-apps", "nope"}, 2, "unknown workload"},
		{"unknown figure", []string{"-only", "fig11"}, 2, `unknown name "fig11" (have [table2 table3 fig2`},
		{"one unknown name of two", []string{"-only", "fig2,figure3"}, 2, `unknown name "figure3"`},
		{"partial grid", []string{"-scale", "small", "-only", "fig2", "-apps", fault.Panic, "-q"},
			3, "# paperbench: partial results: 1 ok / 8 failed"},
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

// countRuns tallies manifest.jsonl records: fresh simulations and how
// many of them failed.
func countRuns(t *testing.T, path string) (runs, failed int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	for sc.Scan() {
		var rec struct {
			Kind string `json:"kind"`
			Err  string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad manifest line %q: %v", sc.Text(), err)
		}
		if rec.Kind != "run" {
			continue
		}
		runs++
		if rec.Err != "" {
			failed++
		}
	}
	return runs, failed
}

// TestPartialGridRendersErrCells proves graceful degradation at the CLI:
// a grid with injected panics still prints the figure, marks the dead
// cells ERR, and records the failures in the manifest with their kind
// and engine state.
func TestPartialGridRendersErrCells(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-scale", "small", "-only", "fig2", "-apps", fault.Panic, "-q", "-artifacts", dir}, &stdout, &stderr)
	if code != 3 {
		t.Fatalf("exit = %d, want 3 (stderr: %s)", code, stderr.String())
	}
	text := stdout.String()
	if !strings.Contains(text, "ERR") {
		t.Fatal("stdout has no ERR cells")
	}
	if !strings.Contains(text, "# Figure 2: 1 ok / 8 failed") {
		t.Fatalf("missing grid summary in stdout:\n%s", text)
	}
	runs, failed := countRuns(t, filepath.Join(dir, "manifest.jsonl"))
	if runs != 9 || failed != 8 {
		t.Fatalf("manifest has %d runs / %d failed, want 9/8", runs, failed)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"error_kind":"panic"`) {
		t.Fatal("manifest records lack the typed error kind")
	}
	if !strings.Contains(string(raw), `"engine_state"`) {
		t.Fatal("failed records lack the engine-state dump")
	}
}

// TestResumeSkipsCompletedAndRerunsFailed proves resume end to end: a
// second invocation recalls the completed baseline from DIR/store and
// re-simulates only the failed cells, with byte-identical stdout.
func TestResumeSkipsCompletedAndRerunsFailed(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "small", "-only", "fig2", "-apps", fault.Panic, "-q", "-artifacts", dir}
	var out1, err1 bytes.Buffer
	if code := run(args, &out1, &err1); code != 3 {
		t.Fatalf("first run exit = %d, want 3 (stderr: %s)", code, err1.String())
	}
	var out2, err2 bytes.Buffer
	if code := run(append(args, "-resume"), &out2, &err2); code != 3 {
		t.Fatalf("resumed run exit = %d, want 3 (stderr: %s)", code, err2.String())
	}
	if !strings.Contains(err2.String(), "store: 1 hits, 8 misses") {
		t.Fatalf("resume did not recall exactly the completed baseline: %s", err2.String())
	}
	// The manifest is rewritten per invocation: it lists only the 8
	// failed cells the resumed campaign re-ran.
	runs, failed := countRuns(t, filepath.Join(dir, "manifest.jsonl"))
	if runs != 8 || failed != 8 {
		t.Fatalf("manifest has %d runs / %d failed after resume, want 8/8", runs, failed)
	}
	if out1.String() != out2.String() {
		t.Fatalf("resumed stdout differs:\n--- first\n%s\n--- resumed\n%s", out1.String(), out2.String())
	}
}

// cleanFig2 runs the fir fig2 grid into dir with extra flags and
// returns its stdout and stderr.
func cleanFig2(t *testing.T, dir string, extra ...string) (string, string) {
	t.Helper()
	var out, errs bytes.Buffer
	args := append([]string{"-scale", "small", "-only", "fig2", "-apps", "fir", "-q", "-artifacts", dir}, extra...)
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("run(%v) exit %d: %s", args, code, errs.String())
	}
	return out.String(), errs.String()
}

// TestResumeOfCleanCampaignSimulatesNothing: with every job in
// DIR/store, the resumed run is pure recall — zero fresh simulations,
// exit 0, byte-identical stdout.
func TestResumeOfCleanCampaignSimulatesNothing(t *testing.T) {
	dir := t.TempDir()
	out1, _ := cleanFig2(t, dir)
	if runs, _ := countRuns(t, filepath.Join(dir, "manifest.jsonl")); runs != 9 {
		t.Fatalf("first campaign ran %d jobs, want 9", runs)
	}
	out2, errs := cleanFig2(t, dir, "-resume")
	if runs, _ := countRuns(t, filepath.Join(dir, "manifest.jsonl")); runs != 0 {
		t.Fatalf("resume simulated %d fresh jobs, want 0", runs)
	}
	if !strings.Contains(errs, "store: 9 hits, 0 misses") {
		t.Fatalf("resume did not recall all 9 jobs: %s", errs)
	}
	if out1 != out2 {
		t.Fatalf("resumed stdout differs from the original campaign")
	}
}

// TestResumeToleratesTornStoreTail: a record file in DIR/store that
// lost its tail (Put's rename never leaves one, but a damaged disk can)
// is deleted on resume with a one-line note, that one job simulates
// again, and the output is byte-identical.
func TestResumeToleratesTornStoreTail(t *testing.T) {
	dir := t.TempDir()
	want, _ := cleanFig2(t, dir)

	rec := recordFiles(t, filepath.Join(dir, "store"))[0]
	fi, err := os.Stat(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(rec, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	got, errs := cleanFig2(t, dir, "-resume")
	if !strings.Contains(errs, filepath.Base(rec)+": checksum mismatch; deleted") {
		t.Fatalf("no note on the torn record: %s", errs)
	}
	if !strings.Contains(errs, "store: 8 hits, 1 misses") {
		t.Fatalf("resume did not re-simulate exactly the torn record: %s", errs)
	}
	if runs, failed := countRuns(t, filepath.Join(dir, "manifest.jsonl")); runs != 1 || failed != 0 {
		t.Fatalf("manifest has %d runs / %d failed, want 1/0", runs, failed)
	}
	if got != want {
		t.Errorf("resumed output differs:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestRerunWithoutResumeStartsFresh: a campaign into an existing
// artifacts directory without -resume empties DIR/store first and
// simulates the whole grid again.
func TestRerunWithoutResumeStartsFresh(t *testing.T) {
	dir := t.TempDir()
	out1, _ := cleanFig2(t, dir)
	out2, errs := cleanFig2(t, dir)
	if runs, _ := countRuns(t, filepath.Join(dir, "manifest.jsonl")); runs != 9 {
		t.Fatalf("rerun simulated %d jobs, want all 9", runs)
	}
	if !strings.Contains(errs, "store: 0 hits, 9 misses") {
		t.Fatalf("rerun recalled results it should have discarded: %s", errs)
	}
	if out1 != out2 {
		t.Fatalf("rerun stdout differs from the original campaign")
	}
}

// TestResumeAtAnotherScaleSimulatesAfresh: resuming a small-scale
// campaign's artifacts directory at default scale recalls nothing and
// prints what a fresh default-scale campaign prints.
func TestResumeAtAnotherScaleSimulatesAfresh(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale fig2 campaigns")
	}
	dir := t.TempDir()
	fig2 := []string{"-only", "fig2", "-apps", "fir", "-q"}
	code, small, errs := runPB(t, append(fig2, "-scale", "small", "-artifacts", dir)...)
	if code != 0 {
		t.Fatalf("small campaign exit %d: %s", code, errs)
	}
	code, fresh, errs := runPB(t, append(fig2, "-scale", "default")...)
	if code != 0 {
		t.Fatalf("fresh default campaign exit %d: %s", code, errs)
	}
	if small == fresh {
		t.Fatal("small and default Figure 2 are identical; the test cannot tell them apart")
	}
	code, resumed, errs := runPB(t, append(fig2, "-scale", "default", "-artifacts", dir, "-resume")...)
	if code != 0 {
		t.Fatalf("resumed default campaign exit %d: %s", code, errs)
	}
	if !strings.Contains(errs, "store: 0 hits, 9 misses") {
		t.Fatalf("default-scale resume recalled small-scale results: %s", errs)
	}
	if resumed != fresh {
		t.Fatalf("resumed default Figure 2 differs from a fresh run:\n--- fresh\n%s\n--- resumed\n%s", fresh, resumed)
	}
}
