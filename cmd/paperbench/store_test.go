package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runPB invokes the CLI in-process and returns (exit, stdout, stderr).
func runPB(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestStoreFlagValidation pins the -store flag contract at the CLI.
func TestStoreFlagValidation(t *testing.T) {
	if code, _, errs := func() (int, string, string) {
		return runPB(t, "-store-max-bytes", "1024")
	}(); code != 2 || !strings.Contains(errs, "-store-max-bytes requires -store") {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
	if code, _, errs := runPB(t, "-store", t.TempDir(), "-store-max-bytes", "-1"); code != 2 ||
		!strings.Contains(errs, "must be non-negative") {
		t.Fatalf("exit %d, stderr %q", code, errs)
	}
}

// TestStoreWarmCampaignByteIdentical: the tentpole's output contract.
// A campaign with -store prints the same bytes as one without; a second
// campaign over the same store simulates nothing and still matches.
func TestStoreWarmCampaignByteIdentical(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "small", "-only", "fig2", "-apps", "fir", "-q"}
	stored := append(append([]string{}, args...), "-store", dir)

	code, bare, errs := runPB(t, args...)
	if code != 0 {
		t.Fatalf("bare run exit %d: %s", code, errs)
	}
	code, cold, coldErrs := runPB(t, stored...)
	if code != 0 {
		t.Fatalf("cold store run exit %d: %s", code, coldErrs)
	}
	if bare != cold {
		t.Errorf("-store changed figure output:\n--- bare\n%s\n--- store\n%s", bare, cold)
	}
	if !strings.Contains(coldErrs, "store: 0 hits, 9 misses, 9 results persisted") {
		t.Fatalf("cold store summary: %s", coldErrs)
	}
	code, warm, warmErrs := runPB(t, stored...)
	if code != 0 {
		t.Fatalf("warm store run exit %d: %s", code, warmErrs)
	}
	if warm != cold {
		t.Errorf("warm store output differs:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	if !strings.Contains(warmErrs, "store: 9 hits, 0 misses") {
		t.Fatalf("warm run did not serve everything from the store: %s", warmErrs)
	}
}

// TestStoreCorruptJournalHeals: damage the store between campaigns —
// truncate one record file mid-record AND flip a byte in another — and
// the next campaign still exits 0 with byte-identical output,
// re-simulating exactly the records it could not trust.
func TestStoreCorruptJournalHeals(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scale", "small", "-only", "fig2", "-apps", "fir", "-q", "-store", dir}

	code, cold, errs := runPB(t, args...)
	if code != 0 {
		t.Fatalf("cold run exit %d: %s", code, errs)
	}
	recs := recordFiles(t, dir)
	flip, err := os.ReadFile(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	flip[len(flip)/3] ^= 0x40
	if err := os.WriteFile(recs[0], flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(recs[1], 100); err != nil {
		t.Fatal(err)
	}

	code, healed, errs := runPB(t, args...)
	if code != 0 {
		t.Fatalf("run over damaged store exit %d: %s", code, errs)
	}
	if healed != cold {
		t.Errorf("output changed after store damage:\n--- cold\n%s\n--- healed\n%s", cold, healed)
	}
	if !strings.Contains(errs, "store: 7 hits, 2 misses") {
		t.Fatalf("damaged store should have missed exactly the two damaged records: %s", errs)
	}

	// And once healed, the next run serves everything again.
	code, warm, errs := runPB(t, args...)
	if code != 0 || warm != cold {
		t.Fatalf("store did not heal (exit %d): %s", code, errs)
	}
	if !strings.Contains(errs, "store: 9 hits, 0 misses") {
		t.Fatalf("healed store summary: %s", errs)
	}
}

// TestCrashRecoverySIGKILL is the tentpole's crash-safety proof at
// process granularity: a real campaign process is SIGKILLed mid-write,
// then a resumed campaign over the same store directory reproduces the
// figure byte-identically, simulating only the cells the crash lost.
func TestCrashRecoverySIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The campaign of CI's crash step: at the default scale its 9 jobs
	// run for about a second, so the kill lands mid-campaign.
	args := []string{"-scale", "default", "-only", "fig2", "-apps", "fir", "-q", "-j", "1", "-store", dir}

	// Reference output from an undisturbed in-process run (no store).
	code, want, errs := runPB(t, "-scale", "default", "-only", "fig2", "-apps", "fir", "-q")
	if code != 0 {
		t.Fatalf("reference run exit %d: %s", code, errs)
	}

	// Launch the victim campaign and SIGKILL it once the store holds its
	// first record file.
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), "PAPERBENCH_CHILD_ARGS="+strings.Join(args, "\x1f"))
	var childOut bytes.Buffer
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	stored := false
	for time.Now().Before(deadline) {
		if recs, _ := filepath.Glob(filepath.Join(dir, "*.rec")); len(recs) > 0 {
			stored = true
			break
		}
		time.Sleep(500 * time.Microsecond)
	}
	if !stored {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("no record file ever appeared in the store; child output:\n%s", childOut.String())
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err == nil {
		t.Fatalf("the campaign finished before the kill landed; child output:\n%s", childOut.String())
	}

	// Resume over the crashed store: byte-identical figure, at least one
	// cell recalled and at least one re-simulated, so the kill did cut
	// the campaign short.
	code, got, errs := runPB(t, args...)
	if code != 0 {
		t.Fatalf("resumed campaign exit %d: %s", code, errs)
	}
	if got != want {
		t.Errorf("resumed campaign output differs from reference:\n--- want\n%s\n--- got\n%s", want, got)
	}
	var hits, misses int
	if i := strings.Index(errs, "store: "); i < 0 {
		t.Fatalf("resumed campaign printed no store summary: %s", errs)
	} else if _, err := fmt.Sscanf(errs[i:], "store: %d hits, %d misses", &hits, &misses); err != nil {
		t.Fatalf("store summary: %v in %s", err, errs)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("resumed campaign: %d store hits, %d misses; want both > 0: %s", hits, misses, errs)
	}
}

// recordFiles lists a store directory's record files, failing the test
// when there are none.
func recordFiles(t *testing.T, dir string) []string {
	t.Helper()
	recs, err := filepath.Glob(filepath.Join(dir, "*.rec"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("no record files in %s (%v)", dir, err)
	}
	return recs
}
