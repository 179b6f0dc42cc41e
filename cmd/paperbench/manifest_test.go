package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestManifestSyncFlag: -manifest-sync needs -artifacts, and with it
// the campaign still produces a complete, byte-identical manifest.
func TestManifestSyncFlag(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-manifest-sync"}, &out, &errs); code != 2 ||
		!strings.Contains(errs.String(), "-manifest-sync requires -artifacts") {
		t.Fatalf("exit %d, stderr %s", code, errs.String())
	}

	dir := t.TempDir()
	out.Reset()
	errs.Reset()
	args := []string{"-scale", "small", "-only", "fig2", "-apps", "fir", "-q", "-artifacts", dir, "-manifest-sync"}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("synced campaign exit %d: %s", code, errs.String())
	}
	if runs, failed := countRuns(t, filepath.Join(dir, "manifest.jsonl")); runs != 9 || failed != 0 {
		t.Fatalf("synced manifest has %d runs / %d failed, want 9/0", runs, failed)
	}
}

// TestManifestWriteErrorSurfacesOnce: a dead disk prints one warning,
// not one per simulation, and still fails the campaign at close.
func TestManifestWriteErrorSurfacesOnce(t *testing.T) {
	var errs bytes.Buffer
	m, err := newManifestWriter(t.TempDir(), "small", false, &errs)
	if err != nil {
		t.Fatal(err)
	}
	m.f.Close() // every subsequent write fails, like a yanked disk
	for i := 0; i < 5; i++ {
		m.record(bench.Record{Name: "fir"})
	}
	if got := strings.Count(errs.String(), "write failed"); got != 1 {
		t.Fatalf("warning printed %d times, want once:\n%s", got, errs.String())
	}
	if err := m.close(); err == nil || !strings.Contains(err.Error(), "records failed to write") {
		t.Fatalf("close() = %v, want the sticky write failure", err)
	}
}
