package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func openStore(t *testing.T, dir, version string) *resultstore.Store {
	t.Helper()
	s, err := resultstore.Open(resultstore.Options{Dir: dir, Version: version})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// storedFigure renders the Figure 2 subset with an optional store
// attached and returns the figure bytes plus the runner for counters.
func storedFigure(t *testing.T, st *resultstore.Store) ([]byte, *Runner) {
	t.Helper()
	r := NewRunner(workload.ScaleSmall)
	r.Workers = 4
	r.Store = st
	var out bytes.Buffer
	if _, err := r.Figure2(&out, []string{"fir", "depth"}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	return out.Bytes(), r
}

// TestStoreRoundTripByteIdentical is the core promise of -store: a
// first campaign populates the store, a second one answers everything
// from it, and the figure bytes are identical in all three worlds —
// no store, cold store, warm store.
func TestStoreRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	bare, _ := storedFigure(t, nil)

	// One store is open per campaign: the directory lock admits a single
	// process/instance at a time, so each campaign closes before the next.
	st1 := openStore(t, dir, "v1")
	cold, r1 := storedFigure(t, st1)
	st1.Close()
	if !bytes.Equal(bare, cold) {
		t.Fatal("attaching an empty store changed figure output")
	}
	ok1, _ := r1.Outcome()
	if ok1 == 0 || r1.StoreHits() != 0 {
		t.Fatalf("cold run: ok=%d storeHits=%d", ok1, r1.StoreHits())
	}

	warm, r2 := storedFigure(t, openStore(t, dir, "v1"))
	if !bytes.Equal(bare, warm) {
		t.Fatal("store-served figure differs from fresh simulation")
	}
	ok2, fail2 := r2.Outcome()
	if ok2 != 0 || fail2 != 0 {
		t.Fatalf("warm run simulated %d/%d jobs fresh; all should be store hits", ok2, fail2)
	}
	if r2.StoreHits() != ok1 {
		t.Fatalf("warm run store hits = %d, want %d (every cold simulation)", r2.StoreHits(), ok1)
	}
}

// TestStoreVersionMismatchResimulates: a store written by another code
// version answers nothing — every job re-simulates and the output is
// still correct.
func TestStoreVersionMismatchResimulates(t *testing.T) {
	dir := t.TempDir()
	bare, _ := storedFigure(t, nil)
	st1 := openStore(t, dir, "v1")
	_, r1 := storedFigure(t, st1)
	st1.Close()
	ok1, _ := r1.Outcome()

	out, r2 := storedFigure(t, openStore(t, dir, "v2"))
	if !bytes.Equal(bare, out) {
		t.Fatal("version-mismatched store perturbed output")
	}
	ok2, _ := r2.Outcome()
	if ok2 != ok1 || r2.StoreHits() != 0 {
		t.Fatalf("stale store: ok=%d (want %d) hits=%d (want 0)", ok2, ok1, r2.StoreHits())
	}
}

// TestStoreCorruptRecordResimulates: smashing the journal mid-file
// costs the smashed records a re-simulation, never wrong output.
func TestStoreCorruptRecordResimulates(t *testing.T) {
	dir := t.TempDir()
	bare, _ := storedFigure(t, nil)
	st1 := openStore(t, dir, "v1")
	_, _ = storedFigure(t, st1)
	st1.Close()

	path := filepath.Join(dir, "store.journal")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(journal) / 3; i < len(journal)/2; i++ {
		journal[i] ^= 0xff
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir, "v1")
	out, r := storedFigure(t, st)
	if !bytes.Equal(bare, out) {
		t.Fatal("corrupted store perturbed output")
	}
	ok, fail := r.Outcome()
	if fail != 0 || ok == 0 {
		t.Fatalf("corruption should force some re-simulation: ok=%d fail=%d", ok, fail)
	}
	if r.StoreHits()+ok < 3 {
		t.Fatalf("hits=%d + fresh=%d lost jobs", r.StoreHits(), ok)
	}
}

// TestStoreHitsFeedTelemetryConsistently is the Outcome/store-hit
// counting contract: store-hit, memo-hit and fresh jobs must all
// satisfy the span-conservation invariant, roll up per figure, and
// leave the ETA to real simulations only.
func TestStoreHitsFeedTelemetryConsistently(t *testing.T) {
	dir := t.TempDir()

	// Campaign 1: populate the store with one job's result.
	pre := NewRunner(workload.ScaleSmall)
	pre.Store = openStore(t, dir, "v1")
	hitCfg := core.DefaultConfig(core.CC, 2)
	hitRep, err := pre.Run(hitCfg, "fir")
	if err != nil {
		t.Fatal(err)
	}
	pre.Close()
	if err := pre.Store.Close(); err != nil {
		t.Fatal(err)
	}

	// Campaign 2: one store hit, one fresh simulation, plus a memo-hit
	// duplicate of each.
	st := openStore(t, dir, "v1")
	c := telemetry.NewCampaign()
	c.SetStoreStats(st.Stats)
	r := NewRunner(workload.ScaleSmall)
	r.Store = st
	r.Telemetry = c
	c.BeginGroup("fig2")
	freshCfg := core.DefaultConfig(core.STR, 2)
	for _, job := range []Job{{hitCfg, "fir"}, {freshCfg, "fir"}} {
		for i := 0; i < 2; i++ { // second pass = memo hit
			rep, err := r.Run(job.Cfg, job.Name)
			if err != nil {
				t.Fatal(err)
			}
			if rep == nil {
				t.Fatal("nil report")
			}
		}
	}
	r.Close()

	gotHit, _ := r.Run(hitCfg, "fir")
	wantB, _ := json.Marshal(hitRep)
	gotB, _ := json.Marshal(gotHit)
	if !bytes.Equal(wantB, gotB) {
		t.Fatalf("store-served report differs:\n%s\n%s", wantB, gotB)
	}

	ok, fail := r.Outcome()
	if ok != 1 || fail != 0 {
		t.Fatalf("Outcome = (%d,%d), want (1,0): only freshCfg simulates", ok, fail)
	}
	if r.StoreHits() != 1 {
		t.Fatalf("StoreHits = %d, want 1", r.StoreHits())
	}

	s := c.Snapshot(true)
	if s.Enqueued != s.Queued+s.Running+s.Retrying+s.Done+s.Failed+s.StoreSpan {
		t.Fatalf("span conservation broken: %+v", s)
	}
	if s.Enqueued != 2 || s.StoreSpan != 1 || s.Done != 1 {
		t.Fatalf("span states: enq=%d store=%d done=%d, want 2/1/1", s.Enqueued, s.StoreSpan, s.Done)
	}
	if s.MemoHits < 2 {
		t.Fatalf("memo hits = %d, want >= 2 (the duplicate passes)", s.MemoHits)
	}
	if s.ETASeconds != 0 {
		t.Fatalf("ETA = %v, want 0 with nothing remaining", s.ETASeconds)
	}
	if s.Store == nil || s.Store.Hits != 1 || s.Store.Misses != 1 {
		t.Fatalf("store stats block: %+v", s.Store)
	}
	if len(s.Figures) != 1 || s.Figures[0].StoreHits != 1 || s.Figures[0].Done != 1 || s.Figures[0].Total != 2 {
		t.Fatalf("figure rollup: %+v", s.Figures)
	}

	var spanStates []string
	for _, sp := range s.Spans {
		spanStates = append(spanStates, sp.State)
	}
	if joined := strings.Join(spanStates, ","); joined != "store-hit,done" {
		t.Fatalf("span states = %s, want store-hit,done", joined)
	}
}

// TestStoreProgressLineMarksHits: the progress stream distinguishes
// recalled results from fresh simulations.
func TestStoreProgressLineMarksHits(t *testing.T) {
	dir := t.TempDir()
	pre := NewRunner(workload.ScaleSmall)
	pre.Store = openStore(t, dir, "v1")
	cfg := core.DefaultConfig(core.CC, 2)
	if _, err := pre.Run(cfg, "fir"); err != nil {
		t.Fatal(err)
	}
	pre.Close()
	pre.Store.Close()

	var prog bytes.Buffer
	r := NewRunner(workload.ScaleSmall)
	r.Store = openStore(t, dir, "v1")
	r.Progress = &prog
	if _, err := r.Run(cfg, "fir"); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !strings.Contains(prog.String(), "(store)") {
		t.Fatalf("progress line not marked: %q", prog.String())
	}
}

// TestStoreScaleMismatchMisses is the cross-scale poisoning guard at
// the Runner level: a store populated by a small-scale campaign keys
// its records under that scale, so a campaign at any other -scale
// misses and re-simulates instead of being served small-scale reports.
func TestStoreScaleMismatchMisses(t *testing.T) {
	dir := t.TempDir()
	pre := NewRunner(workload.ScaleSmall)
	pre.Store = openStore(t, dir, "v1")
	cfg := core.DefaultConfig(core.CC, 2)
	if _, err := pre.Run(cfg, "fir"); err != nil {
		t.Fatal(err)
	}
	pre.Close()
	if err := pre.Store.Close(); err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir, "v1")
	if _, ok := st.Get(cfg, "fir", workload.ScaleSmall.String()); !ok {
		t.Fatal("runner did not key the stored record under its own scale")
	}
	for _, other := range []workload.Scale{workload.ScaleDefault, workload.ScalePaper} {
		if _, ok := st.Get(cfg, "fir", other.String()); ok {
			t.Fatalf("small-scale record served at %v scale", other)
		}
	}
}
