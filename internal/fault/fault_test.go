// End-to-end robustness proof: every injected fault must come back from
// the run layer as a structured, typed failure — never a crashed
// process, a hung pool or a silently wrong figure. The suite runs under
// the race detector in CI (make fault).
package fault_test

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/resultstore"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func TestMain(m *testing.M) {
	fault.RegisterWorkloads()
	m.Run()
}

// recorder collects Records concurrency-safely.
type recorder struct {
	mu   sync.Mutex
	recs []bench.Record
}

func (c *recorder) add(r bench.Record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, r)
}

// newRunner returns a two-worker Runner with campaign telemetry
// attached, so tests can read each job's span.
func newRunner(rec *recorder) *bench.Runner {
	r := bench.NewRunner(workload.ScaleSmall)
	r.Workers = 2
	r.Telemetry = telemetry.NewCampaign()
	if rec != nil {
		r.OnRecord = rec.add
	}
	return r
}

// ranOnce checks that the Runner's one job failed as kind and ran
// exactly once: one Record carrying the kind, and one span that went
// queued → running → failed.
func ranOnce(t *testing.T, r *bench.Runner, rec *recorder, kind bench.ErrKind) {
	t.Helper()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.recs) != 1 || rec.recs[0].ErrKind != string(kind) {
		t.Fatalf("records = %+v, want exactly one %s record", rec.recs, kind)
	}
	s := r.Telemetry.Snapshot(true)
	if s.Enqueued != 1 || s.Failed != 1 || len(s.Spans) != 1 {
		t.Fatalf("snapshot = %+v, want one span, failed", s)
	}
	if sp := s.Spans[0]; sp.State != "failed" || sp.ErrKind != string(kind) || sp.StartedNS == 0 || sp.EndedNS < sp.StartedNS {
		t.Fatalf("span = %+v, want queued → running → failed (%s)", sp, kind)
	}
}

// TestDeadlockProducesTypedRecord injects a synchronization deadlock and
// checks the whole failure path: typed JobError, engine-state snapshot
// naming the contended lock, and one manifest record carrying both.
func TestDeadlockProducesTypedRecord(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	rep, err := r.Run(core.DefaultConfig(core.CC, 4), fault.Deadlock)
	if rep != nil || err == nil {
		t.Fatalf("rep=%v err=%v, want typed failure", rep, err)
	}
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrDeadlock {
		t.Fatalf("kind = %q, want deadlock", jerr.Kind)
	}
	if jerr.State == nil || len(jerr.State.Tasks) == 0 {
		t.Fatalf("deadlock JobError carries no engine state: %+v", jerr)
	}
	if len(jerr.State.Recent) == 0 || jerr.State.EventsRecorded == 0 {
		t.Fatalf("deadlock state has no flight-recorder tail: %+v", jerr.State)
	}
	for _, ev := range jerr.State.Recent {
		if ev.Kind == "" || ev.Task == "" {
			t.Fatalf("flight event missing kind or task name: %+v", ev)
		}
	}
	if !strings.Contains(jerr.Error(), "awaiting lock fault.poison") {
		t.Fatalf("error %q does not name the contended lock", jerr.Error())
	}
	ranOnce(t, r, rec, bench.ErrDeadlock)
	if rec.recs[0].EngineState == nil {
		t.Fatalf("record = %+v, want deadlock kind with engine state", rec.recs[0])
	}
}

// TestWatchdogAbortsStall proves the wall-clock watchdog end to end: a
// simulation that would run forever is cancelled cooperatively and
// fails, once, as a timeout with a progress dump.
func TestWatchdogAbortsStall(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	r.JobTimeout = 50 * time.Millisecond
	cfg := core.DefaultConfig(core.CC, 2)
	cfg.MaxSimTime = 0 // disable the livelock net; the watchdog must act
	_, err := r.Run(cfg, fault.Stall)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrTimeout {
		t.Fatalf("kind = %q, want timeout", jerr.Kind)
	}
	var ae *sim.AbortError
	if !errors.As(jerr.Err, &ae) {
		t.Fatalf("underlying err = %#v, want *sim.AbortError", jerr.Err)
	}
	if !strings.Contains(ae.Reason, "watchdog: job exceeded 50ms") {
		t.Fatalf("abort reason = %q", ae.Reason)
	}
	if jerr.State == nil || len(jerr.State.Tasks) == 0 || jerr.State.HeapDepth < 0 {
		t.Fatalf("timeout carries no progress dump: %+v", jerr.State)
	}
	if len(jerr.State.Recent) == 0 {
		t.Fatalf("timeout state has no flight-recorder tail: %+v", jerr.State)
	}
	ranOnce(t, r, rec, bench.ErrTimeout)
}

// TestWatchdogAbortMidDispatch is the dispatch regression at the run
// layer: with 8 cores advancing in lockstep, every Sync yields and Run
// resumes the next core's coroutine, so the watchdog's Abort lands
// between resumes. It must surface as a typed timeout record whose
// EngineState snapshot is coherent — all stalled cores accounted for,
// none stuck "running" — and whose engine metrics and flight-recorder
// tail prove the run was dispatching coroutines when it died.
func TestWatchdogAbortMidDispatch(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	r.JobTimeout = 50 * time.Millisecond
	cfg := core.DefaultConfig(core.CC, 8)
	cfg.MaxSimTime = 0 // disable the livelock net; the watchdog must act
	_, err := r.Run(cfg, fault.Stall)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrTimeout {
		t.Fatalf("kind = %q, want timeout", jerr.Kind)
	}
	var ae *sim.AbortError
	if !errors.As(jerr.Err, &ae) {
		t.Fatalf("underlying err = %#v, want *sim.AbortError", jerr.Err)
	}
	st := ae.EngineState()
	if st.Metrics.Dispatches == 0 {
		t.Fatalf("stall aborted without a single coroutine dispatch: %+v", st.Metrics)
	}
	cores := 0
	for _, ts := range st.Tasks {
		if ts.State == "running" {
			t.Fatalf("task %q snapshotted as running after abort: a dispatch was left half done (%+v)", ts.Name, st.Tasks)
		}
		if strings.HasPrefix(ts.Name, "core") {
			cores++
		}
	}
	if cores != 8 {
		t.Fatalf("snapshot accounts for %d core tasks, want 8: %+v", cores, st.Tasks)
	}
	if len(rec.recs) != 1 || rec.recs[0].ErrKind != "timeout" || rec.recs[0].EngineState == nil {
		t.Fatalf("manifest record = %+v, want one timeout record with engine state", rec.recs)
	}
	// The run was dispatching coroutines when it died, so the recorded
	// tail must say so.
	dispatches := 0
	for _, ev := range rec.recs[0].EngineState.Recent {
		if ev.Kind == "dispatch" {
			dispatches++
		}
	}
	if dispatches == 0 {
		t.Fatalf("stall recorded no dispatch events: %+v", rec.recs[0].EngineState.Recent)
	}
}

// TestLivelockNetCatchesStall is the same stall under MaxSimTime: the
// engine's own bound fires instead of the watchdog.
func TestLivelockNetCatchesStall(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	cfg := core.DefaultConfig(core.CC, 1)
	cfg.MaxSimTime = 10 * sim.Microsecond
	_, err := r.Run(cfg, fault.Stall)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) || jerr.Kind != bench.ErrLivelock {
		t.Fatalf("err = %v, want livelock JobError", err)
	}
}

// TestCorruptConfigsFailTyped proves config corruption is caught by
// validation — synchronously, once, with the corrupted field named,
// before any simulation goroutine spawns.
func TestCorruptConfigsFailTyped(t *testing.T) {
	for field, cfg := range fault.CorruptedConfigs() {
		rec := &recorder{}
		r := newRunner(rec)
		_, err := r.Run(cfg, fault.BadVerify)
		r.Close()
		var jerr *bench.JobError
		if !errors.As(err, &jerr) {
			t.Fatalf("%s: err = %#v, want *bench.JobError", field, err)
		}
		if jerr.Kind != bench.ErrConfig {
			t.Fatalf("%s: kind=%q, want config", field, jerr.Kind)
		}
		ranOnce(t, r, rec, bench.ErrConfig)
		fes := core.FieldErrors(jerr.Err)
		if len(fes) == 0 {
			t.Fatalf("%s: no field errors in %v", field, jerr.Err)
		}
		found := false
		for _, fe := range fes {
			if fe.Field == field {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: field not named in %v", field, jerr.Err)
		}
	}
}

// TestBadVerifyNotRetried: a wrong answer is deterministic, so the job
// fails typed after its one run, keeping the verification detail.
func TestBadVerifyNotRetried(t *testing.T) {
	rec := &recorder{}
	r := newRunner(rec)
	defer r.Close()
	_, err := r.Run(core.DefaultConfig(core.CC, 2), fault.BadVerify)
	var jerr *bench.JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("err = %#v, want *bench.JobError", err)
	}
	if jerr.Kind != bench.ErrVerify {
		t.Fatalf("kind=%q, want verify", jerr.Kind)
	}
	ranOnce(t, r, rec, bench.ErrVerify)
	if !strings.Contains(jerr.Error(), "checksum mismatch") {
		t.Fatalf("error %q lost the verification detail", jerr.Error())
	}
}

// TestFigureRendersWithErrCells is the graceful-degradation proof: a
// figure whose parallel runs all fail still renders — failed cells
// marked ERR, a summary line, and a typed GridError — instead of
// aborting on the first bad cell.
func TestFigureRendersWithErrCells(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	var buf bytes.Buffer
	// fault-panic succeeds on 1 core (the baseline) and panics on every
	// parallel configuration: 1 ok cell, 8 ERR cells.
	fig2 := bench.Figures[0]
	if fig2.Name != "fig2" {
		t.Fatalf("Figures[0] is %q, want fig2", fig2.Name)
	}
	panels, err := r.Render(&buf, fig2, []string{fault.Panic})
	var gerr *bench.GridError
	if !errors.As(err, &gerr) {
		t.Fatalf("err = %#v, want *bench.GridError", err)
	}
	if gerr.OK != 1 || gerr.Failed != 8 {
		t.Fatalf("grid = %d ok / %d failed, want 1/8", gerr.OK, gerr.Failed)
	}
	if len(panels) != 1 || len(panels[0].Bars) != 8 {
		t.Fatalf("got %d panels, want one with all 8 bars rendered", len(panels))
	}
	for _, b := range panels[0].Bars {
		if !b.Err {
			t.Fatalf("bar %q not marked Err", b.Label)
		}
	}
	text := buf.String()
	if !strings.Contains(text, "ERR") {
		t.Fatal("figure output has no ERR cells")
	}
	if !strings.Contains(text, "# Figure 2: 1 ok / 8 failed") {
		t.Fatalf("missing summary line in output:\n%s", text)
	}
	var jerr *bench.JobError
	if !errors.As(gerr, &jerr) || jerr.Kind != bench.ErrPanic {
		t.Fatalf("GridError does not expose per-cell JobErrors: %v", err)
	}
}

// TestSharedFailedJobCountsOnce: a failed job drawn in two panels of
// one figure (as Figure 8 draws fir's CC runs in its traffic and its
// energy panel) is one failed job in the summary, not one per cell.
func TestSharedFailedJobCountsOnce(t *testing.T) {
	r := newRunner(nil)
	defer r.Close()
	base := &bench.Job{Cfg: core.DefaultConfig(core.CC, 1), Name: fault.Panic}
	cells := []bench.Cell{{Label: "CC-2", Job: bench.Job{Cfg: core.DefaultConfig(core.CC, 2), Name: fault.Panic}}}
	f := bench.Figure{Name: "shared", Title: "Shared", Panels: func([]string) []bench.Panel {
		return []bench.Panel{
			{Name: "shared-traffic", Title: "traffic", Kind: bench.Traffic, Base: base, Cells: cells},
			{Name: "shared-energy", Title: "energy", Kind: bench.Energy, Base: base, Cells: cells},
		}
	}}
	var buf bytes.Buffer
	panels, err := r.Render(&buf, f, nil)
	var gerr *bench.GridError
	if !errors.As(err, &gerr) {
		t.Fatalf("err = %#v, want *bench.GridError", err)
	}
	if gerr.OK != 1 || gerr.Failed != 1 || len(gerr.Errs) != 1 {
		t.Fatalf("grid = %d ok / %d failed (%d errors), want 1/1 (1)", gerr.OK, gerr.Failed, len(gerr.Errs))
	}
	if !strings.Contains(buf.String(), "# Shared: 1 ok / 1 failed") {
		t.Fatalf("missing summary line in output:\n%s", buf.String())
	}
	if len(panels) != 2 || !panels[0].Bars[0].Err || !panels[1].Bars[0].Err {
		t.Fatalf("want both panels drawn with an ERR bar, got %+v", panels)
	}
}

// TestStoreHitSkipsSimulation proves resume: a result already in the
// store is a cache hit — returned as stored, no fresh simulation, no
// record, no counter change.
func TestStoreHitSkipsSimulation(t *testing.T) {
	st, err := resultstore.Open(resultstore.Options{Dir: t.TempDir(), Version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec := &recorder{}
	r := newRunner(rec)
	r.Store = st
	defer r.Close()
	cfg := core.DefaultConfig(core.CC, 4)
	if err := st.Put(cfg, fault.Deadlock, r.Scale.String(), &core.Report{Wall: 12345}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(cfg, fault.Deadlock) // would deadlock if simulated
	if err != nil || rep == nil || rep.Wall != 12345 {
		t.Fatalf("rep=%v err=%v, want the stored report", rep, err)
	}
	ok, failed := r.Outcome()
	if ok != 0 || failed != 0 || len(rec.recs) != 0 || r.StoreHits() != 1 {
		t.Fatalf("stored hit produced side effects: ok=%d failed=%d recs=%d hits=%d", ok, failed, len(rec.recs), r.StoreHits())
	}
}

// TestFlightRecorderTailCoverage sweeps the remaining typed-failure
// kinds — livelock and task panic — plus the opt-out: every failure
// whose engine produced a snapshot must carry the scheduler-event tail
// that led there, and a zero Runner.FlightRecorder must disarm it.
func TestFlightRecorderTailCoverage(t *testing.T) {
	t.Run("livelock", func(t *testing.T) {
		r := newRunner(nil)
		defer r.Close()
		cfg := core.DefaultConfig(core.CC, 1)
		cfg.MaxSimTime = 10 * sim.Microsecond
		_, err := r.Run(cfg, fault.Stall)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) || jerr.Kind != bench.ErrLivelock {
			t.Fatalf("err = %v, want livelock JobError", err)
		}
		if jerr.State == nil || len(jerr.State.Recent) == 0 {
			t.Fatalf("livelock state has no flight-recorder tail: %+v", jerr.State)
		}
	})
	t.Run("panic", func(t *testing.T) {
		rec := &recorder{}
		r := newRunner(rec)
		defer r.Close()
		_, err := r.Run(core.DefaultConfig(core.CC, 2), fault.Panic)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) || jerr.Kind != bench.ErrPanic {
			t.Fatalf("err = %v, want panic JobError", err)
		}
		if jerr.State == nil || len(jerr.State.Recent) == 0 {
			t.Fatalf("panic state has no flight-recorder tail: %+v", jerr.State)
		}
		ranOnce(t, r, rec, bench.ErrPanic)
	})
	t.Run("disabled", func(t *testing.T) {
		r := newRunner(nil)
		defer r.Close()
		r.FlightRecorder = 0
		_, err := r.Run(core.DefaultConfig(core.CC, 4), fault.Deadlock)
		var jerr *bench.JobError
		if !errors.As(err, &jerr) || jerr.Kind != bench.ErrDeadlock {
			t.Fatalf("err = %v, want deadlock JobError", err)
		}
		if jerr.State == nil {
			t.Fatalf("deadlock lost its engine state: %+v", jerr)
		}
		if len(jerr.State.Recent) != 0 || jerr.State.EventsRecorded != 0 {
			t.Fatalf("disabled recorder still captured events: %+v", jerr.State)
		}
	})
}
