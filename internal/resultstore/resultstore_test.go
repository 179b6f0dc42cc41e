package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// testReport fabricates a distinguishable report.
func testReport(i int) *core.Report {
	return &core.Report{
		Model:        core.CC,
		Cores:        4,
		CoreMHz:      800,
		Wall:         sim.Time(1000 + i),
		Instructions: uint64(42 * (i + 1)),
	}
}

// testCfg returns the i-th distinct configuration. CoreMHz carries i
// directly so the mapping is injective for any i.
func testCfg(i int) core.Config {
	cfg := core.DefaultConfig(core.CC, 1+i%16)
	cfg.DRAMBandwidthMBps = 1600 << uint(i%4)
	cfg.CoreMHz = uint64(600 + i)
	return cfg
}

func mustOpen(t testing.TB, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// fill puts n records and flushes.
func fill(t testing.TB, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(testCfg(i), "fir", "small", testReport(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

// TestRoundTrip: what goes in comes back out, across a close/reopen.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1"})
	fill(t, s, 5)
	if rep, ok := s.Get(testCfg(2), "fir", "small"); !ok || rep.Wall != testReport(2).Wall {
		t.Fatalf("live get: ok=%v rep=%+v", ok, rep)
	}
	if _, ok := s.Get(testCfg(2), "fem", "small"); ok {
		t.Fatal("hit for a workload never stored")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 5 || st.Records != 5 || st.Corrupt != 0 {
		t.Fatalf("recovery stats: %+v", st)
	}
	for i := 0; i < 5; i++ {
		rep, ok := s2.Get(testCfg(i), "fir", "small")
		if !ok || rep.Wall != testReport(i).Wall || rep.Instructions != testReport(i).Instructions {
			t.Fatalf("reopened get %d: ok=%v rep=%+v", i, ok, rep)
		}
	}
	if st := s2.Stats(); st.Hits != 5 || st.Misses != 0 {
		t.Fatalf("hit stats: %+v", st)
	}
}

// TestVersionMismatchIsAMiss: a store written under one version answers
// nothing under another — the stale-store-poisoning guard.
func TestVersionMismatchIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "git-abc"})
	fill(t, s, 3)
	s.Close()

	s2 := mustOpen(t, Options{Dir: dir, Version: "git-def"})
	if st := s2.Stats(); st.Recovered != 3 {
		t.Fatalf("old-version records should still recover: %+v", st)
	}
	if _, ok := s2.Get(testCfg(0), "fir", "small"); ok {
		t.Fatal("new version served a stale record")
	}
	s2.Close() // release the directory lock for the next open
	// The old version still hits its own records in the shared journal.
	s3 := mustOpen(t, Options{Dir: dir, Version: "git-abc"})
	defer s3.Close()
	if _, ok := s3.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("original version lost its records")
	}
}

// TestEmptyVersionKeysByExecutable: with no Version, records are keyed
// by the SHA-256 of the running binary. The key does not depend on the
// working directory, and a record written under it answers no other
// version (a different build, or a label such as a git describe).
func TestEmptyVersionKeysByExecutable(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bin)
	want := fmt.Sprintf("exe-%x+schema%d", sum, SchemaVersion)

	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir})
	if s.version != want {
		t.Fatalf("version = %q, want %q", s.version, want)
	}
	fill(t, s, 1)
	s.Close()

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	s = mustOpen(t, Options{Dir: dir})
	if s.version != want {
		t.Fatalf("version from another cwd = %q, want %q", s.version, want)
	}
	if rep, ok := s.Get(testCfg(0), "fir", "small"); !ok || rep.Wall != testReport(0).Wall {
		t.Fatal("same binary from another cwd missed its own record")
	}
	s.Close()

	for _, other := range []string{"v1", "unknown", fmt.Sprintf("exe-%x", sha256.Sum256(nil))} {
		s := mustOpen(t, Options{Dir: dir, Version: other})
		if _, ok := s.Get(testCfg(0), "fir", "small"); ok {
			t.Fatalf("version %q served the executable-keyed record", other)
		}
		s.Close()
	}
}

// TestObserversDoNotPerturbKeys: a config carrying run-scoped observers
// hits a record stored from a bare one.
func TestObserversDoNotPerturbKeys(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	fill(t, s, 1)
	cfg := testCfg(0)
	cfg.FlightRecorder = 512
	if _, ok := s.Get(cfg, "fir", "small"); !ok {
		t.Fatal("flight recorder perturbed the store key")
	}
}

// TestTruncateAtEveryByte is the crash-safety property: for EVERY
// prefix of a journal, reopening recovers without error, restores
// exactly the records wholly inside the prefix, and serves them.
func TestTruncateAtEveryByte(t *testing.T) {
	const n = 4
	journal := masterJournal(t, n)

	// Locate each record's end offset by a reference scan.
	ends := recordEnds(t, journal)
	if len(ends) != n {
		t.Fatalf("reference scan found %d records, want %d", len(ends), n)
	}

	dir := t.TempDir()
	for cut := 0; cut <= len(journal); cut++ {
		os.RemoveAll(dir)
		os.MkdirAll(dir, 0o755)
		if err := os.WriteFile(filepath.Join(dir, journalName), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: dir, Version: "v1"})
		if err != nil {
			t.Fatalf("cut=%d: Open failed: %v", cut, err)
		}
		wantComplete := 0
		for _, e := range ends {
			if int64(cut) >= e {
				wantComplete++
			}
		}
		got := st.Len()
		if got != wantComplete {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, got, wantComplete)
		}
		for i := 0; i < wantComplete; i++ {
			if rep, ok := st.Get(testCfg(i), "fir", "small"); !ok || rep.Wall != testReport(i).Wall {
				t.Fatalf("cut=%d: record %d lost or wrong", cut, i)
			}
		}
		if stats := st.Stats(); stats.Corrupt != 0 {
			t.Fatalf("cut=%d: pure truncation quarantined %d records", cut, stats.Corrupt)
		}
		// A second open of the repaired journal must be clean: recovery
		// converges (the torn tail was truncated away durably).
		st.Close()
		st2, err := Open(Options{Dir: dir, Version: "v1"})
		if err != nil || st2.Len() != wantComplete || st2.Stats().TruncatedBytes != 0 {
			t.Fatalf("cut=%d: second open not clean: err=%v len=%d stats=%+v", cut, err, st2.Len(), st2.Stats())
		}
		st2.Close()
	}
}

// masterJournal returns the bytes of a clean journal holding records
// 0..n-1 (testCfg(i), "fir", "small", testReport(i)) under version v1.
func masterJournal(t testing.TB, n int) []byte {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1})
	fill(t, s, n)
	s.Close()
	journal, err := os.ReadFile(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return journal
}

// recordEnds scans a well-formed journal and returns each record's end
// offset, independently of the store's own recovery code path.
func recordEnds(t testing.TB, journal []byte) []int64 {
	t.Helper()
	var ends []int64
	off := int64(headerLen)
	for off < int64(len(journal)) {
		if !bytes.Equal(journal[off:off+4], recordMagic[:]) {
			t.Fatalf("reference scan: bad magic at %d", off)
		}
		n := int64(journal[off+4]) | int64(journal[off+5])<<8 | int64(journal[off+6])<<16 | int64(journal[off+7])<<24
		off += recHdrLen + n
		ends = append(ends, off)
	}
	return ends
}

// TestBitFlipAtEveryByteNeverServesBadData flips each byte of a small
// journal in turn: every open must succeed, and every record the store
// then serves must be one of the records originally written — corrupt
// ones vanish into quarantine or (at the tail) truncation, they are
// never returned. The header's schema field is the one region where a
// flip loses availability rather than a single record: a changed schema
// version is indistinguishable from a genuinely different journal
// format, so the whole file is archived intact (never parsed, never
// destroyed) and the store starts fresh.
func TestBitFlipAtEveryByteNeverServesBadData(t *testing.T) {
	const n = 3
	journal := masterJournal(t, n)

	dir := t.TempDir()
	for pos := 0; pos < len(journal); pos++ {
		os.RemoveAll(dir)
		os.MkdirAll(dir, 0o755)
		mut := append([]byte(nil), journal...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, journalName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Options{Dir: dir, Version: "v1"})
		if err != nil {
			t.Fatalf("pos=%d: Open failed: %v", pos, err)
		}
		served := 0
		for i := 0; i < n; i++ {
			rep, ok := st.Get(testCfg(i), "fir", "small")
			if !ok {
				continue
			}
			served++
			if rep.Wall != testReport(i).Wall || rep.Instructions != testReport(i).Instructions {
				t.Fatalf("pos=%d: record %d served with wrong content", pos, i)
			}
		}
		if pos >= 4 && pos < 8 {
			// Schema field flipped: the journal must be archived wholesale,
			// not parsed under guessed framing.
			if served != 0 {
				t.Fatalf("pos=%d: schema-flipped journal served %d records", pos, served)
			}
			if _, err := os.Stat(filepath.Join(dir, journalName+".bad")); err != nil {
				t.Fatalf("pos=%d: schema-flipped journal not archived: %v", pos, err)
			}
		} else if served < n-1 {
			t.Fatalf("pos=%d: one flipped byte destroyed %d records", pos, n-served)
		}
		st.Close()
	}
}

// TestMidJournalCorruptionQuarantines: smashing bytes in the middle of
// the journal loses only the smashed record; everything after it
// survives and the corpse lands in quarantine.jsonl.
func TestMidJournalCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	s := mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1})
	fill(t, s, 5)
	s.Close()

	path := filepath.Join(dir, journalName)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(t, journal)
	// Smash the payload of record 2 (between ends[1] and ends[2]).
	for i := ends[1] + recHdrLen; i < ends[2]-4; i++ {
		journal[i] ^= 0xff
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, Version: "v1", Log: &log})
	if err != nil {
		t.Fatalf("Open over mid-journal corruption: %v", err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovered != 4 || st.Corrupt == 0 {
		t.Fatalf("stats after corruption: %+v", st)
	}
	for _, i := range []int{0, 1, 3, 4} {
		if _, ok := s2.Get(testCfg(i), "fir", "small"); !ok {
			t.Fatalf("record %d lost to a neighbor's corruption", i)
		}
	}
	if _, ok := s2.Get(testCfg(2), "fir", "small"); ok {
		t.Fatal("corrupt record served")
	}
	qb, err := os.ReadFile(filepath.Join(dir, quarantineName))
	if err != nil {
		t.Fatalf("quarantine.jsonl missing: %v", err)
	}
	var q quarantineEntry
	if err := json.Unmarshal(bytes.SplitN(qb, []byte("\n"), 2)[0], &q); err != nil {
		t.Fatalf("quarantine entry not JSON: %v", err)
	}
	if q.Reason == "" || q.Length == 0 || q.RecordB64 == "" {
		t.Fatalf("quarantine entry incomplete: %+v", q)
	}
	if !bytes.Contains(log.Bytes(), []byte("quarantine")) {
		t.Fatalf("no quarantine warning logged: %s", log.String())
	}
}

// TestForeignJournalArchived: a journal with an alien header is moved
// aside, not parsed and not deleted.
func TestForeignJournalArchived(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, []byte("not a journal at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s.Close()
	if s.Len() != 0 {
		t.Fatal("foreign journal produced records")
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("foreign journal not archived: %v", err)
	}
	fill(t, s, 1)
	if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("fresh journal after archive does not serve")
	}
}

// TestLRUEvictionCompacts: a size-capped store drops the least recently
// used records, keeps the hot ones, and the journal shrinks on disk via
// the atomic rewrite.
func TestLRUEvictionCompacts(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1})
	fill(t, s, 1)
	size1 := s.Stats().Bytes
	recSize := size1 - headerLen
	s.Close()

	// Cap the journal at ~6 records, then write 10, touching record 0
	// along the way so it stays hot.
	cap := headerLen + 6*recSize + recSize/2
	s = mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1, MaxBytes: cap})
	for i := 1; i < 10; i++ {
		if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
			t.Fatalf("hot record 0 evicted at i=%d", i)
		}
		if err := s.Put(testCfg(i), "fir", "small", testReport(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Compactions == 0 || st.Evictions == 0 {
		t.Fatalf("no compaction happened: %+v", st)
	}
	if st.Bytes > cap {
		t.Fatalf("journal %d bytes exceeds cap %d after compaction", st.Bytes, cap)
	}
	if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("most-recently-used record was evicted")
	}
	if _, ok := s.Get(testCfg(9), "fir", "small"); !ok {
		t.Fatal("newest record was evicted")
	}
	s.Close()

	// The compacted journal reopens cleanly with the same records.
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if s2.Stats().Corrupt != 0 {
		t.Fatalf("compacted journal reopens corrupt: %+v", s2.Stats())
	}
	if _, ok := s2.Get(testCfg(9), "fir", "small"); !ok {
		t.Fatal("compacted journal lost the newest record")
	}
}

// TestDuplicatePutLastWins: re-putting a key serves the newer report,
// across reopen too.
func TestDuplicatePutLastWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1})
	cfg := testCfg(0)
	if err := s.Put(cfg, "fir", "small", testReport(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(cfg, "fir", "small", testReport(7)); err != nil {
		t.Fatal(err)
	}
	if rep, ok := s.Get(cfg, "fir", "small"); !ok || rep.Wall != testReport(7).Wall {
		t.Fatalf("live duplicate get: %+v", rep)
	}
	s.Close()
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if rep, ok := s2.Get(cfg, "fir", "small"); !ok || rep.Wall != testReport(7).Wall {
		t.Fatalf("reopened duplicate get: %+v", rep)
	}
}

// TestConcurrentAccess hammers the store from many goroutines; under
// -race this is the data-race proof for the one-mutex design.
func TestConcurrentAccess(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w*40 + i) % 23
				if rep, ok := s.Get(testCfg(k), "fir", "small"); ok && rep.Wall != testReport(k).Wall {
					t.Errorf("concurrent get served wrong record")
					return
				}
				if err := s.Put(testCfg(k), "fir", "small", testReport(k)); err != nil {
					t.Errorf("concurrent put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 23 {
		t.Fatalf("index has %d records, want 23", s.Len())
	}
	for k := 0; k < 23; k++ {
		if rep, ok := s.Get(testCfg(k), "fir", "small"); !ok || rep.Wall != testReport(k).Wall {
			t.Fatalf("record %d wrong after concurrent load", k)
		}
	}
}

// TestGetAfterCloseMisses: a closed store answers misses, never panics.
func TestGetAfterCloseMisses(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	fill(t, s, 1)
	s.Close()
	if _, ok := s.Get(testCfg(0), "fir", "small"); ok {
		t.Fatal("closed store served a record")
	}
	if err := s.Put(testCfg(1), "fir", "small", testReport(1)); err == nil {
		t.Fatal("closed store accepted a put")
	}
}

// TestOpenRequiresDir pins the only hard Open error that is a caller
// bug rather than recoverable corruption.
func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir succeeded")
	}
}

// TestStatsShape sanity-checks the counter bookkeeping end to end.
func TestStatsShape(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	fill(t, s, 2)
	s.Get(testCfg(0), "fir", "small")
	s.Get(testCfg(0), "fir", "small")
	s.Get(testCfg(5), "fir", "small")
	st := s.Stats()
	want := fmt.Sprintf("puts=2 hits=2 misses=1 records=2")
	got := fmt.Sprintf("puts=%d hits=%d misses=%d records=%d", st.Puts, st.Hits, st.Misses, st.Records)
	if got != want {
		t.Fatalf("stats: %s, want %s", got, want)
	}
	if st.Bytes <= headerLen {
		t.Fatalf("bytes not tracked: %+v", st)
	}
}

// TestScaleMismatchIsAMiss is the cross-scale poisoning guard: one
// store directory shared by campaigns at different dataset scales must
// never serve a small-scale report as a paper-scale hit (the reports
// genuinely differ — the scale sets the workload's dataset sizes).
func TestScaleMismatchIsAMiss(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	cfg := testCfg(0)
	if err := s.Put(cfg, "fir", "small", testReport(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(cfg, "fir", "paper"); ok {
		t.Fatal("paper-scale lookup served a small-scale record")
	}
	if _, ok := s.Get(cfg, "fir", "default"); ok {
		t.Fatal("default-scale lookup served a small-scale record")
	}
	// Both scales coexist in one journal, each answering only its own.
	if err := s.Put(cfg, "fir", "paper", testReport(9)); err != nil {
		t.Fatal(err)
	}
	if rep, ok := s.Get(cfg, "fir", "small"); !ok || rep.Wall != testReport(0).Wall {
		t.Fatal("small-scale record lost or cross-served after paper-scale put")
	}
	if rep, ok := s.Get(cfg, "fir", "paper"); !ok || rep.Wall != testReport(9).Wall {
		t.Fatal("paper-scale record missing or wrong")
	}
}

// TestDirLockExcludesSecondOpen enforces the one-process-per-directory
// rule: while a store is open, a second Open of the same directory
// fails with a clear "in use" error instead of silently racing the
// first writer's appends and compactions; Close releases the lock.
func TestDirLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1"})
	if _, err := Open(Options{Dir: dir, Version: "v1"}); err == nil {
		t.Fatal("second Open of a locked store directory succeeded")
	} else if !strings.Contains(err.Error(), "in use") {
		t.Fatalf("lock error not self-explanatory: %v", err)
	}
	fill(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if _, ok := s2.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("store lost a record across a lock handoff")
	}
}

// TestPutRejectsOversizedRecord: a payload above the journal's record
// length bound is refused up front with an error, because the recovery
// scan would otherwise quarantine it at the next open — a record the
// store wrote itself, silently lost across restarts.
func TestPutRejectsOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1})
	// Size the report to encode just past the record limit: one encoded
	// per-core breakdown entry, measured, times enough entries.
	one, err := json.Marshal(cpu.Breakdown{})
	if err != nil {
		t.Fatal(err)
	}
	huge := testReport(0)
	huge.PerCore = make([]cpu.Breakdown, maxRecordLen/(len(one)+1)+2)
	err = s.Put(testCfg(0), "fir", "small", huge)
	if err == nil {
		t.Fatal("oversized record accepted")
	}
	if st := s.Stats(); st.PutErrors != 1 || st.Puts != 0 {
		t.Fatalf("stats after oversized put: %+v", st)
	}
	// The journal is untouched and the store still works.
	if err := s.Put(testCfg(1), "fir", "small", testReport(1)); err != nil {
		t.Fatalf("put after oversized rejection: %v", err)
	}
	s.Close()
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if st := s2.Stats(); st.Recovered != 1 || st.Corrupt != 0 {
		t.Fatalf("journal damaged by rejected oversized put: %+v", st)
	}
}

// TestOtherSchemaJournalArchived: a journal whose header carries a
// different schema version is archived intact, never parsed — its
// record framing may differ, and mis-parsing it would churn good
// records into quarantine.
func TestOtherSchemaJournalArchived(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1", SyncEvery: 1})
	fill(t, s, 2)
	s.Close()
	path := filepath.Join(dir, journalName)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the header's schema field to a (hypothetical) older
	// version, leaving the magic and every record byte intact.
	journal[4], journal[5], journal[6], journal[7] = SchemaVersion-1, 0, 0, 0
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	s2 := mustOpen(t, Options{Dir: dir, Version: "v1", Log: &log})
	defer s2.Close()
	if s2.Len() != 0 {
		t.Fatalf("old-schema journal parsed: %d records", s2.Len())
	}
	bad, err := os.ReadFile(path + ".bad")
	if err != nil {
		t.Fatalf("old-schema journal not archived: %v", err)
	}
	if !bytes.Equal(bad, journal) {
		t.Fatal("archived journal not byte-identical to the original")
	}
}
