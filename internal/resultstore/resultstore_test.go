package resultstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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

// fill puts n records.
func fill(t testing.TB, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(testCfg(i), "fir", "small", testReport(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
}

// recPath is the file holding record i (testCfg(i), "fir", "small").
func recPath(s *Store, i int) string {
	return s.path(testCfg(i).Hash("fir", "small", s.version))
}

// masterRecord returns the file bytes of record i under version v1.
func masterRecord(t testing.TB, i int) []byte {
	t.Helper()
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	if err := s.Put(testCfg(i), "fir", "small", testReport(i)); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(recPath(s, i))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// storeFiles lists the directory's file names other than the lock.
func storeFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != lockName {
			names = append(names, e.Name())
		}
	}
	return names
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
	size := s.Stats().Bytes
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if n := len(storeFiles(t, dir)); n != 5 {
		t.Fatalf("%d files in the store, want one per record", n)
	}

	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if st := s2.Stats(); st.Records != 5 || st.Bytes != size || st.Corrupt != 0 {
		t.Fatalf("reopened stats: %+v (want 5 records, %d bytes)", st, size)
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
	if _, ok := s2.Get(testCfg(0), "fir", "small"); ok {
		t.Fatal("new version served a stale record")
	}
	if st := s2.Stats(); st.Records != 3 || st.Corrupt != 0 {
		t.Fatalf("another version's records should stay untouched: %+v", st)
	}
	s2.Close() // release the directory lock for the next open
	// The old version still hits its own records in the shared directory.
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

// checkDamagedRecord writes data as record 0's file in a store that
// also holds an intact record 1, and checks the damage is answered as
// a miss that deletes the file, counts it Corrupt and leaves record 1
// serving — unless data is the intact record, which must be served.
func checkDamagedRecord(t *testing.T, s *Store, data, intact []byte) {
	t.Helper()
	path := recPath(s, 0)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Corrupt
	rep, ok := s.Get(testCfg(0), "fir", "small")
	if bytes.Equal(data, intact) {
		if !ok || rep.Wall != testReport(0).Wall || rep.Instructions != testReport(0).Instructions {
			t.Fatal("intact record not served")
		}
		return
	}
	if ok {
		t.Fatalf("damaged record served: %+v", rep)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged record file not deleted: %v", err)
	}
	if got := s.Stats().Corrupt; got != before+1 {
		t.Fatalf("Corrupt went %d -> %d, want one more", before, got)
	}
	if rep, ok := s.Get(testCfg(1), "fir", "small"); !ok || rep.Wall != testReport(1).Wall {
		t.Fatal("a neighbor's damage cost an intact record")
	}
}

// TestTruncateAtEveryByte: every prefix of a record file, from empty to
// one byte short, is answered as a miss and deleted; the whole file is
// served. Put's temp-and-rename never leaves such a prefix, so this is
// the guard against damage from outside the store.
func TestTruncateAtEveryByte(t *testing.T) {
	rec := masterRecord(t, 0)
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	fill(t, s, 2)
	for cut := 0; cut <= len(rec); cut++ {
		checkDamagedRecord(t, s, rec[:cut], rec)
	}
}

// TestBitFlipAtEveryByteNeverServesBadData flips each byte of a record
// file in turn: the checksum catches every flip, so the record is never
// served, the file is deleted, and the other record keeps serving.
func TestBitFlipAtEveryByteNeverServesBadData(t *testing.T) {
	rec := masterRecord(t, 0)
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1"})
	defer s.Close()
	fill(t, s, 2)
	for pos := range rec {
		mut := append([]byte(nil), rec...)
		mut[pos] ^= 0x40
		checkDamagedRecord(t, s, mut, rec)
	}
}

// TestIdentityMismatchIsDeleted: a well-formed record under another
// key's file name fails the identity check — it is never served for
// the key it does not answer, and it is deleted like any corruption.
func TestIdentityMismatchIsDeleted(t *testing.T) {
	var log bytes.Buffer
	s := mustOpen(t, Options{Dir: t.TempDir(), Version: "v1", Log: &log})
	defer s.Close()
	fill(t, s, 2)
	checkDamagedRecord(t, s, masterRecord(t, 2), nil)
	if !strings.Contains(log.String(), "identity mismatch; deleted") {
		t.Fatalf("no one-line warning logged: %q", log.String())
	}
}

// checkOldFilesNeverRead writes files left by the journal layout of
// schema 2 into a fresh store directory and checks that the store opens
// empty, serves new records, and leaves every one of those files byte
// for byte as it was: Open reads no file but *.rec ones.
func checkOldFilesNeverRead(t *testing.T, old map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	for name, data := range old {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s.Close()
	if st := s.Stats(); st.Records != 0 || st.Bytes != 0 || st.Corrupt != 0 {
		t.Fatalf("old journal files were counted: %+v", st)
	}
	fill(t, s, 1)
	if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("store next to an old journal does not serve")
	}
	for name, data := range old {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s changed: %v", name, err)
		}
	}
}

// TestForeignJournalArchived: a store.journal with an alien header, and
// the .bad archive and quarantine.jsonl of the journal layout, stay in
// place untouched as their own archive, are never parsed, and do not
// stop the store from serving.
func TestForeignJournalArchived(t *testing.T) {
	checkOldFilesNeverRead(t, map[string][]byte{
		"store.journal":     []byte("not a journal at all, definitely"),
		"store.journal.bad": []byte("not a journal at all, definitely"),
		"quarantine.jsonl":  []byte(`{"offset":16,"length":3,"reason":"checksum mismatch"}` + "\n"),
	})
}

// TestOtherSchemaJournalArchived: a journal whose header carries schema
// 2 is left byte-identical in place and never parsed — its framing is
// not the record file's, and reading it could only serve wrong data.
func TestOtherSchemaJournalArchived(t *testing.T) {
	checkOldFilesNeverRead(t, map[string][]byte{
		"store.journal": append([]byte("MSRS\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), "MSRC garbage"...),
	})
}

// TestLeftoverTempFileRemoved: a writer killed between creating its
// temp file and the rename leaves the temp file behind. Open removes
// it, and its content — even a complete record — is never served.
func TestLeftoverTempFileRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "put-123.tmp")
	if err := os.WriteFile(tmp, masterRecord(t, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := mustOpen(t, Options{Dir: dir, Version: "v1", Log: &log})
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("leftover temp file survived Open: %v", err)
	}
	if !strings.Contains(log.String(), "put-123.tmp") {
		t.Fatalf("removal not logged: %q", log.String())
	}
	if _, ok := s.Get(testCfg(0), "fir", "small"); ok {
		t.Fatal("temp file content served")
	}
	if st := s.Stats(); st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("temp file counted as a record: %+v", st)
	}
}

// TestFailedPutLeavesNoTempFile: a Put whose rename fails (a directory
// squats on the record's name, which fails as root too) returns an
// error, counts PutErrors, logs only the first failure, leaves no temp
// file behind, and the store keeps serving and accepting other records.
func TestFailedPutLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	s := mustOpen(t, Options{Dir: dir, Version: "v1", Log: &log})
	defer s.Close()
	fill(t, s, 1)
	if err := os.Mkdir(recPath(s, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(recPath(s, 1), "pin"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Put(testCfg(1), "fir", "small", testReport(1)); err == nil {
		t.Fatal("put over a directory reported success")
	}
	st := s.Stats()
	if st.PutErrors != 1 || st.Puts != before.Puts || st.Records != before.Records || st.Bytes != before.Bytes {
		t.Fatalf("stats after a failed put: %+v (before %+v)", st, before)
	}
	for _, name := range storeFiles(t, dir) {
		if tmp, _ := filepath.Match(tmpPattern, name); tmp {
			t.Fatalf("failed put left %s behind", name)
		}
	}
	if _, ok := s.Get(testCfg(1), "fir", "small"); ok {
		t.Fatal("failed put served")
	}
	if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("failed put broke reads")
	}
	// A second failure is counted but not logged again.
	if err := s.Put(testCfg(1), "fir", "small", testReport(1)); err == nil {
		t.Fatal("second put over a directory reported success")
	}
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("put_errors = %d after two failed puts, want 2", st.PutErrors)
	}
	if n := strings.Count(log.String(), "resultstore: put "); n != 1 {
		t.Fatalf("two failed puts logged %d lines, want 1:\n%s", n, log.String())
	}
	if err := s.Put(testCfg(2), "fir", "small", testReport(2)); err != nil {
		t.Fatalf("put after a failed put: %v", err)
	}
}

// TestLRUEvictionCompacts: a size-capped store deletes the least
// recently used records until it fits, keeps the hot ones and the
// newest, and the survivors reopen with the same counts.
func TestLRUEvictionCompacts(t *testing.T) {
	dir := t.TempDir()
	recSize := int64(len(masterRecord(t, 0)))

	// Cap the store at ~6 records, then write 10, reading record 0
	// along the way so it stays hot.
	cap := 6*recSize + recSize/2
	s := mustOpen(t, Options{Dir: dir, Version: "v1", MaxBytes: cap})
	fill(t, s, 1)
	for i := 1; i < 10; i++ {
		if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
			t.Fatalf("hot record 0 evicted at i=%d", i)
		}
		if err := s.Put(testCfg(i), "fir", "small", testReport(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	if st.Bytes > cap {
		t.Fatalf("store holds %d bytes, above the %d-byte cap", st.Bytes, cap)
	}
	if _, ok := s.Get(testCfg(0), "fir", "small"); !ok {
		t.Fatal("most-recently-used record was evicted")
	}
	if _, ok := s.Get(testCfg(9), "fir", "small"); !ok {
		t.Fatal("newest record was evicted")
	}
	if _, ok := s.Get(testCfg(1), "fir", "small"); ok {
		t.Fatal("least-recently-used record survived eviction")
	}
	s.Close()

	s2 := mustOpen(t, Options{Dir: dir, Version: "v1"})
	defer s2.Close()
	if got := s2.Stats(); got.Records != st.Records || got.Bytes != st.Bytes {
		t.Fatalf("reopened counts %+v differ from before close %+v", got, st)
	}
	if _, ok := s2.Get(testCfg(9), "fir", "small"); !ok {
		t.Fatal("evicted store lost the newest record")
	}
}

// TestDuplicatePutLastWins: re-putting a key serves the newer report,
// across reopen too, and replaces the file rather than adding one.
func TestDuplicatePutLastWins(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Version: "v1"})
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
	fi, err := os.Stat(recPath(s, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 1 || st.Bytes != fi.Size() {
		t.Fatalf("duplicate put counted twice: %+v (file %d bytes)", st, fi.Size())
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
	if n := s.Stats().Records; n != 23 {
		t.Fatalf("store has %d records, want 23", n)
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
// bug rather than a disk problem.
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
	want := "puts=2 hits=2 misses=1 records=2"
	got := fmt.Sprintf("puts=%d hits=%d misses=%d records=%d", st.Puts, st.Hits, st.Misses, st.Records)
	if got != want {
		t.Fatalf("stats: %s, want %s", got, want)
	}
	if st.Bytes <= 2*frameLen {
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
	// Both scales coexist in one directory, each answering only its own.
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
// first writer's puts and evictions; Close releases the lock.
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
