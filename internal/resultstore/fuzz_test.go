package resultstore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen feeds arbitrary bytes to the recovery scan as a journal.
// Open must never fail on journal content, every hit must return a
// report byte-identical to one that was Put, and the scan must account
// for every byte: the header, the records it recovered, the regions it
// quarantined and the tail it truncated tile the file exactly. The seed
// corpus is a clean three-record journal plus truncations and bit flips
// at the places the every-offset suites find interesting (header,
// record magic, length, checksum, payload); it also runs in go test.
func FuzzStoreOpen(f *testing.F) {
	const n = 3
	journal := masterJournal(f, n)
	f.Add(journal)
	cut := func(at int64) { f.Add(append([]byte(nil), journal[:at]...)) }
	flip := func(at int64) {
		mut := append([]byte(nil), journal...)
		mut[at] ^= 0x40
		f.Add(mut)
	}
	cut(0)
	cut(headerLen - 1)
	cut(headerLen)
	flip(0)
	flip(4)
	start := int64(headerLen)
	for _, end := range recordEnds(f, journal) {
		cut(start + recHdrLen/2)
		cut((start + end) / 2)
		cut(end - 1)
		for _, at := range []int64{start, start + 4, start + 8, (start + end) / 2} {
			flip(at)
		}
		start = end
	}
	want := make([][]byte, n)
	for i := range want {
		want[i], _ = json.Marshal(testReport(i))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Version: "v1", OpenFile: openUnsynced})
		if err != nil {
			t.Fatalf("Open failed on journal content: %v", err)
		}
		defer s.Close()
		checkScanAccounting(t, dir, data, s.Stats())
		for i := 0; i < n; i++ {
			rep, ok := s.Get(testCfg(i), "fir", "small")
			if !ok {
				continue
			}
			if got, _ := json.Marshal(rep); !bytes.Equal(got, want[i]) {
				t.Fatalf("record %d served a report that was never put:\n%s", i, got)
			}
		}
	})
}

// unsynced is a journal file whose Sync does nothing: durability is not
// under test here, and an fsync per input would throttle the fuzzer.
type unsynced struct{ File }

func (unsynced) Sync() error { return nil }

func openUnsynced(path string) (File, error) {
	f, err := OpenOSFile(path)
	return unsynced{f}, err
}

// checkScanAccounting verifies that Open's counters explain the whole
// journal: an archived foreign journal is kept intact; otherwise,
// after the header, the bytes up to the truncated tail split into
// quarantined regions (from quarantine.jsonl, one per Corrupt count)
// and back-to-back valid records, exactly Recovered of them.
func checkScanAccounting(t *testing.T, dir string, data []byte, st Stats) {
	t.Helper()
	size := int64(len(data))
	if archived, err := os.ReadFile(filepath.Join(dir, journalName+".bad")); err == nil {
		if !bytes.Equal(archived, data) || st.Corrupt != 1 || st.Recovered != 0 || st.Records != 0 {
			t.Fatalf("archived journal altered or miscounted: %+v", st)
		}
		return
	}
	if size < headerLen {
		if st.TruncatedBytes != size || st.Recovered != 0 || st.Corrupt != 0 {
			t.Fatalf("torn %d-byte header miscounted: %+v", size, st)
		}
		return
	}
	quarantined := map[int64]int64{} // offset -> length
	if qf, err := os.Open(filepath.Join(dir, quarantineName)); err == nil {
		sc := bufio.NewScanner(qf)
		sc.Buffer(nil, 8<<20)
		for sc.Scan() {
			var e quarantineEntry
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("quarantine line: %v", err)
			}
			quarantined[e.Offset] = int64(e.Length)
		}
		qf.Close()
	}
	if uint64(len(quarantined)) != st.Corrupt {
		t.Fatalf("%d quarantine entries, Corrupt = %d", len(quarantined), st.Corrupt)
	}
	tail := size - st.TruncatedBytes
	var records uint64
	for pos := int64(headerLen); pos < tail; {
		if l := quarantined[pos]; l > 0 {
			delete(quarantined, pos)
			pos += l
			continue
		}
		if pos+recHdrLen > tail {
			t.Fatalf("unaccounted bytes [%d, %d)", pos, tail)
		}
		end := pos + recHdrLen + int64(binary.LittleEndian.Uint32(data[pos+4:]))
		if end > tail {
			t.Fatalf("unaccounted bytes [%d, %d)", pos, tail)
		}
		if p, reason := decodeRecord(data[pos:end]); reason != "" || p.Key == "" {
			t.Fatalf("bytes [%d, %d) neither recovered nor quarantined (%s)", pos, end, reason)
		}
		records++
		pos = end
	}
	for off, l := range quarantined {
		if l > 0 || off != tail {
			t.Fatalf("quarantined region at %d (%d bytes) outside the scan", off, l)
		}
	}
	if records != st.Recovered {
		t.Fatalf("scan holds %d valid records, Recovered = %d", records, st.Recovered)
	}
}
