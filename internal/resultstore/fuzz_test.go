package resultstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"testing"
)

// seedRecords is the seed corpus of both fuzz targets: record 0's file
// under version v1, its truncations and bit flips at the frame's fields
// and across the payload, and re-framed payloads whose checksum holds
// but whose content must still be refused (another key's record, a
// non-canonical encoding, no report, broken JSON, an empty body).
func seedRecords(t testing.TB) [][]byte {
	rec := masterRecord(t, 0)
	seeds := [][]byte{rec}
	n := len(rec)
	for _, at := range []int{0, 1, 3, 4, 7, frameLen, frameLen + 1, n / 4, n / 2, 3 * n / 4, n - 2, n - 1} {
		seeds = append(seeds, append([]byte(nil), rec[:at]...))
	}
	for _, at := range []int{0, 3, 4, 7, frameLen, frameLen + 1, n / 3, n / 2, 2 * n / 3, n - 1} {
		mut := append([]byte(nil), rec...)
		mut[at] ^= 0x40
		seeds = append(seeds, mut)
	}
	body := rec[frameLen:]
	for _, b := range [][]byte{
		masterRecord(t, 1)[frameLen:],
		append([]byte(" "), body...),
		bytes.Replace(body, []byte(`"report":{`), []byte(`"report":null,"x":{`), 1),
		body[:len(body)-1],
		nil,
	} {
		seeds = append(seeds, encodeRecord(b))
	}
	return seeds
}

// FuzzRecordDecode feeds arbitrary bytes to the record decoder. It must
// never panic, and it may accept an input only if the input's checksum
// verifies and the decoded payload re-encodes to exactly the input.
// Each input is also decoded as a payload under a valid frame, since a
// mutated record almost never passes its checksum and the JSON and
// canonical-form checks behind it would otherwise go unfuzzed.
func FuzzRecordDecode(f *testing.F) {
	for _, seed := range seedRecords(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rec := range [][]byte{data, encodeRecord(data)} {
			p, err := decodeRecord(rec)
			if err != nil {
				continue
			}
			if crc32.Checksum(rec[frameLen:], castagnoli) != binary.LittleEndian.Uint32(rec[4:frameLen]) {
				t.Fatal("accepted a record whose checksum fails")
			}
			body, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("accepted payload does not encode: %v", err)
			}
			if !bytes.Equal(encodeRecord(body), rec) {
				t.Fatalf("accepted record does not re-encode to its own bytes:\n%q", rec)
			}
		}
	})
}

// FuzzStoreOpen puts arbitrary bytes on disk as record 0's file and
// opens the store over it. Open counts the file without reading it; a
// lookup either serves exactly the report that was put, or answers a
// miss that deletes the file and counts it Corrupt.
func FuzzStoreOpen(f *testing.F) {
	for _, seed := range seedRecords(f) {
		f.Add(seed)
	}
	want, _ := json.Marshal(testReport(0))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s := mustOpen(t, Options{Dir: dir, Version: "v1"})
		path := recPath(s, 0)
		s.Close()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s = mustOpen(t, Options{Dir: dir, Version: "v1"})
		defer s.Close()
		if st := s.Stats(); st.Records != 1 || st.Bytes != int64(len(data)) {
			t.Fatalf("Open counted %+v for one %d-byte file", st, len(data))
		}
		rep, ok := s.Get(testCfg(0), "fir", "small")
		if ok {
			if got, _ := json.Marshal(rep); !bytes.Equal(got, want) {
				t.Fatalf("served a report that was never put:\n%s", got)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("refused record file not deleted: %v", err)
		}
		if st := s.Stats(); st.Corrupt != 1 || st.Records != 0 || st.Bytes != 0 {
			t.Fatalf("refused record miscounted: %+v", st)
		}
	})
}
