// Package resultstore is the crash-safe, content-addressed, persistent
// result cache under the experiment runner: a durable promotion of the
// in-memory memo table that survives process death, detects its own
// corruption, and degrades to a miss instead of ever serving bad data.
//
// Layout: one file per result, DIR/<key>.rec, keyed by core.Config.Hash
// over the normalized config, the workload, the dataset scale and a
// version (by default the SHA-256 of the running executable, plus the
// schema version), so a record written by another build, or at another
// -scale, never answers a lookup. A file is a 4-byte magic, the CRC32C
// of the payload, and the JSON payload, which repeats the key, version,
// scale, workload and config for verification on read.
//
// Put writes a temp file in DIR, fsyncs it, renames it to <key>.rec and
// fsyncs DIR, so a record file is always whole; a killed writer leaves
// at most a temp file, which the next Open removes. Get re-verifies
// every read; a record that fails is logged, deleted and answered as a
// miss. With MaxBytes set, a Put past the cap deletes the records with
// the oldest mtime, and a hit refreshes its record's mtime, so eviction
// is least-recently-used.
//
// One process owns a store directory at a time — Open takes an advisory
// lock on DIR/store.lock and fails with a "store directory … in use"
// error while another process (or another open Store in this process)
// holds it. Methods are safe for concurrent use within that process.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// SchemaVersion is the record format version. It participates in every
// record key, so a report produced under another schema never answers a
// lookup. Version 2 added the dataset scale to the record identity;
// version 3 moved from one journal to one file per record.
const SchemaVersion = 3

const (
	lockName   = "store.lock"
	recExt     = ".rec"
	tmpPattern = "put-*.tmp" // os.CreateTemp's pattern for a Put in flight
	frameLen   = 8           // magic + CRC32C of the payload
)

var (
	recordMagic = [4]byte{'M', 'S', 'R', 'C'}

	// castagnoli is the CRC32C polynomial table (hardware-accelerated on
	// amd64/arm64), the checksum every record carries.
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// Options configures Open.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string
	// Version is the code identity mixed into every record key, with the
	// schema version appended. Empty means the running binary itself: the
	// SHA-256 of the file at os.Executable(), computed once here, so a
	// rebuilt binary never sees this one's records, nor they its.
	Version string
	// MaxBytes caps the total size of the record files; a Put past it
	// evicts the least recently used records. 0 = unbounded.
	MaxBytes int64
	// Log receives cleanup and corruption warnings and the first failed
	// Put, one line each. nil = discard.
	Log io.Writer
}

// Stats is the store's counter snapshot, also served as the "store"
// block of campaign telemetry's /progress JSON.
type Stats struct {
	Records int   `json:"records"` // record files in the store
	Bytes   int64 `json:"bytes"`   // their total size

	Hits      uint64 `json:"hits"`       // lookups answered by a verified record
	Misses    uint64 `json:"misses"`     // lookups not present (or failing verification)
	Puts      uint64 `json:"puts"`       // records written
	PutErrors uint64 `json:"put_errors"` // writes that failed; the previous record, if any, stays

	Evictions uint64 `json:"evictions"` // records deleted to fit MaxBytes
	Corrupt   uint64 `json:"corrupt"`   // records that failed verification on read and were deleted
}

// payload is a record's JSON body. Workload, Scale, Version and Config
// ride along so a lookup can verify the record answers the question
// asked, and so humans can inspect a record file.
type payload struct {
	Key      string       `json:"key"`
	Version  string       `json:"version"`
	Scale    string       `json:"scale"`
	Workload string       `json:"workload"`
	Config   core.Config  `json:"config"`
	Report   *core.Report `json:"report"`
}

// Store is an open result store. Safe for concurrent use.
type Store struct {
	dir      string
	version  string
	maxBytes int64
	log      io.Writer
	lock     *os.File // advisory cross-process lock on the directory

	mu     sync.Mutex
	closed bool
	stats  Stats
}

// Open opens (or creates) the store in opts.Dir. It removes temp files
// left by a killed writer and counts the record files; it reads no
// record. It fails only when the directory is unusable or another
// process already owns it (the advisory lock is held).
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("resultstore: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	version := opts.Version
	if version == "" {
		var err error
		if version, err = executableDigest(); err != nil {
			return nil, fmt.Errorf("resultstore: key by executable: %w", err)
		}
	}
	lock, err := lockDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		lock:     lock,
		dir:      opts.Dir,
		version:  fmt.Sprintf("%s+schema%d", version, SchemaVersion),
		maxBytes: opts.MaxBytes,
		log:      opts.Log,
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		unlockDir(lock)
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch tmp, _ := filepath.Match(tmpPattern, name); {
		case tmp:
			if err := os.Remove(filepath.Join(opts.Dir, name)); err == nil {
				s.logf("removed %s, left by a writer that did not finish", name)
			}
		case strings.HasSuffix(name, recExt) && e.Type().IsRegular():
			if fi, err := e.Info(); err == nil {
				s.stats.Records++
				s.stats.Bytes += fi.Size()
			}
		}
	}
	return s, nil
}

// executableDigest names the running binary by content: "exe-" plus
// the hex SHA-256 of the file at os.Executable().
func executableDigest() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "exe-" + hex.EncodeToString(h.Sum(nil)), nil
}

func (s *Store) logf(format string, args ...any) {
	if s.log != nil {
		fmt.Fprintf(s.log, "resultstore: "+format+"\n", args...)
	}
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+recExt) }

// Get answers one lookup for a workload run at the given dataset scale.
// The record's checksum and identity (key, workload, scale, version)
// are re-verified on every read; a record that fails is deleted and
// answered as a miss.
func (s *Store) Get(cfg core.Config, workload, scale string) (*core.Report, bool) {
	key := cfg.Hash(workload, scale, s.version)
	path := s.path(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.stats.Misses++
		return nil, false
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.logf("read %s: %v", filepath.Base(path), err)
		}
		s.stats.Misses++
		return nil, false
	}
	p, err := decodeRecord(buf)
	if err == nil && (p.Key != key || p.Workload != workload || p.Scale != scale || p.Version != s.version) {
		err = errors.New("identity mismatch")
	}
	if err != nil {
		s.logf("%s: %v; deleted", filepath.Base(path), err)
		if os.Remove(path) == nil {
			s.stats.Records--
			s.stats.Bytes -= int64(len(buf))
		}
		s.stats.Corrupt++
		s.stats.Misses++
		return nil, false
	}
	// A hit is a use, and eviction goes by mtime. Failing to refresh it
	// only makes this record an earlier eviction candidate.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	s.stats.Hits++
	return p.Report, true
}

// decodeRecord checks one record file's frame and decodes its payload.
// It accepts exactly the bytes encodeRecord writes for the decoded
// payload, so a record that decodes is one Put could have written.
func decodeRecord(buf []byte) (payload, error) {
	var p payload
	if len(buf) < frameLen || [4]byte(buf[:4]) != recordMagic {
		return p, errors.New("bad record magic")
	}
	body := buf[frameLen:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return p, errors.New("checksum mismatch")
	}
	if err := json.Unmarshal(body, &p); err != nil || p.Key == "" || p.Report == nil {
		return p, errors.New("undecodable payload")
	}
	if canon, err := json.Marshal(p); err != nil || !bytes.Equal(canon, body) {
		return p, errors.New("non-canonical payload")
	}
	return p, nil
}

// encodeRecord frames one JSON payload as record file bytes.
func encodeRecord(body []byte) []byte {
	rec := make([]byte, frameLen+len(body))
	copy(rec, recordMagic[:])
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(body, castagnoli))
	copy(rec[frameLen:], body)
	return rec
}

// Put stores one verified result for a workload run at the given
// dataset scale, replacing any earlier record for the same key. A
// failed write returns the error and leaves the store as it was; the
// first one is also logged, and every one is counted in PutErrors.
func (s *Store) Put(cfg core.Config, workload, scale string, rep *core.Report) error {
	key := cfg.Hash(workload, scale, s.version)
	body, err := json.Marshal(payload{
		Key: key, Version: s.version, Scale: scale, Workload: workload,
		Config: cfg.Normalize(), Report: rep,
	})
	if err != nil {
		return fmt.Errorf("resultstore: encode record: %w", err)
	}
	rec := encodeRecord(body)
	path := s.path(key)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("resultstore: store is closed")
	}
	old, _ := os.Stat(path) // nil when there is no earlier record to replace
	if err := s.writeFile(path, rec); err != nil {
		if s.stats.PutErrors++; s.stats.PutErrors == 1 {
			s.logf("put %s: %v (further failures are counted in put_errors, not logged)", filepath.Base(path), err)
		}
		return fmt.Errorf("resultstore: put %s: %w", filepath.Base(path), err)
	}
	if old != nil {
		s.stats.Records--
		s.stats.Bytes -= old.Size()
	}
	s.stats.Records++
	s.stats.Bytes += int64(len(rec))
	s.stats.Puts++
	if s.maxBytes > 0 && s.stats.Bytes > s.maxBytes {
		s.evict(filepath.Base(path))
	}
	return nil
}

// writeFile makes data the content of path, atomically and durably: a
// temp file is written, fsynced and renamed over path, then the
// directory is fsynced so the rename survives a power loss. On failure
// the temp file is removed and path is as it was. The mtime comes from
// the clock Get uses, so puts and hits order alike for eviction.
func (s *Store) writeFile(path string, data []byte) error {
	f, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return err
	}
	tmp := f.Name()
	now := time.Now()
	_, err = f.Write(data)
	if err == nil {
		err = os.Chtimes(tmp, now, now)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	return nil
}

// evict deletes records, oldest mtime first, until the store fits
// MaxBytes; keep, the record just put, is never evicted. The directory
// listing is the truth here, so the size counters are re-based on it.
// Caller holds mu.
func (s *Store) evict(keep string) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		s.logf("evict: %v", err)
		return
	}
	var files []fs.FileInfo
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), recExt) || !e.Type().IsRegular() {
			continue
		}
		if fi, err := e.Info(); err == nil {
			files = append(files, fi)
			total += fi.Size()
		}
	}
	sort.Slice(files, func(i, j int) bool {
		if ti, tj := files[i].ModTime(), files[j].ModTime(); !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return files[i].Name() < files[j].Name()
	})
	n := len(files)
	for _, fi := range files {
		if total <= s.maxBytes {
			break
		}
		if fi.Name() != keep && os.Remove(filepath.Join(s.dir, fi.Name())) == nil {
			total -= fi.Size()
			n--
			s.stats.Evictions++
		}
	}
	s.stats.Records, s.stats.Bytes = n, total
}

// Close releases the directory lock, so another process can open the
// store. Every record Put returned nil for is already durable.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		unlockDir(s.lock)
		s.lock = nil
	}
	return nil
}

// Stats returns the counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// syncDir fsyncs a directory so a rename inside it is durable; best
// effort on platforms where directories cannot be synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
