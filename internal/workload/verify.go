package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"unsafe"
)

// refSums is the process-wide Verify memo for workloads whose reference
// output is costly to recompute (fir, mergesort, bitonicsort): the
// sha256 of a workload's inputs maps to the sha256 of the output its
// reference produced. Only digests are kept, never reference arrays, so
// the memo adds no resident memory worth counting. Runs verify from
// concurrent workers, hence the mutex.
var refSums struct {
	sync.Mutex
	m map[[32]byte][32]byte
}

// verifyMemo returns nil at once when the memo holds out as the
// reference output's digest for inputs in. Otherwise it runs check, the
// full reference comparison, which names the first wrong element on a
// mismatch; when check passes, out is the reference's digest and is
// remembered.
func verifyMemo(in, out [32]byte, check func() error) error {
	refSums.Lock()
	want, ok := refSums.m[in]
	refSums.Unlock()
	if ok && want == out {
		return nil
	}
	if err := check(); err != nil {
		return err
	}
	refSums.Lock()
	if refSums.m == nil {
		refSums.m = make(map[[32]byte][32]byte)
	}
	refSums.m[in] = out
	refSums.Unlock()
	return nil
}

// inputSum digests a workload's name and input arrays, each prefixed
// by its length so no two input sets share a byte stream.
func inputSum[T uint32 | float32](name string, parts ...[]T) [32]byte {
	h := sha256.New()
	h.Write([]byte(name))
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(wordBytes(p))
	}
	var s [32]byte
	h.Sum(s[:0])
	return s
}

// outputSum digests an output array.
func outputSum[T uint32 | float32](out []T) [32]byte { return sha256.Sum256(wordBytes(out)) }

// wordBytes views a slice of 4-byte words as its bytes in host order,
// which is all a per-process memo needs.
func wordBytes[T uint32 | float32](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}
