//go:build unix

package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir enforces the one-process-per-store-directory rule: it takes a
// non-blocking exclusive flock on DIR/store.lock and fails when another
// process (or another open Store — flock is per file description)
// already holds it. Without this, two writers would each keep their
// own count of the store's size and evict records under each other.
// The lock dies with the process, so a SIGKILLed campaign never wedges
// the store; the lock file itself is empty and carries no state.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultstore: open lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK || err == syscall.EAGAIN {
			return nil, fmt.Errorf("resultstore: store directory %s is in use by another process (one process owns a store at a time; close it or use a different -store)", dir)
		}
		return nil, fmt.Errorf("resultstore: lock store directory: %w", err)
	}
	return f, nil
}

// unlockDir releases a lock taken by lockDir. nil-safe.
func unlockDir(f *os.File) {
	if f == nil {
		return
	}
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	f.Close()
}
