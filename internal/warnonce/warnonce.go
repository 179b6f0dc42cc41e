// Package warnonce is the one-line answer to a recurring need: a
// condition that can fire thousands of times per campaign (a store
// write failing per job) should reach stderr exactly once, with later
// occurrences counted elsewhere rather than repeated. bench.Runner
// warns through it; a condition checked once per run needs no Warner.
package warnonce

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Warner emits at most one message over its lifetime. The zero value
// writes to stderr; safe for concurrent use.
type Warner struct {
	once sync.Once
	w    io.Writer
}

// New returns a Warner writing to w (nil = stderr). CLIs pass their
// injected stderr so tests can capture the warning.
func New(w io.Writer) *Warner { return &Warner{w: w} }

// Warnf emits the formatted message on the first call and nothing on
// every later one. A trailing newline is appended if missing.
func (wo *Warner) Warnf(format string, args ...any) {
	wo.once.Do(func() {
		w := wo.w
		if w == nil {
			w = os.Stderr
		}
		msg := fmt.Sprintf(format, args...)
		if len(msg) == 0 || msg[len(msg)-1] != '\n' {
			msg += "\n"
		}
		fmt.Fprint(w, msg)
	})
}
