package telemetry

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// IsTerminal reports whether w is an interactive terminal (an *os.File
// whose mode is a character device). The CLIs use it to decide between
// the in-place status line (humans) and plain progress lines (pipes,
// CI, tests — whose output must stay byte-identical to pre-telemetry
// builds).
func IsTerminal(w io.Writer) bool {
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

// StatusLine maintains a single in-place line at the bottom of a
// terminal summarizing the campaign (done/total, running, queued, store
// hits, failures, ETA), redrawn on a ticker. Progress lines from the
// runner go through Writer, which lifts the status line out of the way
// so ordinary output scrolls above it.
type StatusLine struct {
	mu      sync.Mutex
	w       io.Writer
	c       *Campaign
	ticker  *time.Ticker
	stop    chan struct{}
	stopped sync.WaitGroup
	active  bool // a status line is currently drawn
	started bool
}

// NewStatusLine attaches a status line for c to terminal w. Call Start
// to begin drawing.
func NewStatusLine(w io.Writer, c *Campaign) *StatusLine {
	return &StatusLine{w: w, c: c}
}

// Start begins redrawing every interval (0 means 500ms).
func (l *StatusLine) Start(interval time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started {
		return
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	l.started = true
	l.ticker = time.NewTicker(interval)
	l.stop = make(chan struct{})
	l.stopped.Add(1)
	go func() {
		defer l.stopped.Done()
		for {
			select {
			case <-l.ticker.C:
				l.mu.Lock()
				l.draw()
				l.mu.Unlock()
			case <-l.stop:
				return
			}
		}
	}()
}

// Stop halts redrawing and clears the line. Idempotent.
func (l *StatusLine) Stop() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if !l.started {
		l.mu.Unlock()
		return
	}
	l.started = false
	l.ticker.Stop()
	close(l.stop)
	l.clear()
	l.mu.Unlock()
	l.stopped.Wait()
}

// clear erases the drawn status line, leaving the cursor at column 0.
// Caller holds mu.
func (l *StatusLine) clear() {
	if l.active {
		fmt.Fprint(l.w, "\r\x1b[K")
		l.active = false
	}
}

// draw renders the current snapshot in place. Caller holds mu.
func (l *StatusLine) draw() {
	if !l.started {
		return
	}
	snap := l.c.Snapshot(false)
	finished := snap.Done + snap.Failed + snap.StoreSpan
	line := fmt.Sprintf("# %d/%d done · %d running · %d queued · %d stored",
		finished, snap.Enqueued, snap.Running, snap.Queued, snap.StoreSpan)
	if snap.Failed > 0 {
		line += fmt.Sprintf(" · %d FAILED", snap.Failed)
	}
	if snap.ETASeconds > 0 {
		line += fmt.Sprintf(" · eta %s", time.Duration(snap.ETASeconds*float64(time.Second)).Round(time.Second))
	}
	fmt.Fprintf(l.w, "\r\x1b[K%s", line)
	l.active = true
}

// Writer returns the io.Writer the runner's Progress should point at:
// each Write clears the status line, emits the payload (a normal
// scrolling progress line), and redraws the status underneath.
func (l *StatusLine) Writer() io.Writer {
	return statusWriter{l}
}

type statusWriter struct{ l *StatusLine }

func (sw statusWriter) Write(p []byte) (int, error) {
	sw.l.mu.Lock()
	defer sw.l.mu.Unlock()
	sw.l.clear()
	n, err := sw.l.w.Write(p)
	if sw.l.started {
		sw.l.draw()
	}
	return n, err
}
