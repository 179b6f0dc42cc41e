package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test poll stderr while the campaign goroutine
// writes to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var servingLine = regexp.MustCompile(`telemetry on http://(\S+) `)

// httpGet fetches a URL, failing the test on transport errors.
func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestLiveTelemetryEndpoints runs a small fig2 campaign with -http and
// scrapes it while it is alive: /progress must reach complete with the
// span-conservation invariant intact, /metrics must agree with the
// manifest on the fresh-simulation count (the CI contract), and /quit
// must end the -http-linger period with a clean exit.
func TestLiveTelemetryEndpoints(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	stderr := &syncBuffer{}
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-scale", "small", "-only", "fig2", "-apps", "fir", "-q",
			"-artifacts", dir, "-http", "127.0.0.1:0", "-http-linger", "1m"}, &stdout, stderr)
	}()

	// The serving line is printed before the campaign starts.
	var addr string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := servingLine.FindStringSubmatch(stderr.String()); m != nil {
			addr = m[1]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no telemetry serving line on stderr: %q", stderr.String())
	}

	// Poll /progress until the campaign completes, checking conservation
	// on every live snapshot scraped along the way.
	type progress struct {
		Complete bool `json:"complete"`
		Enqueued int  `json:"enqueued"`
		Queued   int  `json:"queued"`
		Running  int  `json:"running"`
		Done     int  `json:"done"`
		Failed   int  `json:"failed"`
		Stored   int  `json:"store_hits_spans"`
		Figures  []struct {
			Figure string `json:"figure"`
			Total  int    `json:"total"`
			Done   int    `json:"done"`
		} `json:"figures"`
		Spans []json.RawMessage `json:"spans"`
	}
	var p progress
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never completed; last progress: %+v", p)
		}
		body := httpGet(t, "http://"+addr+"/progress")
		p = progress{}
		if err := json.Unmarshal([]byte(body), &p); err != nil {
			t.Fatalf("/progress not JSON: %v\n%s", err, body)
		}
		if p.Enqueued != p.Queued+p.Running+p.Done+p.Failed+p.Stored {
			t.Fatalf("conservation broken in live snapshot: %+v", p)
		}
		if p.Complete {
			break
		}
	}
	if p.Done == 0 || len(p.Spans) != p.Enqueued {
		t.Fatalf("final progress: %+v", p)
	}
	var fig2 bool
	for _, f := range p.Figures {
		if f.Figure == "fig2" && f.Total > 0 && f.Done == f.Total {
			fig2 = true
		}
	}
	if !fig2 {
		t.Fatalf("no completed fig2 rollup: %+v", p.Figures)
	}

	// The CI contract: the metric equals the manifest record count.
	metrics := httpGet(t, "http://"+addr+"/metrics")
	runs, failed := countRuns(t, filepath.Join(dir, "manifest.jsonl"))
	if failed != 0 {
		t.Fatalf("campaign had %d failed runs", failed)
	}
	want := fmt.Sprintf("memsim_jobs_done_total %d\n", runs)
	if !strings.Contains(metrics, want) {
		t.Fatalf("metrics disagree with manifest (%d runs):\n%s", runs, metrics)
	}
	if !strings.Contains(metrics, "memsim_campaign_complete 1\n") {
		t.Fatal("metrics do not report the campaign complete")
	}

	httpGet(t, "http://"+addr+"/quit")
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("/quit did not end the linger period")
	}
}

// TestTelemetryOutputByteIdentical is the zero-perturbation acceptance
// check: the full default output of a campaign must be byte-identical
// with telemetry serving and without it.
func TestTelemetryOutputByteIdentical(t *testing.T) {
	campaign := func(extra ...string) string {
		var stdout bytes.Buffer
		stderr := &syncBuffer{}
		args := append([]string{"-scale", "small", "-only", "fig2", "-apps", "fir"}, extra...)
		if code := run(args, &stdout, stderr); code != 0 {
			t.Fatalf("run(%v) = %d (stderr: %s)", args, code, stderr.String())
		}
		return stdout.String()
	}
	plain := campaign()
	served := campaign("-http", "127.0.0.1:0")
	if plain != served {
		t.Fatalf("stdout differs with -http on:\n--- off ---\n%s\n--- on ---\n%s", plain, served)
	}
}
