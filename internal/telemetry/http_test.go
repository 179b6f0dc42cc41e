package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// get fetches a path from the server, returning status, content type
// and body.
func get(t *testing.T, s *Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get("http://" + s.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestServeEndpoints exercises the live HTTP surface end to end:
// /metrics serves the exposition format with its versioned content
// type, /progress serves a parseable JSON snapshot with the span table,
// /debug/pprof answers, and /quit releases WaitQuit so -http-linger can
// end early.
func TestServeEndpoints(t *testing.T) {
	c, _ := testCampaign()
	c.SetWorkers(2)
	c.SetStoreStats(func() resultstore.Stats { return resultstore.Stats{Hits: 2} })
	c.BeginGroup("fig2")
	sp := c.Enqueue("fir", "cfg")
	sp.Start()
	sp.Done()
	c.SetComplete()

	s, err := Serve("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	code, ct, body := get(t, s, "/metrics")
	if code != 200 || ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics: code=%d content-type=%q", code, ct)
	}
	if !strings.Contains(body, "memsim_jobs_done_total 1") {
		t.Fatalf("/metrics missing contract metric:\n%s", body)
	}

	code, ct, body = get(t, s, "/progress")
	if code != 200 || ct != "application/json" {
		t.Fatalf("/progress: code=%d content-type=%q", code, ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if !snap.Complete || snap.Done != 1 || len(snap.Spans) != 1 {
		t.Fatalf("/progress snapshot: %+v", snap)
	}
	if snap.Spans[0].Workload != "fir" || snap.Spans[0].State != "done" {
		t.Fatalf("/progress span: %+v", snap.Spans[0])
	}
	// The store block's wire keys are resultstore.Stats' JSON tags.
	var raw struct {
		Store map[string]any `json:"store"`
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw.Store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wantKeys := []string{"bytes", "compactions", "corrupt", "evictions", "hits", "misses",
		"put_errors", "puts", "records", "recovered", "truncated_bytes"}
	if !reflect.DeepEqual(keys, wantKeys) || raw.Store["hits"] != 2.0 {
		t.Fatalf("/progress store block: %v", raw.Store)
	}

	if code, _, _ := get(t, s, "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: code=%d", code)
	}

	// /quit must release a long WaitQuit well before its deadline.
	done := make(chan struct{})
	go func() {
		s.WaitQuit(time.Minute)
		close(done)
	}()
	if code, _, body := get(t, s, "/quit"); code != 200 || body != "bye\n" {
		t.Fatalf("/quit: code=%d body=%q", code, body)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitQuit not released by /quit")
	}
}

// TestServerCloseIdempotent pins Close on nil and after double call,
// and WaitQuit's immediate return for non-positive lingers.
func TestServerCloseIdempotent(t *testing.T) {
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	nilSrv.WaitQuit(time.Second)
	if nilSrv.Addr() != "" {
		t.Fatal("nil Addr not empty")
	}

	s, err := Serve("127.0.0.1:0", nil) // nil campaign: endpoints still answer
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, s, "/metrics"); code != 200 {
		t.Fatalf("/metrics on nil campaign: code=%d", code)
	}
	s.WaitQuit(0) // returns immediately
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
		t.Fatalf("second Close: %v", err)
	}
}
