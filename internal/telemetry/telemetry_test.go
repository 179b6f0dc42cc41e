package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/resultstore"
)

// fakeClock is the injectable campaign clock: tests advance it by hand
// so queue waits, ETAs and elapsed times are exact.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// testCampaign returns a campaign on a fake clock starting at a fixed
// instant.
func testCampaign() (*Campaign, *fakeClock) {
	fc := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCampaign()
	c.now = fc.now
	c.begun = fc.t
	return c, fc
}

// conserved checks the span-conservation invariant on a snapshot:
// every opened span is in exactly one state.
func conserved(s Snapshot) bool {
	return s.Enqueued == s.Queued+s.Running+s.Done+s.Failed+s.StoreSpan
}

// TestStoreHitSpanAndStats pins the store-hit terminal state: it
// conserves spans, rolls up per figure, stays out of the ETA rate, and
// the attached store-stats provider surfaces in snapshots.
func TestStoreHitSpanAndStats(t *testing.T) {
	c, fc := testCampaign()
	c.SetStoreStats(func() resultstore.Stats { return resultstore.Stats{Hits: 3, Misses: 1, Puts: 1} })
	c.BeginGroup("fig2")
	hit := c.Enqueue("fir", "cfg")
	sim := c.Enqueue("aes", "cfg")
	hit.Start()
	hit.StoreHit()

	s := c.Snapshot(true)
	if s.StoreSpan != 1 || !conserved(s) {
		t.Fatalf("after store hit: %+v", s)
	}
	if s.Spans[0].State != "store-hit" {
		t.Fatalf("span state: %+v", s.Spans[0])
	}
	if s.Store == nil || s.Store.Hits != 3 {
		t.Fatalf("store stats block: %+v", s.Store)
	}
	if s.Figures[0].StoreHits != 1 {
		t.Fatalf("figure rollup: %+v", s.Figures[0])
	}
	// Only the unsimulated job remains; the store hit finished nothing,
	// so the ETA is still unknown.
	fc.advance(time.Second)
	if eta := c.Snapshot(false).ETASeconds; eta != -1 {
		t.Fatalf("eta after store hit = %v, want -1 (no real completion yet)", eta)
	}
	sim.Start()
	sim.Done()
	if eta := c.Snapshot(false).ETASeconds; eta != 0 {
		t.Fatalf("eta after completion = %v, want 0", eta)
	}
}

// TestSpanLifecycle walks one job through queued → running → done and
// checks every intermediate snapshot.
func TestSpanLifecycle(t *testing.T) {
	c, fc := testCampaign()
	c.BeginGroup("fig2")
	sp := c.Enqueue("fir", "CC 4 cores @800 MHz")

	s := c.Snapshot(true)
	if s.Queued != 1 || s.Enqueued != 1 || s.MemoMisses != 1 {
		t.Fatalf("after enqueue: %+v", s)
	}
	if s.Spans[0].State != "queued" || s.Spans[0].Workload != "fir" {
		t.Fatalf("span snapshot: %+v", s.Spans[0])
	}

	fc.advance(2 * time.Second)
	sp.Start()
	s = c.Snapshot(true)
	if s.Running != 1 || s.Queued != 0 {
		t.Fatalf("after start: %+v", s)
	}
	if s.Spans[0].QueueWaitNS != (2 * time.Second).Nanoseconds() {
		t.Fatalf("span queue wait = %d", s.Spans[0].QueueWaitNS)
	}

	fc.advance(2 * time.Second)
	sp.Done()

	s = c.Snapshot(true)
	if s.Done != 1 || s.Running != 0 {
		t.Fatalf("after done: %+v", s)
	}
	got := s.Spans[0]
	if got.State != "done" || got.StartedNS != (2*time.Second).Nanoseconds() {
		t.Fatalf("final span: %+v", got)
	}
	if got.QueueWaitNS != (2 * time.Second).Nanoseconds() {
		t.Fatalf("queue wait changed after start: %d", got.QueueWaitNS)
	}
	if got.EndedNS != (4 * time.Second).Nanoseconds() {
		t.Fatalf("ended = %dns, want 4s", got.EndedNS)
	}
	if !conserved(s) {
		t.Fatalf("conservation broken: %+v", s)
	}
}

// TestFailCountsWatchdogAborts pins the timeout→watchdog attribution
// and the figure rollup of failures.
func TestFailCountsWatchdogAborts(t *testing.T) {
	c, _ := testCampaign()
	c.BeginGroup("fig4")
	sp := c.Enqueue("stall", "cfg")
	sp.Start()
	sp.Fail("timeout")
	sp2 := c.Enqueue("dead", "cfg")
	sp2.Start()
	sp2.Fail("deadlock")

	s := c.Snapshot(true)
	if s.Failed != 2 || s.WatchdogAborts != 1 {
		t.Fatalf("failed=%d watchdog=%d, want 2/1", s.Failed, s.WatchdogAborts)
	}
	if s.Spans[0].ErrKind != "timeout" || s.Spans[1].ErrKind != "deadlock" {
		t.Fatalf("err kinds: %+v", s.Spans)
	}
	if len(s.Figures) != 1 || s.Figures[0].Failed != 2 || s.Figures[0].Total != 2 {
		t.Fatalf("figure rollup: %+v", s.Figures)
	}
}

// TestMemoHitOpensNoSpan pins the in-campaign memo path: a duplicate
// request only bumps the counter, while the admitted job keeps its one
// span.
func TestMemoHitOpensNoSpan(t *testing.T) {
	c, _ := testCampaign()
	c.BeginGroup("table3")
	sp := c.Enqueue("fir", "cfg")
	c.MemoHit()
	c.MemoHit()
	sp.Start()
	sp.Done()

	s := c.Snapshot(true)
	if s.Enqueued != 1 || s.Done != 1 || s.MemoHits != 2 || s.MemoMisses != 1 {
		t.Fatalf("snapshot: %+v", s)
	}
	if len(s.Spans) != 1 || s.Figures[0].Total != 1 || s.Figures[0].Done != 1 {
		t.Fatalf("memo hits opened spans: %+v", s)
	}
	if !conserved(s) {
		t.Fatalf("conservation broken: %+v", s)
	}
}

// TestETA pins the three ETA regimes: unknown before anything finishes,
// rate-extrapolated mid-campaign, zero once nothing remains.
func TestETA(t *testing.T) {
	c, fc := testCampaign()
	sps := make([]*Span, 4)
	for i := range sps {
		sps[i] = c.Enqueue("fir", "cfg")
	}

	fc.advance(10 * time.Second)
	if eta := c.Snapshot(false).ETASeconds; eta != -1 {
		t.Fatalf("eta with nothing finished = %v, want -1", eta)
	}

	sps[0].Start()
	sps[0].Done() // 1 finished in 10s → rate 0.1/s, 3 remaining → 30s
	if eta := c.Snapshot(false).ETASeconds; eta != 30 {
		t.Fatalf("eta = %v, want 30", eta)
	}

	for _, sp := range sps[1:] {
		sp.Start()
		sp.Done()
	}
	if eta := c.Snapshot(false).ETASeconds; eta != 0 {
		t.Fatalf("eta with nothing remaining = %v, want 0", eta)
	}
}

// TestErrCellAttribution pins ErrCell to the figure group current at
// render time, not the one that admitted the job.
func TestErrCellAttribution(t *testing.T) {
	c, _ := testCampaign()
	c.BeginGroup("fig2")
	sp := c.Enqueue("dead", "cfg")
	sp.Start()
	sp.Fail("deadlock")
	c.BeginGroup("fig3")
	c.ErrCell() // the shared failed job poisons a fig3 cell too

	s := c.Snapshot(false)
	if s.ErrCells != 1 {
		t.Fatalf("err cells = %d, want 1", s.ErrCells)
	}
	var fig3 *FigureSnapshot
	for i := range s.Figures {
		if s.Figures[i].Figure == "fig3" {
			fig3 = &s.Figures[i]
		}
	}
	if fig3 == nil || fig3.ErrCells != 1 {
		t.Fatalf("fig3 rollup: %+v", s.Figures)
	}
}

// TestNilCampaignIsNoOp pins the package-wide nil contract: every
// method on a nil *Campaign and nil *Span is safe, and a nil snapshot
// reports an unknown ETA.
func TestNilCampaignIsNoOp(t *testing.T) {
	var c *Campaign
	c.SetWorkers(4)
	c.BeginGroup("fig2")
	sp := c.Enqueue("fir", "cfg")
	if sp != nil {
		t.Fatal("nil campaign returned a non-nil span")
	}
	c.MemoHit()
	c.ErrCell()
	c.SetComplete()
	sp.Start()
	sp.Done()
	sp.Fail("timeout")
	if err := c.WriteMetrics(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteMetrics: %v", err)
	}
	if s := c.Snapshot(true); s.ETASeconds != -1 || s.Enqueued != 0 {
		t.Fatalf("nil snapshot: %+v", s)
	}

	var sl *StatusLine
	sl.Start(0)
	sl.Stop()
}

// TestConservationUnderScrape hammers a campaign from writer goroutines
// while scraping snapshots and metrics concurrently; under -race this
// doubles as the data-race proof for the one-mutex design. Every
// observed snapshot must satisfy the conservation invariant.
func TestConservationUnderScrape(t *testing.T) {
	c, _ := testCampaign()
	c.now = time.Now // real clock: interleavings matter more than values
	const writers, jobsPer = 4, 50

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot(true)
			if !conserved(s) {
				t.Errorf("conservation broken: enq=%d q=%d r=%d d=%d f=%d st=%d",
					s.Enqueued, s.Queued, s.Running, s.Done, s.Failed, s.StoreSpan)
				return
			}
			if err := c.WriteMetrics(&bytes.Buffer{}); err != nil {
				t.Errorf("WriteMetrics: %v", err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < jobsPer; j++ {
				sp := c.Enqueue("fir", "cfg")
				sp.Start()
				switch j % 4 {
				case 0, 1:
					sp.Done()
				case 2:
					sp.Fail("timeout")
				case 3:
					sp.StoreHit()
				}
				c.MemoHit()
			}
		}(w)
	}
	wg.Wait() // writers first; then stop the scraper
	close(stop)
	scraper.Wait()

	s := c.Snapshot(false)
	if s.Enqueued != writers*jobsPer || !conserved(s) {
		t.Fatalf("final snapshot: %+v", s)
	}
	// j%4 over 0..49: 13 + 13 done, 12 failed, 12 store hits per writer.
	if s.Done != writers*26 || s.Failed != writers*12 || s.StoreSpan != writers*12 {
		t.Fatalf("final tallies: %+v", s)
	}
}

// TestStatusLine pins the TTY line's shape and the writer interleaving
// contract: payload lines pass through intact between redraws.
func TestStatusLine(t *testing.T) {
	c, fc := testCampaign()
	sp := c.Enqueue("fir", "cfg")
	sp.Start()
	sp.Done()
	c.Enqueue("aes", "cfg")
	fc.advance(time.Second)

	var buf bytes.Buffer
	sl := NewStatusLine(&buf, c)
	sl.Start(time.Hour) // tick far away; draws happen via Writer
	w := sl.Writer()
	if _, err := w.Write([]byte("fig2 row\n")); err != nil {
		t.Fatal(err)
	}
	sl.Stop()
	sl.Stop() // idempotent

	out := buf.String()
	if !strings.Contains(out, "fig2 row\n") {
		t.Fatalf("payload lost: %q", out)
	}
	if !strings.Contains(out, "1/2 done") {
		t.Fatalf("status line missing tally: %q", out)
	}
	if !strings.HasSuffix(out, "\r\x1b[K") {
		t.Fatalf("Stop did not clear the line: %q", out)
	}
}

// TestStatusLineCountsStoreHits: a store hit is finished work, so a
// campaign whose jobs all resolved, some from the store, reads N/N.
func TestStatusLineCountsStoreHits(t *testing.T) {
	c, _ := testCampaign()
	hit := c.Enqueue("fir", "cfg")
	hit.Start()
	hit.StoreHit()
	sim := c.Enqueue("aes", "cfg")
	sim.Start()
	sim.Done()

	var buf bytes.Buffer
	sl := NewStatusLine(&buf, c)
	sl.Start(time.Hour)
	if _, err := sl.Writer().Write([]byte("row\n")); err != nil {
		t.Fatal(err)
	}
	sl.Stop()
	if want := "# 2/2 done · 0 running · 0 queued · 1 stored"; !strings.Contains(buf.String(), want) {
		t.Fatalf("status line %q, want %q", buf.String(), want)
	}
}

// TestIsTerminal: bytes.Buffer is not a terminal; a pipe is a *os.File
// but still not a char device.
func TestIsTerminal(t *testing.T) {
	if IsTerminal(&bytes.Buffer{}) {
		t.Fatal("buffer reported as terminal")
	}
}
