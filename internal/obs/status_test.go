package obs

import (
	"testing"
	"time"
)

func TestStatusLifecycle(t *testing.T) {
	s := NewStatus()
	if s.State() != StateInit || s.Ready() {
		t.Fatalf("fresh status: state=%q ready=%v", s.State(), s.Ready())
	}
	s.MarkRunning()
	if s.State() != StateRunning || !s.Ready() {
		t.Fatal("running must be ready")
	}
	s.MarkDone()
	if s.State() != StateDone || !s.Ready() {
		t.Fatal("done must stay ready")
	}
	s.MarkFailed()
	if s.State() != StateFailed || s.Ready() {
		t.Fatal("failed must not be ready")
	}
}

// TestStatusNilSafe: every method must no-op on a nil receiver so bare
// Telemetry literals (no Status) keep working.
func TestStatusNilSafe(t *testing.T) {
	var s *Status
	s.MarkRunning()
	s.MarkDone()
	s.MarkFailed()
	s.CrawlProgress("control", 1, 2, false)
	s.RecordAnalysis("control", 1, 2)
	s.CheckpointWrite("dir", 1, false)
	if s.State() != StateInit || s.Ready() {
		t.Fatal("nil status must report init / not ready")
	}
	if _, ok := s.ActiveCrawl(); ok {
		t.Fatal("nil status has no active crawl")
	}
	if snap := s.Snapshot(); snap.State != StateInit {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

func TestCrawlProgressAndActiveCrawl(t *testing.T) {
	s := NewStatus()
	s.CrawlProgress("control", 0, 100, false)
	s.CrawlProgress("control", 40, 100, false)
	s.CrawlProgress("abp", 0, 100, false)

	c, ok := s.ActiveCrawl()
	if !ok || c.Condition != "control" || c.Frontier != 40 {
		t.Fatalf("active crawl = %+v ok=%v", c, ok)
	}
	s.CrawlProgress("control", 100, 100, true)
	c, ok = s.ActiveCrawl()
	if !ok || c.Condition != "abp" {
		t.Fatalf("after control done, active = %+v ok=%v", c, ok)
	}
	s.CrawlProgress("abp", 100, 100, true)
	if _, ok := s.ActiveCrawl(); ok {
		t.Fatal("all crawls done but one still reported active")
	}

	snap := s.Snapshot()
	if len(snap.Crawls) != 2 || !snap.Crawls[0].Done || !snap.Crawls[1].Done {
		t.Fatalf("crawls = %+v", snap.Crawls)
	}
	// Empty condition is dropped, not registered.
	s.CrawlProgress("", 1, 2, false)
	if len(s.Snapshot().Crawls) != 2 {
		t.Fatal("empty condition must be ignored")
	}
}

func TestCheckpointAndAnalysisStatus(t *testing.T) {
	s := NewStatus()
	base := time.Unix(5000, 0)
	s.now = func() time.Time { return base }
	s.CheckpointWrite("/tmp/ckpt", 3, false)
	s.RecordAnalysis("control", 800, 120)

	snap := s.Snapshot()
	if snap.Checkpoint == nil || snap.Checkpoint.Writes != 3 || !snap.Checkpoint.LastWrite.Equal(base) {
		t.Fatalf("checkpoint = %+v", snap.Checkpoint)
	}
	if len(snap.Analyses) != 1 || snap.Analyses[0].Canvases != 120 {
		t.Fatalf("analyses = %+v", snap.Analyses)
	}
}
