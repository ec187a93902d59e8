package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"canvassing/internal/crawler"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/event"
)

// crawlRun fabricates one crawl's pages and hands out commit states
// for growing frontiers, the way the crawler's committer does: Pages
// aliases one result slice.
type crawlRun struct {
	cond  string
	pages []*crawler.PageResult
}

func newCrawlRun(cond string, total int) *crawlRun {
	r := &crawlRun{cond: cond, pages: make([]*crawler.PageResult, total)}
	for i := range r.pages {
		r.pages[i] = &crawler.PageResult{
			Domain:       fmt.Sprintf("%s-%04d.example", cond, i),
			Rank:         i + 1,
			OK:           i%7 != 3,
			ScriptErrors: map[string]string{fmt.Sprintf("https://s%d.example/a.js", i%5): "boom"},
		}
	}
	return r
}

func (r *crawlRun) at(frontier int) crawler.CommitState {
	return crawler.CommitState{
		Condition: r.cond,
		Frontier:  frontier,
		Total:     len(r.pages),
		Pages:     r.pages[:frontier],
		Final:     frontier == len(r.pages),
	}
}

func recordEvents(s *event.Sink, n int, site string) {
	for i := 0; i < n; i++ {
		s.Record(event.Event{Kind: event.DetectClassify, Crawl: "control", Site: site, Subject: fmt.Sprint(i)})
	}
}

func readJournal(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeJournal(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, FileName), data, 0o600); err != nil {
		t.Fatal(err)
	}
}

// tornFrame is the head of a frame whose append never finished.
const tornFrame = `{"schema":3,"seq":9,"crawls":[{"from":0,"condition":"control","pages":[{"Domain":"x`

// TestLoadEqualsLiveStateAtEveryCut drives a scripted two-crawl run
// with a sink small enough to wrap many times and requires Load, after
// every cut, to deep-equal the live state: page prefixes, retained
// events, metrics, and the sequence/high-water marks.
func TestLoadEqualsLiveStateAtEveryCut(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	sink := event.NewSink(8)
	w := NewWriter(dir, 16)
	w.Metrics, w.Events = reg, sink
	w.Faults = netsim.NewFaultModel(5, 0.1)
	if err := w.SetOpts(map[string]any{"seed": 5}); err != nil {
		t.Fatal(err)
	}
	visits := reg.Counter("crawl.visits.ok")
	lat := reg.Histogram("crawl.visit.seconds", obs.LatencyBuckets())
	runs := []*crawlRun{newCrawlRun("control", 100), newCrawlRun("abp", 50)}
	live := map[string]int{}

	check := func(step string) {
		t.Helper()
		cp, err := Load(dir)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if cp.Sequence != w.Writes() {
			t.Fatalf("%s: seq = %d, want %d", step, cp.Sequence, w.Writes())
		}
		if cp.EventsSeq != sink.Total() || cp.EventsDropped != sink.Dropped() {
			t.Fatalf("%s: events seq/dropped = %d/%d, want %d/%d", step, cp.EventsSeq, cp.EventsDropped, sink.Total(), sink.Dropped())
		}
		if !reflect.DeepEqual(cp.Events, sink.Events()) {
			t.Fatalf("%s: events differ:\n%+v\nwant\n%+v", step, cp.Events, sink.Events())
		}
		if !reflect.DeepEqual(cp.Metrics, reg.Snapshot()) {
			t.Fatalf("%s: metrics differ:\n%+v\nwant\n%+v", step, cp.Metrics, reg.Snapshot())
		}
		for _, r := range runs {
			n, ok := live[r.cond]
			cs := cp.Crawl(r.cond)
			if !ok {
				if cs != nil {
					t.Fatalf("%s: phantom crawl %q", step, r.cond)
				}
				continue
			}
			if cs == nil || cs.Frontier != n || cs.Done != (n == len(r.pages)) {
				t.Fatalf("%s: crawl %q = %+v, want frontier %d", step, r.cond, cs, n)
			}
			if !reflect.DeepEqual(cs.Pages, r.pages[:n]) {
				t.Fatalf("%s: crawl %q page prefix differs", step, r.cond)
			}
		}
	}

	step := 0
	for _, r := range runs {
		hook := w.Hook("intel-mac", "")
		for n := 16; ; n += 16 {
			if n > len(r.pages) {
				n = len(r.pages)
			}
			step++
			// Between 0 and 12 events per cut: some cuts overrun the
			// 8-slot ring, so events are dropped before they are journaled.
			recordEvents(sink, (step*5)%13, r.cond)
			visits.Add(int64(step))
			lat.Observe(float64(step) / 10)
			if hook(r.at(n)) {
				t.Fatal("hook requested a stop")
			}
			live[r.cond] = n
			check(fmt.Sprintf("%s@%d", r.cond, n))
			if n == len(r.pages) {
				break
			}
		}
		recordEvents(sink, 3, "analysis")
		if err := w.FinishPhase("analyze." + r.cond); err != nil {
			t.Fatal(err)
		}
		check("phase " + r.cond)
	}
	if sink.Dropped() == 0 {
		t.Fatal("the scripted run never wrapped the ring")
	}
}

// TestFrameSizeScalesWithDelta: a cut journals only what changed since
// the last one, so with a steady commit rate every frame is about the
// size of the first. Under full rewrites frame k would be k times it.
func TestFrameSizeScalesWithDelta(t *testing.T) {
	dir := t.TempDir()
	w, tel := testWriter(t, dir)
	r := newCrawlRun("control", 64*24+10)
	hook := w.Hook("intel-mac", "")
	for n := 64; n < len(r.pages); n += 64 {
		recordEvents(tel.Events, 4, "site.example")
		tel.Metrics.Counter("crawl.visits.ok").Add(64)
		hook(r.at(n))
	}
	lines := bytes.SplitAfter(readJournal(t, dir), []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines) < 20 {
		t.Fatalf("%d frames, want >= 20", len(lines))
	}
	first := len(lines[0])
	for i, l := range lines[1:] {
		if len(l) > 2*first {
			t.Fatalf("frame %d is %d bytes, more than twice the first frame's %d", i+2, len(l), first)
		}
	}
}

// TestLoadIgnoresTornTail: a crash mid-append leaves a partial last
// line. Load accepts the frames before it, and the first write after
// Adopt cuts the torn bytes away before appending.
func TestLoadIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	r := newCrawlRun("control", 600)
	hook := w.Hook("intel-mac", "")
	hook(r.at(64))
	hook(r.at(128))
	good := readJournal(t, dir)
	writeJournal(t, dir, append(append([]byte(nil), good...), tornFrame...))

	cp, err := Load(dir)
	if err != nil {
		t.Fatalf("torn tail broke Load: %v", err)
	}
	if cp.Sequence != 2 || cp.Crawl("control").Frontier != 128 {
		t.Fatalf("loaded seq %d frontier %d, want 2 and 128", cp.Sequence, cp.Crawl("control").Frontier)
	}

	w2, _ := testWriter(t, dir)
	w2.Adopt(cp)
	w2.Hook("intel-mac", "")(r.at(192))
	data := readJournal(t, dir)
	if !bytes.HasPrefix(data, good) {
		t.Fatal("the append after Adopt rewrote the adopted frames")
	}
	rest := data[len(good):]
	if bytes.Contains(rest, []byte(tornFrame)) || bytes.Count(rest, []byte("\n")) != 1 || rest[len(rest)-1] != '\n' {
		t.Fatalf("torn tail survived the first append after Adopt: %q", rest[:min(len(rest), 120)])
	}
	cp2, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Sequence != 3 || !reflect.DeepEqual(cp2.Crawl("control").Pages, r.pages[:192]) {
		t.Fatalf("continued journal: seq %d, %d pages", cp2.Sequence, len(cp2.Crawl("control").Pages))
	}
}

// TestFreshWriterDiscardsStaleJournal: a writer that adopted nothing
// starts the journal over; nothing of a stale journal in its directory
// survives its first append.
func TestFreshWriterDiscardsStaleJournal(t *testing.T) {
	dir := t.TempDir()
	w, _ := testWriter(t, dir)
	hook := w.Hook("intel-mac", "")
	r := newCrawlRun("control", 600)
	hook(r.at(64))
	hook(r.at(128))
	if err := w.FinishPhase("crawl.control"); err != nil {
		t.Fatal(err)
	}

	w2, _ := testWriter(t, dir)
	abp := newCrawlRun("abp", 100)
	w2.Hook("intel-mac", "abp-sim")(abp.at(64))
	if n := bytes.Count(readJournal(t, dir), []byte("\n")); n != 1 {
		t.Fatalf("journal holds %d frames, want only the fresh writer's one", n)
	}
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Sequence != 1 || cp.Crawl("control") != nil || len(cp.Phases) != 0 {
		t.Fatalf("stale state leaked: seq %d control %v phases %v", cp.Sequence, cp.Crawl("control"), cp.Phases)
	}
	if cs := cp.Crawl("abp"); cs == nil || cs.Frontier != 64 || cs.Extension != "abp-sim" {
		t.Fatalf("abp state = %+v", cs)
	}
}

// TestFailedAppendRejournals: an append that fails advances no cursor.
// The next cut truncates whatever partial bytes the failure left and
// journals every page and event the failed one missed.
func TestFailedAppendRejournals(t *testing.T) {
	dir := t.TempDir()
	w, tel := testWriter(t, dir)
	r := newCrawlRun("control", 600)
	hook := w.Hook("intel-mac", "")
	hook(r.at(64))
	good := readJournal(t, dir)

	// Make the append fail: the journal path is a directory.
	path := filepath.Join(dir, FileName)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	recordEvents(tel.Events, 3, "missed.example")
	if hook(r.at(128)) {
		t.Fatal("a failed write requested a stop")
	}
	if w.Writes() != 1 {
		t.Fatalf("writes = %d after a failed append, want 1", w.Writes())
	}

	// The failure left the good frames plus partial bytes behind.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	writeJournal(t, dir, append(append([]byte(nil), good...), tornFrame...))
	recordEvents(tel.Events, 2, "later.example")
	hook(r.at(192))

	data := readJournal(t, dir)
	if !bytes.HasPrefix(data, good) || bytes.Contains(data, []byte(tornFrame)) || bytes.Count(data, []byte("\n")) != 2 {
		t.Fatalf("journal after the retry is not the good frame plus one new frame")
	}
	cp, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Sequence != 2 || w.Writes() != 2 {
		t.Fatalf("seq %d writes %d, want 2 and 2", cp.Sequence, w.Writes())
	}
	if !reflect.DeepEqual(cp.Crawl("control").Pages, r.pages[:192]) {
		t.Fatalf("missed pages not re-journaled: %d pages", len(cp.Crawl("control").Pages))
	}
	if !reflect.DeepEqual(cp.Events, tel.Events.Events()) {
		t.Fatalf("missed events not re-journaled: %d of %d", len(cp.Events), tel.Events.Len())
	}
}

// TestLoadRejectsBrokenJournals: every complete frame must continue
// the journaled page prefix, and the retained events must be exactly
// (EventsDropped, EventsSeq]. Anything else is a clean error.
func TestLoadRejectsBrokenJournals(t *testing.T) {
	page := func(i int) *crawler.PageResult { return &crawler.PageResult{Domain: fmt.Sprintf("p%d.example", i)} }
	crawl := func(from, n, total int) crawlFrame {
		c := crawlFrame{From: from, CrawlState: CrawlState{Condition: "control", Total: total, Frontier: from + n}}
		for i := 0; i < n; i++ {
			c.Pages = append(c.Pages, page(from+i))
		}
		return c
	}
	ev := func(seq uint64) event.Event { return event.Event{Schema: 1, Seq: seq, Kind: event.DetectClassify} }
	fr := func(seq int, evSeq, dropped uint64, evs []event.Event, crawls ...crawlFrame) frame {
		f := frame{Checkpoint: Checkpoint{Schema: SchemaVersion, Sequence: seq, EventsSeq: evSeq, EventsDropped: dropped, Events: evs}}
		f.Crawls = crawls
		return f
	}
	encode := func(frames ...frame) []byte {
		var buf bytes.Buffer
		for _, f := range frames {
			data, err := json.Marshal(&f)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(data, '\n'))
		}
		return buf.Bytes()
	}
	first := fr(1, 2, 0, []event.Event{ev(1), ev(2)}, crawl(0, 2, 10))

	dir := t.TempDir()
	writeJournal(t, dir, encode(first, fr(2, 3, 0, []event.Event{ev(3)}, crawl(2, 3, 10))))
	if cp, err := Load(dir); err != nil || cp.Crawl("control").Frontier != 5 || len(cp.Events) != 3 {
		t.Fatalf("well-formed journal: %v", err)
	}

	for name, data := range map[string][]byte{
		"gap":                  encode(first, fr(2, 2, 0, nil, crawl(3, 1, 10))),
		"overlap":              encode(first, fr(2, 2, 0, nil, crawl(1, 2, 10))),
		"first frame not at 0": encode(fr(1, 0, 0, nil, crawl(4, 1, 10))),
		"frontier mismatch":    encode(first, fr(2, 2, 0, nil, func() crawlFrame { c := crawl(2, 1, 10); c.Frontier = 7; return c }())),
		"frontier past total":  encode(first, fr(2, 2, 0, nil, crawl(2, 9, 10))),
		"done short of total":  encode(fr(1, 0, 0, nil, func() crawlFrame { c := crawl(0, 2, 10); c.Done = true; return c }())),
		"null page":            encode(fr(1, 0, 0, nil, func() crawlFrame { c := crawl(0, 2, 10); c.Pages[1] = nil; return c }())),
		"event missing":        encode(first, fr(2, 4, 0, []event.Event{ev(3)})),
		"event extra":          encode(first, fr(2, 2, 0, []event.Event{ev(3)})),
		"event seq gap":        encode(fr(1, 2, 0, []event.Event{ev(1), ev(3)})),
		"event out of order":   encode(fr(1, 2, 0, []event.Event{ev(2), ev(1)})),
		"dropped above seq":    encode(fr(1, 1, 3, nil)),
		"old schema frame":     append(encode(first), []byte(`{"schema":1,"seq":2,"metrics":{},"events_seq":2}`+"\n")...),
		"garbage frame":        append(encode(first), []byte("not json\n")...),
	} {
		writeJournal(t, dir, data)
		if cp, err := Load(dir); err == nil {
			t.Errorf("%s: Load accepted a broken journal: %+v", name, cp)
		} else if !strings.HasPrefix(err.Error(), "checkpoint: ") {
			t.Errorf("%s: unwrapped error %v", name, err)
		}
	}

	for name, data := range map[string][]byte{"empty": nil, "torn only": []byte(tornFrame)} {
		writeJournal(t, dir, data)
		if _, err := Load(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: err = %v, want one wrapping os.ErrNotExist", name, err)
		}
	}
}

// journalSeed is a real multi-frame journal: two crawls, a phase, and
// a wrapping event ring.
func journalSeed(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	w := NewWriter(dir, 1)
	w.Metrics, w.Events = obs.NewRegistry(), event.NewSink(2)
	w.Faults = netsim.NewFaultModel(3, 0.2)
	for _, r := range []*crawlRun{newCrawlRun("control", 2), newCrawlRun("abp", 1)} {
		hook := w.Hook("intel-mac", "")
		for n := 1; n <= len(r.pages); n++ {
			recordEvents(w.Events, 3, r.cond)
			w.Metrics.Counter("crawl.visits.ok").Inc()
			hook(r.at(n))
		}
		if err := w.FinishPhase("crawl." + r.cond); err != nil {
			f.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzLoadCheckpoint: Load on arbitrary journal bytes either returns a
// clean error or a checkpoint whose invariants hold — every crawl's
// page prefix matches its frontier within its total, and the retained
// events are exactly (EventsDropped, EventsSeq] in increasing order.
// It drives decode, everything Load does after opening the file, so an
// input costs no file-system round trip.
func FuzzLoadCheckpoint(f *testing.F) {
	seed := journalSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(append(append([]byte(nil), seed...), tornFrame...))
	f.Add([]byte("{\n  \"schema\": 1\n}\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, cs := range cp.Crawls {
			if len(cs.Pages) != cs.Frontier || cs.Frontier > cs.Total {
				t.Fatalf("crawl %q: %d pages, frontier %d, total %d", cs.Condition, len(cs.Pages), cs.Frontier, cs.Total)
			}
		}
		if uint64(len(cp.Events)) != cp.EventsSeq-cp.EventsDropped {
			t.Fatalf("%d events retained, marks (%d, %d]", len(cp.Events), cp.EventsDropped, cp.EventsSeq)
		}
		for i := 1; i < len(cp.Events); i++ {
			if cp.Events[i].Seq <= cp.Events[i-1].Seq {
				t.Fatalf("event seqs not increasing at %d", i)
			}
		}
	})
}
