package event

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestJSONLGolden pins the events.jsonl wire format. If this test
// fails because Event's JSON shape changed, bump SchemaVersion and
// update the golden lines together — downstream bundles identify the
// format by the "v" field.
func TestJSONLGolden(t *testing.T) {
	if SchemaVersion != 1 {
		t.Fatalf("SchemaVersion = %d; this golden pins v1 — write a new golden for the new schema", SchemaVersion)
	}
	s := NewSink(8)
	s.Record(Event{Kind: DetectClassify, Crawl: "control", Site: "a.example", Subject: "deadbeef", Verdict: "excluded", Evidence: "lossy-format", Detail: "script=https://t.example/fp.js 300x150 jpeg"})
	s.Record(Event{Kind: BlocklistMatch, Crawl: "abp", Site: "a.example", Subject: "https://t.example/fp.js", Verdict: "blocked", Evidence: "||t.example^$third-party", Detail: "EasyList"})
	s.Record(Event{Kind: ClusterAssign, Site: "a.example", Subject: "deadbeef", Verdict: "member", Detail: "popular"})
	s.Record(Event{Kind: AttribEvidence, Subject: "deadbeef", Verdict: "akamai", Evidence: "demo-hash"})
	s.Record(Event{Kind: RandomizeVerdict, Crawl: "defense-per-render", Site: "a.example", Verdict: "defense-detected", Evidence: "per-render"})

	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden := strings.Join([]string{
		`{"v":1,"seq":1,"kind":"detect.classify","crawl":"control","site":"a.example","subject":"deadbeef","verdict":"excluded","evidence":"lossy-format","detail":"script=https://t.example/fp.js 300x150 jpeg"}`,
		`{"v":1,"seq":2,"kind":"blocklist.match","crawl":"abp","site":"a.example","subject":"https://t.example/fp.js","verdict":"blocked","evidence":"||t.example^$third-party","detail":"EasyList"}`,
		`{"v":1,"seq":3,"kind":"cluster.assign","site":"a.example","subject":"deadbeef","verdict":"member","detail":"popular"}`,
		`{"v":1,"seq":4,"kind":"attrib.evidence","subject":"deadbeef","verdict":"akamai","evidence":"demo-hash"}`,
		`{"v":1,"seq":5,"kind":"randomize.verdict","crawl":"defense-per-render","site":"a.example","verdict":"defense-detected","evidence":"per-render"}`,
		``,
	}, "\n")
	if buf.String() != golden {
		t.Fatalf("events.jsonl schema drifted (bump SchemaVersion if intentional)\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}

	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 5 || back[1].Evidence != "||t.example^$third-party" || back[4].Kind != RandomizeVerdict {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestReadJSONLRejectsNewerSchema(t *testing.T) {
	in := strings.NewReader(fmt.Sprintf(`{"v":%d,"seq":1,"kind":"detect.classify"}`, SchemaVersion+1))
	if _, err := ReadJSONL(in); err == nil {
		t.Fatal("want error for newer schema version")
	}
}

func TestRingOverwrite(t *testing.T) {
	s := NewSink(4)
	for i := 0; i < 10; i++ {
		s.Record(Event{Kind: DetectClassify, Site: fmt.Sprintf("s%d", i)})
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Total() != 10 || s.Dropped() != 6 {
		t.Fatalf("Total/Dropped = %d/%d, want 10/6", s.Total(), s.Dropped())
	}
	evs := s.Events()
	for i, e := range evs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest-first tail)", i, e.Seq, want)
		}
	}
}

func TestNilSinkIsInert(t *testing.T) {
	var s *Sink
	s.Record(Event{Kind: DetectClassify})
	if s.Len() != 0 || s.Total() != 0 || s.Dropped() != 0 || s.Events() != nil {
		t.Fatal("nil sink must be a no-op")
	}
}

func TestConditionsAndCounts(t *testing.T) {
	s := NewSink(16)
	s.Record(Event{Kind: DetectClassify, Crawl: "control"})
	s.Record(Event{Kind: DetectClassify, Crawl: "abp"})
	s.Record(Event{Kind: ClusterAssign})
	got := s.Conditions()
	if len(got) != 2 || got[0] != "abp" || got[1] != "control" {
		t.Fatalf("Conditions = %v", got)
	}
	if c := s.CountByKind(); c[DetectClassify] != 2 || c[ClusterAssign] != 1 {
		t.Fatalf("CountByKind = %v", c)
	}
}

// TestSinkRace hammers Record against every reader concurrently; run
// under -race (make check does).
func TestSinkRace(t *testing.T) {
	s := NewSink(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				s.Record(Event{
					Kind:    DetectClassify,
					Crawl:   "control",
					Site:    fmt.Sprintf("site-%d-%d", w, i),
					Verdict: "fingerprintable",
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = s.Events()
				_ = s.Since(uint64(i * 40))
				_ = s.Len()
				_ = s.CountByKind()
				var buf bytes.Buffer
				_ = s.WriteJSONL(&buf)
			}
		}()
	}
	wg.Wait()
	if s.Total() != 16000 {
		t.Fatalf("Total = %d, want 16000", s.Total())
	}
	evs := s.Events()
	if len(evs) != 256 {
		t.Fatalf("retained %d, want 256", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestSinkRestore pins the resume contract: capturing a sink's
// events/seq/dropped and restoring them into a fresh sink must make
// the continued log byte-identical to one recorded without the
// round trip.
func TestSinkRestore(t *testing.T) {
	record := func(s *Sink, from, to int) {
		for i := from; i < to; i++ {
			s.Record(Event{Kind: DetectClassify, Site: fmt.Sprintf("s%02d.example", i)})
		}
	}
	ref := NewSink(64)
	record(ref, 0, 10)

	half := NewSink(64)
	record(half, 0, 6)
	resumed := NewSink(64)
	resumed.Restore(half.Events(), half.Total(), half.Dropped())
	record(resumed, 6, 10)

	var a, b bytes.Buffer
	if err := ref.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := resumed.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("restored-then-continued log differs:\n%s\nvs\n%s", a.String(), b.String())
	}
	if ref.Total() != resumed.Total() || ref.Dropped() != resumed.Dropped() {
		t.Fatal("seq/dropped state did not survive the round trip")
	}

	// Restoring more events than the ring holds keeps the newest tail
	// and counts the discarded prefix as dropped.
	small := NewSink(4)
	small.Restore(ref.Events(), ref.Total(), ref.Dropped())
	evs := small.Events()
	if len(evs) != 4 || evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("overflow restore kept wrong window: %+v", evs)
	}
	if small.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", small.Dropped())
	}
}

// TestSinceReturnsTheTail pins Sink.Since, the checkpoint journal's
// event cursor: it returns exactly the retained events after seq,
// oldest first, across a ring wrap and after a Restore.
func TestSinceReturnsTheTail(t *testing.T) {
	seqs := func(evs []Event) []uint64 {
		out := []uint64{}
		for _, e := range evs {
			out = append(out, e.Seq)
		}
		return out
	}
	want := func(from, to uint64) []uint64 {
		out := []uint64{}
		for q := from; q <= to; q++ {
			out = append(out, q)
		}
		return out
	}
	check := func(name string, s *Sink, seq uint64, w []uint64) {
		t.Helper()
		if got := seqs(s.Since(seq)); fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s: Since(%d) = %v, want %v", name, seq, got, w)
		}
	}

	s := NewSink(4)
	check("empty", s, 0, want(1, 0))
	for i := 0; i < 3; i++ {
		s.Record(Event{Kind: DetectClassify})
	}
	check("unwrapped", s, 0, want(1, 3))
	check("unwrapped", s, 1, want(2, 3))
	check("unwrapped", s, 3, want(1, 0))
	for i := 0; i < 7; i++ {
		s.Record(Event{Kind: DetectClassify})
	}
	// Seqs 1..10 recorded into a ring of 4: 7..10 retained.
	check("wrapped", s, 0, want(7, 10))
	check("wrapped", s, 6, want(7, 10))
	check("wrapped", s, 8, want(9, 10))
	check("wrapped", s, 10, want(1, 0))
	check("wrapped", s, 99, want(1, 0))

	got := s.Since(8)
	got[0].Site = "mutated"
	if s.Events()[2].Site == "mutated" {
		t.Fatal("Since returned a view into the ring, not a copy")
	}

	r := NewSink(4)
	r.Restore(s.Events(), s.Total(), s.Dropped())
	check("restored", r, 0, want(7, 10))
	check("restored", r, 9, want(10, 10))
	r.Record(Event{Kind: DetectClassify})
	r.Record(Event{Kind: DetectClassify})
	check("restored then wrapped", r, 0, want(9, 12))
	check("restored then wrapped", r, 10, want(11, 12))

	var nilSink *Sink
	if nilSink.Since(0) != nil {
		t.Fatal("nil sink Since must return nil")
	}
}
