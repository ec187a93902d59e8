package event

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// slotRing is the event log as it was kept before Sink encoded its
// events: a ring of Event slots bounded by count alone. FuzzSink
// requires Sink to answer every call as this ring does while the
// events stay within the byte bound.
type slotRing struct {
	buf     []Event
	next    int
	seq     uint64
	dropped uint64
}

func newSlotRing(capacity int) *slotRing { return &slotRing{buf: make([]Event, 0, capacity)} }

func (s *slotRing) Record(e Event) {
	s.seq++
	e.Schema = SchemaVersion
	e.Seq = s.seq
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, e)
	} else {
		s.buf[s.next] = e
		s.next = (s.next + 1) % len(s.buf)
		s.dropped++
	}
}

func (s *slotRing) Restore(events []Event, seq, dropped uint64) {
	if overflow := len(events) - cap(s.buf); overflow > 0 {
		events = events[overflow:]
		dropped += uint64(overflow)
	}
	s.buf = append(s.buf[:0], events...)
	s.next, s.seq, s.dropped = 0, seq, dropped
}

func (s *slotRing) Events() []Event {
	out := make([]Event, 0, len(s.buf))
	if len(s.buf) == cap(s.buf) && cap(s.buf) > 0 {
		out = append(out, s.buf[s.next:]...)
		return append(out, s.buf[:s.next]...)
	}
	return append(out, s.buf...)
}

func (s *slotRing) Since(seq uint64) []Event {
	n, k := len(s.buf), 0
	for k < n && s.buf[(s.next+n-1-k)%n].Seq > seq {
		k++
	}
	out := make([]Event, k)
	for i := range out {
		out[i] = s.buf[(s.next+n-k+i)%n]
	}
	return out
}

func (s *slotRing) CountByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range s.Events() {
		out[e.Kind]++
	}
	return out
}

func (s *slotRing) Conditions() []string {
	seen := map[string]bool{}
	for _, e := range s.Events() {
		if e.Crawl != "" {
			seen[e.Crawl] = true
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func (s *slotRing) WriteJSONL() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range s.Events() {
		if err := enc.Encode(e); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// fitting returns the newest run of events whose encodings total at
// most maxBytes: what a Sink with that byte bound retains of a slot
// ring's events.
func fitting(events []Event, maxBytes int) []Event {
	k, used := len(events), 0
	for k > 0 && used+encodedLen(&events[k-1]) <= maxBytes {
		used += encodedLen(&events[k-1])
		k--
	}
	return events[k:]
}

// FuzzSink drives random Record, Restore, Since, Events and WriteJSONL
// sequences through a Sink with a small random count and byte bound
// and through the slot ring it replaced. After every call the sink
// must hold the newest of the ring's events that fit the byte bound,
// within it, and answer every query as a slot ring holding exactly
// those events does — so while the events fit, the two agree on every
// result.
func FuzzSink(f *testing.F) {
	f.Add([]byte{3, 40, 0, 1, 2, 3, 0, 2, 9, 9, 0, 0, 0, 0, 1, 2, 2, 3, 4})
	f.Add([]byte{7, 200, 0, 4, 1, 250, 250, 0, 0, 3, 4, 5, 0, 1, 1, 9, 9, 4, 3, 1, 2, 0, 5, 5, 5, 6})
	f.Add([]byte{15, 2, 0, 255, 255, 255, 255, 0, 1, 1, 1, 1, 1, 3, 4, 0, 5, 7, 7, 1})
	f.Add([]byte{1, 255, 5, 200, 3, 9, 9, 9, 4, 0, 0, 6, 7, 5, 1, 2, 2})
	kinds := []Kind{DetectClassify, BlocklistMatch, ClusterAssign, VisitOutcome}
	crawls := []string{"", "control", "abp", "ubo"}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		capacity, maxBytes := next()%16+1, 16+next()*8
		s, ref := newSink(capacity, maxBytes), newSlotRing(capacity)
		var snap struct {
			events       []Event
			seq, dropped uint64
		}
		for step := 0; len(ops) > 0; step++ {
			switch op := next() % 7; op {
			case 0, 1:
				e := Event{
					Kind:   kinds[next()%len(kinds)],
					Crawl:  crawls[next()%len(crawls)],
					Site:   strings.Repeat("s", next()),
					Detail: strings.Repeat("d", next()*op*4),
				}
				raw := next() % 8
				e.Subject = string(ops[:min(len(ops), raw)])
				s.Record(e)
				ref.Record(e)
			case 2:
				snap.events, snap.seq, snap.dropped = ref.Events(), ref.seq, ref.dropped
			case 3:
				k := next() % (len(snap.events) + 1)
				s.Restore(snap.events[k:], snap.seq, snap.dropped+uint64(k))
				ref.Restore(snap.events[k:], snap.seq, snap.dropped+uint64(k))
			case 4:
				// A restored log with large seqs and schemas the sink
				// never stamps.
				base := uint64(next())<<56 | uint64(next())
				events := make([]Event, next()%8)
				for i := range events {
					events[i] = Event{Schema: int(int8(next())), Seq: base + uint64(i) + 1, Kind: kinds[i%len(kinds)], Verdict: strings.Repeat("v", next())}
				}
				s.Restore(events, base+uint64(len(events)), base)
				ref.Restore(events, base+uint64(len(events)), base)
			}
			all := ref.Events()
			kept := fitting(all, maxBytes)
			want := newSlotRing(capacity)
			want.Restore(kept, ref.seq, ref.dropped+uint64(len(all)-len(kept)))

			if used := s.used(); used > maxBytes || len(s.log) > maxBytes {
				t.Fatalf("step %d: %d encoded bytes retained in a ring of %d, bound %d", step, used, len(s.log), maxBytes)
			}
			if s.Len() != len(kept) || s.Total() != want.seq || s.Dropped() != want.dropped {
				t.Fatalf("step %d: Len/Total/Dropped = %d/%d/%d, want %d/%d/%d", step, s.Len(), s.Total(), s.Dropped(), len(kept), want.seq, want.dropped)
			}
			if got := s.Events(); !reflect.DeepEqual(got, want.Events()) {
				t.Fatalf("step %d: Events\n got  %+v\n want %+v", step, got, want.Events())
			}
			for _, q := range []uint64{0, want.dropped, want.seq - uint64(next()%4), want.seq, uint64(next())} {
				if got := s.Since(q); !reflect.DeepEqual(got, want.Since(q)) {
					t.Fatalf("step %d: Since(%d)\n got  %+v\n want %+v", step, q, got, want.Since(q))
				}
			}
			if got := s.CountByKind(); !reflect.DeepEqual(got, want.CountByKind()) {
				t.Fatalf("step %d: CountByKind = %v, want %v", step, got, want.CountByKind())
			}
			if got := s.Conditions(); !reflect.DeepEqual(got, want.Conditions()) {
				t.Fatalf("step %d: Conditions = %v, want %v", step, got, want.Conditions())
			}
			var buf bytes.Buffer
			if err := s.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want.WriteJSONL()) {
				t.Fatalf("step %d: WriteJSONL\n got  %s\n want %s", step, buf.Bytes(), want.WriteJSONL())
			}
		}
	})
}

// TestSinkByteBound records events whose strings total more than the
// 64 MiB byte bound: the sink keeps the newest consecutive seqs whose
// strings fit, and Since and Events agree on them.
func TestSinkByteBound(t *testing.T) {
	s := NewSink(0)
	detail := strings.Repeat("d", 1<<20)
	for i := 0; i < 80; i++ {
		s.Record(Event{Kind: DetectClassify, Crawl: "control", Site: fmt.Sprintf("s%02d.example", i), Detail: detail})
	}
	evs := s.Events()
	kept := 0
	for i, e := range evs {
		for _, f := range e.strings() {
			kept += len(f)
		}
		if want := s.Dropped() + 1 + uint64(i); e.Seq != want || e.Detail != detail {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	if kept > 64<<20 {
		t.Fatalf("retained %d string bytes, past the 64 MiB bound", kept)
	}
	if s.Total() != 80 || uint64(len(evs)) != s.Total()-s.Dropped() || s.Dropped() == 0 {
		t.Fatalf("Total/Dropped/Len = %d/%d/%d", s.Total(), s.Dropped(), len(evs))
	}
	if tail := s.Since(s.Total() - 3); !reflect.DeepEqual(tail, evs[len(evs)-3:]) {
		t.Fatalf("Since disagrees with Events on the newest three events")
	}
	if all := s.Since(0); len(all) != len(evs) || all[0].Seq != evs[0].Seq {
		t.Fatalf("Since(0) returned %d events, Events %d", len(all), len(evs))
	}

	// An event larger than the whole bound is dropped with every older
	// event, and the log carries on from the next one.
	small := newSink(8, 256)
	small.Record(Event{Kind: DetectClassify, Site: "a"})
	small.Record(Event{Kind: DetectClassify, Detail: strings.Repeat("x", 300)})
	if small.Len() != 0 || small.Dropped() != 2 || small.Total() != 2 {
		t.Fatalf("after an oversize event Len/Dropped/Total = %d/%d/%d, want 0/2/2", small.Len(), small.Dropped(), small.Total())
	}
	small.Record(Event{Kind: DetectClassify, Site: "b"})
	if evs := small.Events(); len(evs) != 1 || evs[0].Seq != 3 || evs[0].Site != "b" {
		t.Fatalf("after an oversize event retained %+v", evs)
	}
}

// TestNewSinkRSS checks, in a fresh process, that a default sink's
// 64 MiB reservation is not made resident: Go neither zeroes nor
// touches a pointer-free allocation served from fresh memory.
func TestNewSinkRSS(t *testing.T) {
	if os.Getenv("EVENT_SINK_RSS_CHILD") == "1" {
		before := vmRSS(t)
		s := NewSink(0)
		after := vmRSS(t)
		runtime.KeepAlive(s)
		fmt.Printf("rss-growth-kb %d\n", after-before)
		return
	}
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("VmRSS is read from /proc/self/status")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestNewSinkRSS$", "-test.count=1")
	cmd.Env = append(os.Environ(), "EVENT_SINK_RSS_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var kb int
	if _, err := fmt.Sscanf(string(out[bytes.Index(out, []byte("rss-growth-kb")):]), "rss-growth-kb %d", &kb); err != nil {
		t.Fatalf("child output %q: %v", out, err)
	}
	if kb >= 8<<10 {
		t.Fatalf("NewSink(0) raised VmRSS by %d KiB, want under 8 MiB", kb)
	}
}

// vmRSS returns this process's resident set size in KiB.
func vmRSS(t *testing.T) int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(rest), " kB"))
			if err != nil {
				t.Fatal(err)
			}
			return kb
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}
