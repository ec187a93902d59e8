package event

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadJSONL feeds arbitrary bytes to ReadJSONL, which bundle.Load
// reads every bundle's events.jsonl with. It must return an error or
// events, never panic, and the events must survive a round trip: written
// back through a Sink's WriteJSONL, they read back equal.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"v":1,"seq":1,"kind":"detect.classify","crawl":"control","site":"a.example","subject":"deadbeef","verdict":"excluded","evidence":"lossy-format","detail":"script=https://t.example/fp.js 300x150 jpeg"}` + "\n" +
		`{"v":1,"seq":2,"kind":"blocklist.match","crawl":"abp","site":"a.example","subject":"https://t.example/fp.js","verdict":"blocked","evidence":"||t.example^$third-party","detail":"EasyList"}` + "\n"))
	f.Add([]byte("\n\n{\"v\":0}\n{}\n"))
	f.Add([]byte(`{"v":2,"seq":1}`))
	f.Add([]byte(`{"v":1,"seq":-1}`))
	f.Add([]byte(`{"v":1,"seq":1e3,"kind":"x"}`))
	f.Add([]byte(`{"KIND":"a\u0000<b>","Detail":"\ud800","site":"\xff"} `))
	f.Add([]byte(`{"v":1}{"v":1}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// JSON escaping can lengthen a line up to six-fold, so a line
		// near the reader's 16 MB limit may not read back; fuzz inputs
		// stay far below that.
		if len(data) > 1<<20 {
			return
		}
		events, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		s := NewSink(len(events) + 1)
		s.Restore(events, uint64(len(events)), 0)
		var buf bytes.Buffer
		if err := s.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("written events do not read back: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("round trip changed the events:\n got  %+v\n want %+v", back, events)
		}
	})
}
