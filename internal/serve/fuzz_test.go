package serve_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"sync"
	"testing"
	"time"

	"canvassing/internal/serve"
)

// fuzzFix is the fuzzers' shared mux over the hand-built bundle.
var fuzzFix struct {
	once sync.Once
	mux  *http.ServeMux
	err  error
}

func fuzzMux(tb testing.TB) *http.ServeMux {
	tb.Helper()
	fuzzFix.once.Do(func() {
		var svc *serve.Service
		if svc, fuzzFix.err = serve.HandBuiltService(time.Microsecond); fuzzFix.err == nil {
			fuzzFix.mux = serve.APIMux(svc)
		}
	})
	if fuzzFix.err != nil {
		tb.Fatal(fuzzFix.err)
	}
	return fuzzFix.mux
}

// FuzzClassifyRequest throws arbitrary bytes at POST /v1/classify: the
// handler must never panic, must answer only 200/400/413, and must
// answer the same request identically twice (determinism survives the
// memo and the batcher).
func FuzzClassifyRequest(f *testing.F) {
	f.Add([]byte(`{"hash":"hash-fp"}`))
	f.Add([]byte(`{"hash":"unknown"}`))
	f.Add([]byte(`{"data_url":"data:image/png;base64,!!!","anim":true}`))
	f.Add([]byte(`{"data_url":"nonsense"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"hash":`))
	f.Add([]byte(``))
	f.Add(bytes.Repeat([]byte("a"), 4096))
	mux := fuzzMux(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		do := func() (int, string) {
			req := httptest.NewRequest("POST", "/v1/classify", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			return rec.Code, rec.Body.String()
		}
		s1, b1 := do()
		switch s1 {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q", s1, body)
		}
		s2, b2 := do()
		if s1 != s2 || b1 != b2 {
			t.Fatalf("non-deterministic answer for %q: (%d, %q) then (%d, %q)", body, s1, b1, s2, b2)
		}
	})
}

// FuzzBlockQuery throws arbitrary url/type/page query values at
// GET /v1/block. The raw query is set directly (httptest.NewRequest
// panics on hostile URLs), so the handler sees exactly what a wire
// client could send.
func FuzzBlockQuery(f *testing.F) {
	f.Add("https://cdn.trk007-metrics.net/beacon.js", "script", "")
	f.Add("https://a.example/x.png", "image", "a.example")
	f.Add("not a url", "", "")
	f.Add("", "script", "page")
	f.Add("https://x.test/../../etc", "bogus-type", "\x00")
	f.Add("http://%zz", "document", "π.example")
	mux := fuzzMux(f)
	f.Fuzz(func(t *testing.T, rawURL, typ, page string) {
		do := func() (int, string) {
			req := httptest.NewRequest("GET", "/v1/block", nil)
			q := neturl.Values{}
			if rawURL != "" {
				q.Set("url", rawURL)
			}
			if typ != "" {
				q.Set("type", typ)
			}
			if page != "" {
				q.Set("page", page)
			}
			req.URL.RawQuery = q.Encode()
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			return rec.Code, rec.Body.String()
		}
		s1, b1 := do()
		if s1 != http.StatusOK && s1 != http.StatusBadRequest {
			t.Fatalf("unexpected status %d for url=%q type=%q page=%q", s1, rawURL, typ, page)
		}
		s2, b2 := do()
		if s1 != s2 || b1 != b2 {
			t.Fatalf("non-deterministic answer for url=%q type=%q page=%q", rawURL, typ, page)
		}
	})
}
