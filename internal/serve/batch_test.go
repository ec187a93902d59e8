package serve_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"canvassing/internal/serve"
)

func TestBatcherCoalescesWithinWindow(t *testing.T) {
	b := serve.NewBatcher(time.Hour) // never rotates during the test
	var computed atomic.Int64
	release := make(chan struct{})

	const callers = 16
	var wg sync.WaitGroup
	bodies := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, status := b.Do("hot", func() ([]byte, int) {
				computed.Add(1)
				<-release // hold the flight open until everyone has joined
				return []byte("payload"), 200
			})
			if status != 200 {
				t.Errorf("caller %d: status %d", i, status)
			}
			bodies[i] = string(body)
		}(i)
	}
	// Wait until every caller has either started the probe or joined it.
	for {
		probes, coalesced := b.Counts()
		if probes+coalesced == callers {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if n := computed.Load(); n != 1 {
		t.Fatalf("probe ran %d times, want 1", n)
	}
	probes, coalesced := b.Counts()
	if probes != 1 || coalesced != callers-1 {
		t.Fatalf("counts = (%d probes, %d coalesced), want (1, %d)", probes, coalesced, callers-1)
	}
	for i, body := range bodies {
		if body != "payload" {
			t.Fatalf("caller %d got %q", i, body)
		}
	}
}

func TestBatcherRotatesAfterWindow(t *testing.T) {
	b := serve.NewBatcher(time.Nanosecond)
	var computed atomic.Int64
	probe := func() ([]byte, int) {
		computed.Add(1)
		return []byte("x"), 200
	}
	b.Do("k", probe)
	time.Sleep(time.Millisecond) // comfortably past the window
	b.Do("k", probe)
	if n := computed.Load(); n != 2 {
		t.Fatalf("probe ran %d times across two windows, want 2", n)
	}
}

func TestBatcherDistinctKeysProbeSeparately(t *testing.T) {
	b := serve.NewBatcher(time.Hour)
	var computed atomic.Int64
	probe := func() ([]byte, int) {
		computed.Add(1)
		return nil, 200
	}
	b.Do("a", probe)
	b.Do("b", probe)
	if n := computed.Load(); n != 2 {
		t.Fatalf("distinct keys shared a probe: %d runs", n)
	}
}

func TestBatcherDefaultWindow(t *testing.T) {
	if got := serve.NewBatcher(0).Window(); got != serve.DefaultWindow {
		t.Fatalf("default window = %s, want %s", got, serve.DefaultWindow)
	}
	if got := serve.NewBatcher(5 * time.Millisecond).Window(); got != 5*time.Millisecond {
		t.Fatalf("window not honored: %s", got)
	}
}

// TestBatcherErrorStatusShared pins that non-200 probe results coalesce
// too: a 404 computed once is the window's answer for everyone.
func TestBatcherErrorStatusShared(t *testing.T) {
	b := serve.NewBatcher(time.Hour)
	body, status := b.Do("missing", func() ([]byte, int) { return []byte("unknown site\n"), 404 })
	if status != 404 {
		t.Fatalf("status %d", status)
	}
	body2, status2 := b.Do("missing", func() ([]byte, int) {
		t.Fatal("second probe must coalesce")
		return nil, 0
	})
	if status2 != 404 || string(body2) != string(body) {
		t.Fatalf("coalesced result differs: %d %q", status2, body2)
	}
}

// TestFlightKeysKeepRequestsApart sends pairs of different requests
// whose variable parts, joined with NUL, would read the same, through
// one hour-long window: each request must still get its own answer,
// the one a fresh service gives it.
func TestFlightKeysKeepRequestsApart(t *testing.T) {
	type request struct{ method, target, body string }
	pairs := [][2]request{
		{
			{"POST", "/v1/classify/batch", `{"hashes":["a","b"]}`},
			{"POST", "/v1/classify/batch", `{"hashes":["a\u0000b"]}`},
		},
		{
			{"GET", "/v1/block?url=https://a.com/x%00script%00", ""},
			{"GET", "/v1/block?url=https://a.com/x&type=script&page=%00script%00", ""},
		},
	}
	send := func(mux http.Handler, r request) string {
		req := httptest.NewRequest(r.method, r.target, strings.NewReader(r.body))
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", r.method, r.target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	newMux := func() http.Handler {
		svc, err := serve.HandBuiltService(time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return serve.APIMux(svc)
	}
	shared := newMux()
	for _, pair := range pairs {
		var want [2]string
		for i, r := range pair {
			want[i] = send(newMux(), r)
		}
		if want[0] == want[1] {
			t.Fatalf("%s and %s have the same answer; the pair tests nothing", pair[0].target, pair[1].target)
		}
		for i, r := range pair {
			if got := send(shared, r); got != want[i] {
				t.Errorf("%s %s %s got another request's answer:\n%s\nwant\n%s", r.method, r.target, r.body, got, want[i])
			}
		}
	}
}
