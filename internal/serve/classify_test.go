package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// classifyHash builds a hash-mode classify answer per request, the way
// the handlers did before each record's answer was rendered once at
// build time. marshal of what it builds is the reference every stored
// answer, and every batch body assembled from them, must equal byte
// for byte.
func classifyHash(ix *Index, hash string) ClassifyResponse {
	rec := ix.Canvas(hash)
	if rec == nil {
		return ClassifyResponse{Hash: hash}
	}
	resp := ClassifyResponse{
		Hash:            hash,
		Known:           true,
		Source:          "index",
		Fingerprintable: rec.Fingerprintable,
		ExcludeReason:   string(rec.Exclude),
		Format:          rec.Format,
		Width:           rec.W,
		Height:          rec.H,
		Extractions:     rec.Extractions,
		Conditions:      rec.Conditions,
		Sites:           rec.Sites,
		Scripts:         rec.ScriptURLs,
		ClusterSize:     len(rec.ClusterSites),
		Vendor:          rec.Vendor,
	}
	resp.Verdict, resp.Heuristics = verdictFields(rec.Fingerprintable, rec.Exclude)
	return resp
}

// wantBatch is the reference answer to a batch of hashes.
func wantBatch(ix *Index, hashes []string) string {
	resp := BatchClassifyResponse{Results: make([]ClassifyResponse, len(hashes))}
	for i, h := range hashes {
		resp.Results[i] = classifyHash(ix, h)
	}
	body, _ := marshal(resp)
	return string(body)
}

// decodeBatch reads a batch request body as the handler does.
func decodeBatch(body []byte) ([]string, error) {
	var req BatchClassifyRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Hashes, err
}

func post(mux http.Handler, target string, body []byte) (int, string) {
	req := httptest.NewRequest("POST", target, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestClassifyAnswersMatchMarshal sends every canvas hash of the
// fixture study through single classify requests, one batch holding
// them all, one-hash batches, a full 1024-hash batch and batches that
// mix known hashes with hostile unknown ones, each request twice, once
// with a window that makes every request probe and once with one that
// makes every repeat join the first flight. Every answer must equal
// marshal of what classifyHash builds.
func TestClassifyAnswersMatchMarshal(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a real study bundle")
	}
	hostile := []string{"unknown", `<script>&"x"`, "a\x00b", "\xff\xfe", "", strings.Repeat("z", 1024)}
	for _, window := range []time.Duration{time.Nanosecond, time.Hour} {
		svc := FixtureService(t, window)
		mux := APIMux(svc)
		var hashes []string
		for h := range svc.Index.canvas {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)
		if len(hashes) == 0 {
			t.Fatal("fixture bundle has no canvases")
		}

		ask := func(target string, body []byte, want string) {
			t.Helper()
			for try := 0; try < 2; try++ {
				status, got := post(mux, target, body)
				if status != http.StatusOK || got != want {
					t.Fatalf("window %s, %s %q (try %d): status %d\n%s\nwant\n%s", window, target, body, try, status, got, want)
				}
			}
		}
		askBatch := func(body []byte) {
			t.Helper()
			hs, err := decodeBatch(body)
			if err != nil {
				t.Fatal(err)
			}
			ask("/v1/classify/batch", body, wantBatch(svc.Index, hs))
		}
		batchOf := func(hs []string) []byte {
			body, err := json.Marshal(BatchClassifyRequest{Hashes: hs})
			if err != nil {
				t.Fatal(err)
			}
			return body
		}

		for _, h := range append(append([]string{}, hashes...), hostile...) {
			askBatch(batchOf([]string{h}))
			if h == "" {
				continue // a single request without hash or data_url is a 400
			}
			body, err := json.Marshal(ClassifyRequest{Hash: h})
			if err != nil {
				t.Fatal(err)
			}
			var req ClassifyRequest // the hash as the handler decodes it
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatal(err)
			}
			want, _ := marshal(classifyHash(svc.Index, req.Hash))
			ask("/v1/classify", body, string(want))
		}
		askBatch(batchOf(hashes))
		full := make([]string, maxBatchItems)
		for i := range full {
			full[i] = hashes[i%len(hashes)]
		}
		askBatch(batchOf(full))
		for i, h := range hashes {
			askBatch(batchOf([]string{h, hostile[i%len(hostile)], hashes[(i+7)%len(hashes)], hostile[(i+1)%len(hostile)]}))
		}
		// Raw bodies: NUL escaped and invalid UTF-8 as it arrives on the
		// wire, before json.Marshal could replace it.
		askBatch([]byte("{\"hashes\":[\"" + hashes[0] + "\",\"\xff\xfe\",\"a\\u0000b\",\"\\u003cscript\\u003e\"]}"))
	}
}

var batchFuzz struct {
	once sync.Once
	svc  *Service
	err  error
}

// FuzzClassifyBatch sends arbitrary bodies to POST /v1/classify/batch
// over the hand-built bundle. The status must be 200, 400 or 413; a
// body the handler can decode into 1 to 1024 hashes must get a 200
// whose bytes equal the reference rendering of the decoded request;
// and the same request sent twice must get the same bytes.
func FuzzClassifyBatch(f *testing.F) {
	f.Add([]byte(`{"hashes":["hash-fp","hash-small","unknown"]}`))
	f.Add([]byte(`{"hashes":["a","b"]}`))
	f.Add([]byte(`{"hashes":["a\u0000b"]}`))
	f.Add([]byte("{\"hashes\":[\"hash-fp\",\"\xff\xfe\",\"<script>&\\\"x\\\"\"]}"))
	f.Add([]byte(`{"hashes":[]}`))
	f.Add([]byte(`{"hashes":["hash-fp"]} trailing`))
	f.Add([]byte(`{"hashes":`))
	f.Add([]byte(``))
	batchFuzz.once.Do(func() { batchFuzz.svc, batchFuzz.err = HandBuiltService(time.Microsecond) })
	if batchFuzz.err != nil {
		f.Fatal(batchFuzz.err)
	}
	svc := batchFuzz.svc
	mux := APIMux(svc)
	f.Fuzz(func(t *testing.T, body []byte) {
		s1, b1 := post(mux, "/v1/classify/batch", body)
		switch s1 {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("unexpected status %d for body %q", s1, body)
		}
		hashes, err := decodeBatch(body)
		valid := err == nil && len(hashes) > 0 && len(hashes) <= maxBatchItems && len(body) <= maxClassifyBody
		if valid != (s1 == http.StatusOK) {
			t.Fatalf("status %d for body %q, which decodes to %d hashes (err %v)", s1, body, len(hashes), err)
		}
		if valid {
			if want := wantBatch(svc.Index, hashes); b1 != want {
				t.Fatalf("answer to %q differs from its reference:\n%s\nwant\n%s", body, b1, want)
			}
		}
		s2, b2 := post(mux, "/v1/classify/batch", body)
		if s1 != s2 || b1 != b2 {
			t.Fatalf("non-deterministic answer for %q: (%d, %q) then (%d, %q)", body, s1, b1, s2, b2)
		}
	})
}
