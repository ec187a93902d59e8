package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"canvassing"
	"canvassing/internal/serve"
	"canvassing/internal/web"
)

// The load benchmarks run against a Scale 0.2 study (the acceptance
// scale for the ≥50k lookups/s target) served over real HTTP on a
// loopback port. The fixture is built lazily inside the benchmarks so
// plain `go test` never pays for it; `make bench` records the rates
// into the BENCH_<date>.json snapshot via the "lookups/s" metric.
// BenchmarkServeClassifyBatch alone runs in-process over the test
// fixture.
var benchFix struct {
	once   sync.Once
	base   string
	svc    *serve.Service
	hashes []string
	sites  []string
	err    error
}

func benchBase(b *testing.B) (string, []string, []string) {
	b.Helper()
	benchFix.once.Do(func() {
		dir, err := os.MkdirTemp("", "serve-bench")
		if err != nil {
			benchFix.err = err
			return
		}
		// Control-only: clustering/attribution still run in Analyze, and
		// one condition keeps the fixture build near the benchmark's own
		// runtime instead of dominating it.
		st := canvassing.New(canvassing.Options{Seed: 3, Scale: 0.2, Workers: 8})
		st.RunControl()
		st.Analyze()
		if err := st.WriteBundle(dir); err != nil {
			benchFix.err = err
			return
		}
		svc, err := serve.Load(serve.Config{Dir: dir, ListsFor: canvassing.ListsForSeed})
		if err != nil {
			benchFix.err = err
			return
		}
		plane, err := svc.Start("127.0.0.1:0", false, 0)
		if err != nil {
			benchFix.err = err
			return
		}
		benchFix.base = plane.URL()
		benchFix.svc = svc
		benchFix.hashes, benchFix.sites = bundleKeys(b, dir)
		os.RemoveAll(dir) // the service is fully in-memory once loaded
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.base, benchFix.hashes, benchFix.sites
}

// benchClient returns an HTTP client tuned for the hammer: enough idle
// connections that the workers reuse sockets instead of handshaking.
func benchClient(workers int) *http.Client {
	tr := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}
	return &http.Client{Transport: tr}
}

// hammer issues total requests across workers, each built by reqFor.
func hammer(b *testing.B, client *http.Client, workers, total int, reqFor func(i int) *http.Request) {
	b.Helper()
	var wg sync.WaitGroup
	per := total / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				res, err := client.Do(reqFor(w*per + i))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusNotFound {
					b.Errorf("status %d", res.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkServeClassify measures hash-mode classify throughput over
// live HTTP: 16 parallel clients cycling the bundle's full canvas
// population.
func BenchmarkServeClassify(b *testing.B) {
	base, hashes, _ := benchBase(b)
	const workers, total = 16, 30000
	client := benchClient(workers)
	bodies := make([][]byte, len(hashes))
	for i, h := range hashes {
		bodies[i] = []byte(fmt.Sprintf(`{"hash":%q}`, h))
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		hammer(b, client, workers, total, func(i int) *http.Request {
			req, _ := http.NewRequest("POST", base+"/v1/classify", bytes.NewReader(bodies[i%len(bodies)]))
			req.Header.Set("Content-Type", "application/json")
			return req
		})
	}
	b.StopTimer()
	rate := float64(b.N*total) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "lookups/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*total), "ns/lookup")
}

// BenchmarkServeMixedQPS is the acceptance benchmark: a production-like
// mix from 16 parallel clients — bulk classify batches carrying the
// verdict volume (that is what /v1/classify/batch exists for) plus
// single classify, cluster, site, block, and stats lookups — reported
// as individual verdict lookups per second. The target at Scale 0.2 is
// ≥50k lookups/s.
func BenchmarkServeMixedQPS(b *testing.B) {
	base, hashes, sites := benchBase(b)
	const workers = 16
	const batchSize = 64
	// Each round is 8 HTTP requests: 3 bulk batches + 5 singles.
	const lookupsPerRound = 3*batchSize + 5
	const rounds = 12 // per worker per iteration
	client := benchClient(workers)
	blockURL := base + "/v1/block?url=https://" + web.ActorHost(7) + "/beacon.js"

	// Pre-build rotating batch bodies so request construction isn't in
	// the measured path.
	batches := make([][]byte, 8)
	for j := range batches {
		hs := make([]string, batchSize)
		for k := range hs {
			hs[k] = hashes[(j*batchSize+k*7)%len(hashes)]
		}
		raw, err := json.Marshal(map[string][]string{"hashes": hs})
		if err != nil {
			b.Fatal(err)
		}
		batches[j] = raw
	}
	post := func(url string, body []byte) *http.Request {
		req, _ := http.NewRequest("POST", url, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		return req
	}
	get := func(url string) *http.Request {
		req, _ := http.NewRequest("GET", url, nil)
		return req
	}

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		hammer(b, client, workers, workers*rounds*8, func(i int) *http.Request {
			switch i % 8 {
			case 0, 3, 6:
				return post(base+"/v1/classify/batch", batches[i%len(batches)])
			case 1:
				return post(base+"/v1/classify", []byte(fmt.Sprintf(`{"hash":%q}`, hashes[i%len(hashes)])))
			case 2:
				return get(base + "/v1/cluster/" + hashes[i%len(hashes)])
			case 4:
				return get(base + "/v1/site/" + sites[i%len(sites)])
			case 5:
				return get(blockURL)
			default:
				return get(base + "/v1/stats")
			}
		})
	}
	b.StopTimer()
	lookups := b.N * workers * rounds * lookupsPerRound
	rate := float64(lookups) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "lookups/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lookups), "ns/lookup")
}

// discardWriter is a ResponseWriter that keeps only the status, so
// BenchmarkServeClassifyBatch measures the handler rather than a
// recorder's buffer.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkServeClassifyBatch measures the batch path's own cost, with
// no network: 64-hash batches sent in-process through the API mux, with
// every hash one of the test fixture's canvases (known), every other
// hash a SHA-256 the study never saw (half-unknown), or every hash
// unseen (unknown). The batching window is 1 ns, so every request
// probes the index rather than joining an earlier flight.
func BenchmarkServeClassifyBatch(b *testing.B) {
	svc := serve.FixtureService(b, time.Nanosecond)
	known, _ := bundleKeys(b, serve.FixtureDir(b))
	mux := serve.APIMux(svc)
	const batchSize = 64
	for _, mix := range []struct {
		name        string
		unknownEach int // every unknownEach-th hash is unseen; 0 for none
	}{{"known", 0}, {"half-unknown", 2}, {"unknown", 1}} {
		b.Run(mix.name, func(b *testing.B) {
			bodies := make([][]byte, len(known))
			for j := range bodies {
				hs := make([]string, batchSize)
				for k := range hs {
					i := j*batchSize + k
					if mix.unknownEach > 0 && k%mix.unknownEach == 0 {
						hs[k] = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint("unseen canvas ", i))))
					} else {
						hs[k] = known[i%len(known)]
					}
				}
				raw, err := json.Marshal(serve.BatchClassifyRequest{Hashes: hs})
				if err != nil {
					b.Fatal(err)
				}
				bodies[j] = raw
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", "/v1/classify/batch", bytes.NewReader(bodies[i%len(bodies)]))
				w := &discardWriter{header: http.Header{}, status: http.StatusOK}
				mux.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
		})
	}
}
