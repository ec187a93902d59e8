// The serve tests run against a real (small) study: the fixture
// (fixture_test.go) runs the full control+abp pipeline once per test
// binary, writes the bundle, and every test loads services over it.
package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"canvassing/internal/bundle"
	"canvassing/internal/canvas"
	"canvassing/internal/detect"
	"canvassing/internal/machine"
	"canvassing/internal/obs/event"
	"canvassing/internal/serve"
	"canvassing/internal/web"
)

func TestMain(m *testing.M) {
	code := m.Run()
	serve.RemoveFixture()
	os.Exit(code)
}

// hit issues one in-process request and returns status and body.
func hit(mux *http.ServeMux, method, target string, body []byte) (int, string) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// bundleKeys enumerates every canvas hash and site domain the bundle's
// event log mentions — the full query surface for invariance sweeps.
func bundleKeys(tb testing.TB, dir string) (hashes, sites []string) {
	tb.Helper()
	b, err := bundle.Load(dir)
	if err != nil {
		tb.Fatal(err)
	}
	hs, ss := map[string]bool{}, map[string]bool{}
	for i := range b.Events {
		e := &b.Events[i]
		if e.Kind == event.DetectClassify || e.Kind == event.ClusterAssign {
			hs[e.Subject] = true
		}
		if e.Site != "" {
			ss[e.Site] = true
		}
	}
	for h := range hs {
		hashes = append(hashes, h)
	}
	for s := range ss {
		sites = append(sites, s)
	}
	sort.Strings(hashes)
	sort.Strings(sites)
	return hashes, sites
}

// renderAll exercises every endpoint over the full key surface and
// returns request → "status\nbody" — the byte-level serving transcript
// the invariance tests compare across configurations.
func renderAll(tb testing.TB, svc *serve.Service, hashes, sites []string) map[string]string {
	tb.Helper()
	mux := serve.APIMux(svc)
	out := map[string]string{}
	record := func(key string, status int, body string) {
		out[key] = fmt.Sprintf("%d\n%s", status, body)
	}
	status, body := hit(mux, "GET", "/v1/stats", nil)
	record("stats", status, body)
	batch, err := json.Marshal(map[string][]string{"hashes": hashes})
	if err != nil {
		tb.Fatal(err)
	}
	status, body = hit(mux, "POST", "/v1/classify/batch", batch)
	record("batch", status, body)
	for _, h := range hashes {
		status, body = hit(mux, "POST", "/v1/classify", []byte(fmt.Sprintf(`{"hash":%q}`, h)))
		record("classify "+h, status, body)
		status, body = hit(mux, "GET", "/v1/cluster/"+h, nil)
		record("cluster "+h, status, body)
	}
	for _, s := range sites {
		status, body = hit(mux, "GET", "/v1/site/"+s, nil)
		record("site "+s, status, body)
	}
	for _, u := range []string{
		"https://" + web.ActorHost(7) + "/beacon.js",
		"https://cdn.example.com/app.js",
	} {
		status, body = hit(mux, "GET", "/v1/block?url="+u, nil)
		record("block "+u, status, body)
	}
	return out
}

// TestServeShardInvariance is the determinism oracle for the read
// indexes: every response must be byte-identical whatever GOMAXPROCS
// the process builds and serves the index at. A map iteration leaking
// into record finalization shows up here as a diff.
func TestServeShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-surface sweep over a real study bundle")
	}
	dir := serve.FixtureDir(t)
	hashes, sites := bundleKeys(t, dir)
	if len(hashes) == 0 || len(sites) == 0 {
		t.Fatal("fixture bundle has no keys to sweep")
	}

	var ref map[string]string
	var refLabel string
	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		label := fmt.Sprintf("procs=%d", procs)
		got := renderAll(t, serve.FixtureService(t, 0), hashes, sites)
		runtime.GOMAXPROCS(prev)
		if ref == nil {
			ref, refLabel = got, label
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d responses, %s had %d", label, len(got), refLabel, len(ref))
		}
		for key, want := range ref {
			if got[key] != want {
				t.Fatalf("%s: response for %q differs from %s:\n--- %s\n%s\n--- %s\n%s",
					label, key, refLabel, refLabel, want, label, got[key])
			}
		}
	}
}

// TestServeBundleInvariance hammers a live server — all endpoints,
// data-URL classifications included — and requires every on-disk
// bundle byte to survive untouched.
// Serving is read-only; this is the proof.
func TestServeBundleInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("live-HTTP hammer over a real study bundle")
	}
	dir := serve.FixtureDir(t)
	before := hashTree(t, dir)

	svc := serve.FixtureService(t, 0)
	plane, err := svc.Start("127.0.0.1:0", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	base := plane.URL()

	hashes, sites := bundleKeys(t, dir)
	fresh := freshDataURL(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				h := hashes[(w*41+i)%len(hashes)]
				s := sites[(w*17+i)%len(sites)]
				get(t, base+"/v1/stats")
				post(t, base+"/v1/classify", fmt.Sprintf(`{"hash":%q}`, h))
				post(t, base+"/v1/classify", fmt.Sprintf(`{"data_url":%q,"anim":%v}`, fresh, i%2 == 0))
				get(t, base+"/v1/cluster/"+h)
				get(t, base+"/v1/site/"+s)
				get(t, base+"/v1/block?url=https://"+web.ActorHost(7)+"/beacon.js")
			}
		}(w)
	}
	wg.Wait()

	after := hashTree(t, dir)
	if len(before) != len(after) {
		t.Fatalf("bundle file set changed: %d files before, %d after", len(before), len(after))
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Fatalf("serving mutated bundle file %s", name)
		}
	}
}

// TestServeChurnRace is the concurrency hammer `make race` runs: 32
// goroutines across every endpoint while the batching window rotates at
// ~100µs, so flights constantly expire mid-join. Run with -race.
func TestServeChurnRace(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency hammer over a real study bundle")
	}
	dir := serve.FixtureDir(t)
	hashes, sites := bundleKeys(t, dir)
	svc := serve.FixtureService(t, 100*time.Microsecond)
	mux := serve.APIMux(svc)
	fresh := freshDataURL(t)

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 120; i++ {
				h := hashes[(g*13+i)%len(hashes)]
				s := sites[(g*7+i)%len(sites)]
				var status int
				switch i % 7 {
				case 6:
					status, _ = hit(mux, "POST", "/v1/classify/batch",
						[]byte(fmt.Sprintf(`{"hashes":[%q,%q,"unknown"]}`, h, hashes[(g+i)%len(hashes)])))
				case 0:
					status, _ = hit(mux, "POST", "/v1/classify", []byte(fmt.Sprintf(`{"hash":%q}`, h)))
				case 1:
					status, _ = hit(mux, "POST", "/v1/classify", []byte(fmt.Sprintf(`{"data_url":%q}`, fresh)))
				case 2:
					status, _ = hit(mux, "GET", "/v1/cluster/"+h, nil)
				case 3:
					status, _ = hit(mux, "GET", "/v1/site/"+s, nil)
				case 4:
					status, _ = hit(mux, "GET", "/v1/block?url=https://"+web.ActorHost(7)+"/t.js", nil)
				case 5:
					status, _ = hit(mux, "GET", "/v1/stats", nil)
				}
				if status != http.StatusOK && status != http.StatusNotFound {
					t.Errorf("goroutine %d request %d: status %d", g, i, status)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	probes, coalesced := svc.Batcher().Counts()
	if probes == 0 {
		t.Fatal("no probes recorded — batcher bypassed?")
	}
	t.Logf("churn: %d probes, %d coalesced", probes, coalesced)
}

// TestServeClassifiesRecordedDataURL posts the data URL of every
// distinct extraction the fixture study recorded, under the animation
// flag its verdict implies. Each must answer with the verdict the study
// recorded for it, "source": "index", and the index fields the
// hash-mode answer for its hash carries.
func TestServeClassifiesRecordedDataURL(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a real study bundle")
	}
	svc := serve.FixtureService(t, 0)
	mux := serve.APIMux(svc)
	classify := func(req serve.ClassifyRequest) serve.ClassifyResponse {
		t.Helper()
		body, _ := json.Marshal(req)
		status, raw := hit(mux, "POST", "/v1/classify", body)
		var resp serve.ClassifyResponse
		if status != http.StatusOK {
			t.Fatalf("classify %.40q: %d %s", body, status, raw)
		}
		if err := json.Unmarshal([]byte(raw), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	seen, verdicts := map[string]bool{}, map[string]bool{}
	for _, c := range serve.FixtureCanvases(t) {
		if seen[c.Hash+"/"+string(c.Exclude)] {
			continue
		}
		seen[c.Hash+"/"+string(c.Exclude)] = true
		got := classify(serve.ClassifyRequest{DataURL: c.DataURL, Anim: c.Exclude == detect.AnimationScript})
		want := classify(serve.ClassifyRequest{Hash: c.Hash})
		if got.Hash != c.Hash || !got.Known || got.Source != "index" ||
			got.Fingerprintable != c.Fingerprintable || got.ExcludeReason != string(c.Exclude) {
			t.Fatalf("data URL of %s (%v %q): %+v", c.Hash, c.Fingerprintable, c.Exclude, got)
		}
		if got.Format != want.Format || got.Width != want.Width || got.Height != want.Height ||
			got.Extractions != want.Extractions || got.ClusterSize != want.ClusterSize || got.Vendor != want.Vendor ||
			!reflect.DeepEqual(got.Conditions, want.Conditions) || !reflect.DeepEqual(got.Sites, want.Sites) ||
			!reflect.DeepEqual(got.Scripts, want.Scripts) {
			t.Fatalf("data URL of %s: index fields %+v, hash mode has %+v", c.Hash, got, want)
		}
		verdicts[got.Verdict+string(c.Exclude)] = true
	}
	if !verdicts["fingerprintable"] || len(verdicts) < 2 {
		t.Fatalf("recorded extractions cover only %v", verdicts)
	}
	// Unknown hash: known=false, still 200 (a verdict of "never seen").
	status, body := hit(mux, "POST", "/v1/classify", []byte(`{"hash":"ffff"}`))
	if status != http.StatusOK || !bytes.Contains([]byte(body), []byte(`"known": false`)) {
		t.Fatalf("unknown hash: %d %s", status, body)
	}
}

// TestServeClassifyKeepsNoState posts 20,000 distinct data URLs, each
// a PNG header of its own width. Nothing may stay behind per request:
// after a collection the live heap must have grown by less than 2 MiB
// (a verdict cache keyed by every posted URL's hash grew it by 7.25 MB).
func TestServeClassifyKeepsNoState(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a real study bundle")
	}
	svc := serve.FixtureService(t, time.Nanosecond)
	mux := serve.APIMux(svc)
	png := []byte("\x89PNG\r\n\x1a\n\x00\x00\x00\x0dIHDR\x00\x00\x00\x00\x00\x00\x00\x20")
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for i := 0; i < 20000; i++ {
		binary.BigEndian.PutUint32(png[16:20], uint32(16+i))
		body := fmt.Sprintf(`{"data_url":"data:image/png;base64,%s"}`, base64.StdEncoding.EncodeToString(png))
		if status, raw := hit(mux, "POST", "/v1/classify", []byte(body)); status != http.StatusOK ||
			!strings.Contains(raw, fmt.Sprintf(`"width": %d`, 16+i)) {
			t.Fatalf("request %d: %d %s", i, status, raw)
		}
	}
	after := heap()
	runtime.KeepAlive(svc)
	if after > before && after-before >= 2<<20 {
		t.Fatalf("live heap grew by %d bytes over 20,000 distinct data URLs", after-before)
	}
}

// hashTree hashes every regular file under dir (relative name → hex).
func hashTree(tb testing.TB, dir string) map[string]string {
	tb.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = fmt.Sprintf("%x", sha256.Sum256(raw))
		return nil
	})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// freshDataURL renders a canvas payload the fixture study never saw.
func freshDataURL(tb testing.TB) string {
	tb.Helper()
	e := canvas.New(machine.Intel())
	e.SetWidth(137)
	e.SetHeight(43)
	ctx := e.GetContext("2d")
	ctx.SetFillStyle("#123456")
	ctx.FillRect(0, 0, 137, 43)
	return e.ToDataURL("", 0)
}

func get(tb testing.TB, url string) {
	tb.Helper()
	res, err := http.Get(url)
	if err != nil {
		tb.Error(err)
		return
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
}

func post(tb testing.TB, url, body string) {
	tb.Helper()
	res, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		tb.Error(err)
		return
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
}
