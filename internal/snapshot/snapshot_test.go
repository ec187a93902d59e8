package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"canvassing/internal/netsim"
	"canvassing/internal/stats"
)

func mustURL(t *testing.T, raw string) netsim.URL {
	t.Helper()
	u, err := netsim.ParseURL(raw)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestFetchReadsThroughOnce(t *testing.T) {
	s := New()
	u := mustURL(t, "https://cdn.example/fp.js")
	calls := 0
	fetch := func() (string, error) { calls++; return "var x = 1;", nil }
	for i := 0; i < 3; i++ {
		body, err := s.Fetch(u, fetch)
		if err != nil {
			t.Fatal(err)
		}
		if body != "var x = 1;" {
			t.Fatalf("body = %q", body)
		}
	}
	if calls != 1 {
		t.Fatalf("read-through fetched %d times, want 1", calls)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestFetchErrorNotCached(t *testing.T) {
	s := New()
	u := mustURL(t, "https://cdn.example/down.js")
	fail := true
	fetch := func() (string, error) {
		if fail {
			return "", fmt.Errorf("boom")
		}
		return "ok", nil
	}
	if _, err := s.Fetch(u, fetch); err == nil {
		t.Fatal("error swallowed")
	}
	fail = false
	body, err := s.Fetch(u, fetch)
	if err != nil || body != "ok" {
		t.Fatalf("recovery fetch: %q, %v", body, err)
	}
}

// TestContentAddressing: two URLs serving identical bodies share one
// blob — the dedup that makes paper-scale snapshot dirs affordable
// (vendor scripts are byte-identical across thousands of sites).
func TestContentAddressing(t *testing.T) {
	s := New()
	body := "function fp() {}"
	for i := 0; i < 5; i++ {
		u := mustURL(t, fmt.Sprintf("https://site%d.example/v.js", i))
		if _, err := s.Fetch(u, func() (string, error) { return body, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("5 URLs with one body stored %d blobs, want 1", s.Len())
	}
}

// TestAccountingIsCommitOrdered: hit/miss counts depend only on the
// order Account is called, not on Fetch interleaving — the property
// that keeps snapshot counters identical at any crawl width.
func TestAccountingIsCommitOrdered(t *testing.T) {
	run := func(fetchOrder []string) (int64, int64) {
		s := New()
		var wg sync.WaitGroup
		for _, raw := range fetchOrder {
			wg.Add(1)
			go func(raw string) {
				defer wg.Done()
				u, _ := netsim.ParseURL(raw)
				s.Fetch(u, func() (string, error) { return "body:" + raw, nil })
			}(raw)
		}
		wg.Wait()
		// Commit order is fixed regardless of the racing fetches above.
		s.Account([]string{"https://a.example/x.js", "https://b.example/y.js"})
		s.Account([]string{"https://a.example/x.js"})
		s.Account([]string{"https://b.example/y.js", "https://a.example/x.js"})
		return s.Counts()
	}
	order1 := []string{"https://a.example/x.js", "https://b.example/y.js"}
	order2 := []string{"https://b.example/y.js", "https://a.example/x.js"}
	h1, m1 := run(order1)
	h2, m2 := run(order2)
	if h1 != h2 || m1 != m2 {
		t.Fatalf("accounting depends on fetch order: %d/%d vs %d/%d", h1, m1, h2, m2)
	}
	if m1 != 2 || h1 != 3 {
		t.Fatalf("hits/misses = %d/%d, want 3/2 (first accounting of a URL is the miss)", h1, m1)
	}
	if rate, ok := New().HitRate(); ok || rate != 0 {
		t.Fatal("empty store must report no lookups, not a 0% rate")
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	s := New()
	bodies := map[string]string{
		"https://a.example/x.js": "var a = 1;",
		"https://b.example/y.js": "var b = 2;",
		"https://c.example/x.js": "var a = 1;", // shared blob with a.example
	}
	for raw, body := range bodies {
		u := mustURL(t, raw)
		if _, err := s.Fetch(u, func() (string, error) { return body, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.Account([]string{"https://a.example/x.js", "https://b.example/y.js"})
	s.Account([]string{"https://a.example/x.js"})

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// A second save is a no-op for existing blobs and must not fail.
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("loaded %d blobs, want %d", got.Len(), s.Len())
	}
	h0, m0 := s.Counts()
	h1, m1 := got.Counts()
	if h0 != h1 || m0 != m1 {
		t.Fatalf("accounting cursor lost in roundtrip: %d/%d vs %d/%d", h1, m1, h0, m0)
	}
	// Loaded store serves the stored bodies without re-fetching.
	for raw, body := range bodies {
		u := mustURL(t, raw)
		b, err := got.Fetch(u, func() (string, error) { t.Fatal("re-fetched a stored body"); return "", nil })
		if err != nil || b != body {
			t.Fatalf("loaded body for %s = %q, %v", raw, b, err)
		}
	}
	// The cursor continues exactly where it left off: an already-seen
	// URL accounts as a hit, a fresh one as a miss.
	got.Account([]string{"https://a.example/x.js", "https://b.example/y.js", "https://c.example/x.js"})
	h2, m2 := got.Counts()
	if h2 != h1+2 || m2 != m1+1 {
		t.Fatalf("post-load accounting %d/%d, want %d/%d", h2, m2, h1+2, m1+1)
	}
}

func TestLoadRejectsCorruptBlob(t *testing.T) {
	s := New()
	u := mustURL(t, "https://a.example/x.js")
	if _, err := s.Fetch(u, func() (string, error) { return "var a = 1;", nil }); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*.js"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("blob files: %v, %v", blobs, err)
	}
	if err := os.WriteFile(blobs[0], []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a blob whose content hash does not match its name")
	}
}

func TestLoadRejectsNewerSchema(t *testing.T) {
	dir := t.TempDir()
	data := fmt.Sprintf(`{"schema": %d, "urls": {}}`, SchemaVersion+1)
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted an index from a newer schema")
	}
}

// TestSaveDuringFetchLoads: crawl workers keep calling Fetch while a
// checkpoint saves the store, and every saved directory must load —
// its index may name only bodies that the same save wrote. The workers
// pause between fetches so that they are still adding URLs while the
// saves write their blobs.
func TestSaveDuringFetchLoads(t *testing.T) {
	const workers, perWorker = 4, 50
	urls := make([][]netsim.URL, workers)
	for g := range urls {
		for i := 0; i < perWorker; i++ {
			urls[g] = append(urls[g], mustURL(t, fmt.Sprintf("https://w%d.example/s%d.js", g, i)))
		}
	}
	s := New()
	var wg sync.WaitGroup
	for g := range urls {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, u := range urls[g] {
				body := fmt.Sprintf("var w%d = %d;", g, i)
				s.Fetch(u, func() (string, error) { return body, nil })
				time.Sleep(100 * time.Microsecond)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()

	root := t.TempDir()
	for k := 0; ; k++ {
		dir := filepath.Join(root, fmt.Sprint(k))
		if err := s.Save(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err != nil {
			t.Errorf("save %d: %v", k, err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// storeFixture saves a two-body store under root/store and puts a file
// outside it, root/secret.js, that no index may make Load read. It
// returns the store directory and the two bodies' and the secret's
// hashes as Export writes them.
func storeFixture(t testing.TB, root string) (dir string, bodies []string, secret string) {
	t.Helper()
	s := New()
	for i, body := range []string{"var a = 1;", "var b = 2;"} {
		u, err := netsim.ParseURL(fmt.Sprintf("https://s%d.example/x.js", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fetch(u, func() (string, error) { return body, nil }); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, fmt.Sprintf("%016x", stats.HashString(body)))
	}
	dir = filepath.Join(root, "store")
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "secret.js"), []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, bodies, fmt.Sprintf("%016x", stats.HashString("secret"))
}

// oneURLIndex is an index.json naming hash for https://s0.example/x.js.
func oneURLIndex(hash string) []byte {
	return []byte(fmt.Sprintf(`{"schema": %d, "urls": {"https://s0.example/x.js": %q}}`, SchemaVersion, hash))
}

// TestLoadRejectsMalformedHashes: an index hash is exactly 16 lowercase
// hex digits. Where one exists, the file a laxer parser would open is
// there, so accepting the hash would load a body.
func TestLoadRejectsMalformedHashes(t *testing.T) {
	cases := []struct {
		name  string
		hash  func(body, secret string) string
		plant bool // write a blob under the raw hash's file name
	}{
		{name: "path traversal", hash: func(_, secret string) string { return secret + "/../../../secret" }},
		{name: "short", hash: func(string, string) string { return "1" }},
		{name: "uppercase", hash: func(body, _ string) string { return strings.ToUpper(body) }, plant: true},
		{name: "trailing bytes", hash: func(body, _ string) string { return body + "x" }, plant: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, bodies, secret := storeFixture(t, t.TempDir())
			hash := tc.hash(bodies[0], secret)
			if tc.plant {
				if err := os.WriteFile(filepath.Join(dir, blobDir, hash+".js"), []byte("var a = 1;"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, indexFile), oneURLIndex(hash), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Load(dir)
			if err == nil {
				body, _ := s.Fetch(mustURL(t, "https://s0.example/x.js"), func() (string, error) { return "", nil })
				t.Fatalf("Load accepted index hash %q (serves %q)", hash, body)
			}
			if !strings.Contains(err.Error(), "index hash") {
				t.Fatalf("error does not name the bad index hash: %v", err)
			}
		})
	}
}
