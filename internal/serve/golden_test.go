package serve_test

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"canvassing/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// golden compares got to testdata/<name>, rewriting it under -update.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run %s -update` to create it)", err, t.Name())
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden file (re-run with -update if intended)\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// TestSiteResponseGolden pins the exact /v1/site JSON for the fixture
// study's top fingerprinting site — field order, indentation, and the
// per-condition evidence a dashboard would parse.
func TestSiteResponseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a real study bundle")
	}
	svc := serve.FixtureService(t, 0)
	top := svc.Index.Stats().TopSite
	if top == "" {
		t.Fatal("fixture has no top fingerprinting site")
	}
	status, body := hit(serve.APIMux(svc), "GET", "/v1/site/"+top, nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/site/%s: %d", top, status)
	}
	golden(t, "site_top.golden", body)
}

// TestBannerGolden pins the startup banner for the fixture bundle: the
// operator-facing summary cmd/serve prints must stay deterministic.
func TestBannerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a real study bundle")
	}
	svc := serve.FixtureService(t, 0)
	golden(t, "banner.golden", serve.Banner(svc))
}
