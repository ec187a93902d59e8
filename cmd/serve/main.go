// Command serve is the detection-as-a-service binary: it loads a
// finished study's run bundle, builds the verdict indexes, and
// serves the JSON lookup API plus the full ops plane.
//
//	serve -bundle ./run                       # serve on the default address
//	serve -bundle ./run -addr :0 -addr-file a # pick a port, publish it
//	serve -check http://127.0.0.1:8344        # client mode: probe a server
//
// Client mode (-check) reads /v1/stats for the bundle's top cluster
// and top fingerprinting site, then exercises every endpoint and
// prints the responses — `make serve-smoke` diffs that output against
// a committed expectation.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"canvassing"
	"canvassing/internal/serve"
	"canvassing/internal/web"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	bundleDir := flag.String("bundle", "", "run-bundle directory to serve (required unless -check)")
	addr := flag.String("addr", "127.0.0.1:8344", "listen address (\":0\" picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound base URL to this file once listening")
	batchWindow := flag.Duration("batch-window", 0, "lookup coalescing window (0 = default 2ms)")
	withPprof := flag.Bool("pprof", false, "also serve /debug/pprof on the same address")
	redWindow := flag.Duration("window", 0, "sliding window for the live RED views (default 1m)")
	check := flag.String("check", "", "client mode: probe the server at this base URL and print every endpoint's response")
	flag.Parse()

	if *check != "" {
		if err := runCheck(*check); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *bundleDir == "" {
		fmt.Fprintln(os.Stderr, "usage: serve -bundle <run-dir> [-addr host:port] | serve -check <base-url>")
		os.Exit(2)
	}

	svc, err := serve.Load(serve.Config{
		Dir:      *bundleDir,
		Window:   *batchWindow,
		ListsFor: canvassing.ListsForSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(serve.Banner(svc))

	plane, err := svc.Start(*addr, *withPprof, *redWindow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s\n", plane.URL())
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(plane.URL()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := plane.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
}

// runCheck probes a running server: stats first (for deterministic
// identifiers), then one request per endpoint, printing each response
// under a "== <request>" header. Any non-200 fails the check.
func runCheck(base string) error {
	base = strings.TrimRight(base, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	stats, err := fetch("GET", base+"/v1/stats", nil)
	if err != nil {
		return err
	}
	var st struct {
		TopCluster string `json:"top_cluster"`
		TopSite    string `json:"top_site"`
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		return fmt.Errorf("/v1/stats: %w", err)
	}
	if st.TopCluster == "" || st.TopSite == "" {
		return fmt.Errorf("/v1/stats reports no top cluster/site — empty bundle?")
	}
	// A boutique tracker host the generated lists know about: the same
	// probe regardless of which bundle is served.
	blockURL := "https://" + web.ActorHost(7) + "/beacon.js"

	fmt.Println("== GET /v1/stats")
	os.Stdout.Write(stats)
	steps := []struct {
		header, method, url string
		body                []byte
	}{
		{"== POST /v1/classify (top cluster hash)", "POST", base + "/v1/classify",
			[]byte(fmt.Sprintf(`{"hash":%q}`, st.TopCluster))},
		{"== POST /v1/classify/batch (top cluster hash + unknown)", "POST", base + "/v1/classify/batch",
			[]byte(fmt.Sprintf(`{"hashes":[%q,"unknown"]}`, st.TopCluster))},
		{"== GET /v1/cluster/{top cluster hash}", "GET", base + "/v1/cluster/" + st.TopCluster, nil},
		{"== GET /v1/block (boutique tracker script)", "GET", base + "/v1/block?url=" + blockURL, nil},
		{"== GET /v1/site/{top fingerprinting site}", "GET", base + "/v1/site/" + st.TopSite, nil},
	}
	for _, s := range steps {
		body, err := fetch(s.method, s.url, s.body)
		if err != nil {
			return err
		}
		fmt.Println(s.header)
		os.Stdout.Write(body)
	}
	return nil
}

func fetch(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	if err != nil {
		return nil, err
	}
	if res.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, res.Status, strings.TrimSpace(string(out)))
	}
	return out, nil
}
