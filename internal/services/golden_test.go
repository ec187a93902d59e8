package services

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canvassing/internal/dom"
	"canvassing/internal/jsvm"
	"canvassing/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/canvas.golden from the current canvases")

// The golden pins the bytes of every canvas the corpus scripts extract,
// so a change anywhere under text, path or raster drawing that moves one
// pixel fails here, at package level, rather than only in a whole
// study's bundle digest.

// goldenExtractions runs src on a fresh page rendered by prof, settles
// it (timers, a click, a scroll, idle callbacks, so the deferred vendors
// fingerprint too) and returns every data URL it extracted, in order.
func goldenExtractions(t *testing.T, src string, prof *machine.Profile) []string {
	t.Helper()
	in := jsvm.New(jsvm.Options{RandSeed: 7})
	doc := dom.NewDocument(prof, "golden.example")
	var urls []string
	doc.Tracer = tracerFunc(func(iface, member string, args []string, ret string) {
		if member == "toDataURL" {
			urls = append(urls, ret)
		}
	})
	doc.Install(in)
	if _, err := in.RunSource(src); err != nil {
		t.Fatalf("script error: %v", err)
	}
	doc.Loop.RunTimers(nil)
	doc.Loop.Dispatch("click", nil)
	doc.Loop.Dispatch("scroll", nil)
	doc.Loop.RunIdle(nil)
	return urls
}

// currentCanvases renders one line per extracted data URL: profile,
// script, extraction index and the URL's SHA-256.
func currentCanvases(t *testing.T) string {
	params := ScriptParams{SiteDomain: "golden.example"}
	type script struct{ name, src string }
	var scripts []script
	for _, v := range Registry() {
		scripts = append(scripts, script{"vendor/" + v.Slug, v.Source(params)})
	}
	for _, v := range Deferred() {
		scripts = append(scripts, script{"deferred/" + v.Slug, v.Source(params)})
	}
	for _, k := range BenignKinds() {
		scripts = append(scripts, script{"benign/" + string(k), BenignSource(k)})
	}
	var b strings.Builder
	for _, prof := range []*machine.Profile{machine.Intel(), machine.AppleM1(), machine.Synthetic("golden-synth")} {
		for _, s := range scripts {
			for i, u := range goldenExtractions(t, s.src, prof) {
				fmt.Fprintf(&b, "%s %s %d %x\n", prof.Name, s.name, i, sha256.Sum256([]byte(u)))
			}
		}
	}
	return b.String()
}

func TestCanvasGolden(t *testing.T) {
	path := filepath.Join("testdata", "canvas.golden")
	got := currentCanvases(t)
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
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("canvas bytes drifted:\n got  %s\n want %s", g, w)
			}
		}
	}
}
