package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"canvassing/internal/stats"
)

// FuzzSnapshotLoad feeds arbitrary index.json bytes to Load over a
// store directory holding two valid blobs, with a file outside the
// store that a path-traversing hash could reach. Load must return an
// error or a store in which every URL resolves to a blob under blobs/
// whose content hash is the one the URL names.
func FuzzSnapshotLoad(f *testing.F) {
	dir, bodies, secret := storeFixture(f, f.TempDir())
	valid, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(oneURLIndex(secret + "/../../../secret"))
	f.Add(oneURLIndex("1"))
	f.Add(oneURLIndex(strings.ToUpper(bodies[0])))
	f.Add(oneURLIndex(bodies[0] + "x"))
	f.Add(oneURLIndex(bodies[1]))
	f.Add([]byte(`{"schema": 1, "urls": {}, "accounted_urls": ["a", "a"], "hits": -3}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir, _, _ := storeFixture(t, t.TempDir())
		if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Load(dir)
		if err != nil {
			return
		}
		for u, h := range s.byURL {
			onDisk, err := os.ReadFile(filepath.Join(dir, blobDir, fmt.Sprintf("%016x.js", h)))
			if err != nil {
				t.Fatalf("URL %q names hash %016x, which has no blob under %s/: %v", u, h, blobDir, err)
			}
			if body := s.blobs[h]; body != string(onDisk) || stats.HashString(body) != h {
				t.Fatalf("URL %q serves %q for hash %016x; the blob holds %q", u, body, h, onDisk)
			}
		}
	})
}
