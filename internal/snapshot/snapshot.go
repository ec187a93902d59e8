// Package snapshot is a content-addressed store of fetched page
// resources. The first crawl to see a URL stores the served body under
// its content hash; later crawls of the same web — the ABP/uBO/M1
// re-crawl conditions — reuse the stored body instead of re-fetching.
// That is the paper-scale economy: §4.2's three re-crawl conditions
// revisit the same ~40k sites, and almost every script body they need
// was already served to the control crawl.
//
// Determinism contract: Fetch is called concurrently by crawl workers,
// but hit/miss accounting deliberately does NOT happen there — two
// workers racing for the same URL would make the counters scheduling-
// dependent. Instead the crawler's committer calls Account with each
// page's fetched URLs in page-index order, and the store counts a miss
// exactly when a URL is accounted for the first time. The counters
// live on the store, not in the metrics registry, so enabling snapshot
// reuse leaves bundle.DeterministicMetrics byte-identical (a pinned
// acceptance criterion).
package snapshot

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"canvassing/internal/netsim"
	"canvassing/internal/stats"
)

// SchemaVersion is the on-disk index format version.
const SchemaVersion = 1

// Store is the content-addressed body cache. The zero value is not
// usable; call New.
type Store struct {
	mu    sync.RWMutex
	byURL map[string]uint64 // URL → content hash
	blobs map[uint64]string // content hash → body

	// Accounting state: owned by the crawler's committer goroutine via
	// Account, locked anyway so Counts/State are safe to read anytime.
	seen      map[string]bool
	seenOrder []string
	hits      int64
	misses    int64
}

// New returns an empty store.
func New() *Store {
	return &Store{
		byURL: map[string]uint64{},
		blobs: map[uint64]string{},
		seen:  map[string]bool{},
	}
}

// Fetch returns the body stored for u, calling fetch and storing its
// result on first sight. Concurrent callers may race to fetch the same
// URL; both results are identical by construction (the substrate is
// deterministic), so last-write-wins is harmless. No hit/miss
// accounting happens here — see Account.
func (s *Store) Fetch(u netsim.URL, fetch func() (string, error)) (string, error) {
	key := u.String()
	s.mu.RLock()
	h, ok := s.byURL[key]
	body, okBody := s.blobs[h]
	s.mu.RUnlock()
	if ok && okBody {
		return body, nil
	}
	body, err := fetch()
	if err != nil {
		return "", err
	}
	h = stats.HashString(body)
	s.mu.Lock()
	s.byURL[key] = h
	s.blobs[h] = body
	s.mu.Unlock()
	return body, nil
}

// Account records one page's fetched URLs in commit order: the first
// accounting of a URL is a miss (the fetch that populated the store),
// every later one a hit. Called by the crawl committer in page-index
// order, which is what makes the counters independent of worker
// scheduling.
func (s *Store) Account(urls []string) {
	s.mu.Lock()
	for _, u := range urls {
		if s.seen[u] {
			s.hits++
		} else {
			s.seen[u] = true
			s.seenOrder = append(s.seenOrder, u)
			s.misses++
		}
	}
	s.mu.Unlock()
}

// Merge folds another store into this one — the recombination half of
// a distributed crawl, where each work-unit fetched through its own
// store and the coordinator rebuilds the shared one. Blobs dedupe by
// content hash. Accounting replays other's cursor against this store's
// seen-set: other's internal repeats are already collapsed into its
// hit count (adopted wholesale), and each of other's first-seen URLs
// counts here as a hit when some earlier-merged unit already fetched
// it, or as a fresh miss otherwise. Merging units in page order
// therefore reproduces the exact hit/miss totals and first-seen order
// of the single-process crawl's unified Account stream.
func (s *Store) Merge(other *Store) {
	if other == nil {
		return
	}
	other.mu.RLock()
	byURL := make(map[string]uint64, len(other.byURL))
	for u, h := range other.byURL {
		byURL[u] = h
	}
	blobs := make(map[uint64]string, len(other.blobs))
	for h, b := range other.blobs {
		blobs[h] = b
	}
	order := append([]string(nil), other.seenOrder...)
	hits := other.hits
	other.mu.RUnlock()

	s.mu.Lock()
	for u, h := range byURL {
		s.byURL[u] = h
	}
	for h, b := range blobs {
		if _, ok := s.blobs[h]; !ok {
			s.blobs[h] = b
		}
	}
	s.hits += hits
	for _, u := range order {
		if s.seen[u] {
			s.hits++
		} else {
			s.seen[u] = true
			s.seenOrder = append(s.seenOrder, u)
			s.misses++
		}
	}
	s.mu.Unlock()
}

// Counts returns the accounted hit/miss totals.
func (s *Store) Counts() (hits, misses int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hits, s.misses
}

// HitRate returns the accounted hit rate and whether any lookups were
// accounted at all — "no lookups" and "0% hit rate" are different
// facts and reports render them differently.
func (s *Store) HitRate() (rate float64, ok bool) {
	hits, misses := s.Counts()
	if hits+misses == 0 {
		return 0, false
	}
	return float64(hits) / float64(hits+misses), true
}

// Len returns the number of distinct stored bodies.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// State is the serializable form of a store — the snapshot half of a
// study checkpoint. Bodies are keyed by content hash; AccountedURLs is
// the accounting cursor (first-seen order), from which the seen-set
// and the miss count rebuild exactly.
type State struct {
	Schema int `json:"schema"`
	// URLs maps URL → content hash (hex, for JSON friendliness).
	URLs map[string]string `json:"urls"`
	// AccountedURLs lists accounted URLs in first-seen order.
	AccountedURLs []string `json:"accounted_urls,omitempty"`
	// Hits is the accounted hit total (misses == len(AccountedURLs)).
	Hits int64 `json:"hits"`
}

// Export captures the store's index and accounting cursor. Blob bodies
// are not in the State — Save writes them content-addressed next to
// the index.
func (s *Store) Export() State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.exportLocked()
}

// exportLocked is Export for callers holding s.mu.
func (s *Store) exportLocked() State {
	st := State{Schema: SchemaVersion, URLs: make(map[string]string, len(s.byURL)), Hits: s.hits}
	for u, h := range s.byURL {
		st.URLs[u] = fmt.Sprintf("%016x", h)
	}
	st.AccountedURLs = append([]string(nil), s.seenOrder...)
	return st
}

// restoreAccounting rebuilds the accounting cursor from a State.
func (s *Store) restoreAccounting(st State) {
	s.mu.Lock()
	s.seen = make(map[string]bool, len(st.AccountedURLs))
	s.seenOrder = append(s.seenOrder[:0], st.AccountedURLs...)
	for _, u := range st.AccountedURLs {
		s.seen[u] = true
	}
	s.hits = st.Hits
	s.misses = int64(len(st.AccountedURLs))
	s.mu.Unlock()
}

// Dir layout under Save's dir.
const (
	indexFile = "index.json"
	blobDir   = "blobs"
)

// Save persists the store under dir: content-addressed blob files plus
// an atomically replaced index.json. Blobs already on disk are left
// alone (content addressing makes rewrites pointless), so periodic
// checkpoint saves cost only the new bodies.
func (s *Store) Save(dir string) error {
	if err := os.MkdirAll(filepath.Join(dir, blobDir), 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// The blobs and the index are copied under one read lock. Crawl
	// workers keep calling Fetch while a checkpoint saves, and an index
	// exported after the blobs were written could name a body this save
	// never wrote.
	s.mu.RLock()
	blobs := make(map[uint64]string, len(s.blobs))
	for h, b := range s.blobs {
		blobs[h] = b
	}
	st := s.exportLocked()
	s.mu.RUnlock()
	hashes := make([]uint64, 0, len(blobs))
	for h := range blobs {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for _, h := range hashes {
		path := filepath.Join(dir, blobDir, fmt.Sprintf("%016x.js", h))
		if _, err := os.Stat(path); err == nil {
			continue
		}
		if err := atomicWrite(path, []byte(blobs[h])); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return atomicWrite(filepath.Join(dir, indexFile), append(data, '\n'))
}

// Load rebuilds a store from a Save directory.
func Load(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("snapshot: index: %w", err)
	}
	if st.Schema > SchemaVersion {
		return nil, fmt.Errorf("snapshot: index schema v%d is newer than supported v%d", st.Schema, SchemaVersion)
	}
	s := New()
	for u, hex := range st.URLs {
		h, err := parseHash(hex)
		if err != nil {
			return nil, err
		}
		s.byURL[u] = h
		if _, ok := s.blobs[h]; ok {
			continue
		}
		body, err := os.ReadFile(filepath.Join(dir, blobDir, hex+".js"))
		if err != nil {
			return nil, fmt.Errorf("snapshot: blob %s: %w", hex, err)
		}
		if got := stats.HashString(string(body)); got != h {
			return nil, fmt.Errorf("snapshot: blob %s content hash mismatch (got %016x)", hex, got)
		}
		s.blobs[h] = string(body)
	}
	s.restoreAccounting(st)
	return s, nil
}

// parseHash reads an index hash. Only the exact form Export writes, 16
// lowercase hex digits, is accepted: the blob path is built from it, so
// anything else (a "../" suffix above all) must not reach the file
// system.
func parseHash(hex string) (uint64, error) {
	h, err := strconv.ParseUint(hex, 16, 64)
	if err != nil || fmt.Sprintf("%016x", h) != hex {
		return 0, fmt.Errorf("snapshot: index hash %q is not 16 lowercase hex digits", hex)
	}
	return h, nil
}

// atomicWrite writes data to path via a same-directory temp file and
// rename, so readers never see a torn file.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}
