package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"canvassing/internal/bundle"
	"canvassing/internal/detect"
	"canvassing/internal/netsim"
	"canvassing/internal/obs/event"
	"canvassing/internal/serve"
)

// The request mix of BenchmarkServeMixedQPS: each round of eight
// requests carries three 64-hash batches and one each of classify,
// cluster, site, block and stats.
const (
	batchSize     = 64
	roundRequests = 8
)

// Request kinds, in round order.
var roundKinds = [roundRequests]string{"batch", "classify", "cluster", "batch", "site", "block", "batch", "stats"}

// servePlan is the serve workload's input: the keys the requests rotate
// over, taken from the bundle, and the answers the bundle's evidence
// events say the service must give.
type servePlan struct {
	seed     uint64
	canvases int
	// hashes are the canvases whose detect.classify events all agree,
	// so the expected verdict is unambiguous.
	hashes  []string
	verdict map[string]classifyWant
	batches []batch
	// clusters are the hashes with cluster.assign members.
	clusters    []string
	clusterSize map[string]int
	sites       []string
	siteFP      map[string]bool
	scripts     []string
	// answers holds, per client, the answers already checked, by call
	// key; each client touches only its own map.
	answers []map[string][]byte
}

type batch struct {
	hashes []string
	body   []byte
}

type classifyWant struct {
	fingerprintable bool
	reason          string
}

func newServePlan(dir string) (*servePlan, error) {
	b, err := bundle.Load(dir)
	if err != nil {
		return nil, err
	}
	p := &servePlan{
		seed:        b.Manifest.Seed,
		verdict:     map[string]classifyWant{},
		clusterSize: map[string]int{},
		siteFP:      map[string]bool{},
	}
	ambiguous := map[string]bool{}
	members := map[string]map[string]bool{}
	scripts := map[string]bool{}
	for i := range b.Events {
		e := &b.Events[i]
		switch e.Kind {
		case event.DetectClassify:
			want := classifyWant{fingerprintable: e.Verdict == "fingerprintable"}
			if !want.fingerprintable {
				want.reason = e.Evidence
			}
			if prev, seen := p.verdict[e.Subject]; seen && prev != want {
				ambiguous[e.Subject] = true
			}
			p.verdict[e.Subject] = want
			p.siteFP[e.Site] = p.siteFP[e.Site] || want.fingerprintable
			if script, _, _, _, ok := detect.ParseEventDetail(e.Detail); ok {
				if _, err := netsim.ParseURL(script); err == nil {
					scripts[script] = true
				}
			}
		case event.ClusterAssign:
			if members[e.Subject] == nil {
				members[e.Subject] = map[string]bool{}
			}
			members[e.Subject][e.Site] = true
		}
	}
	p.canvases = len(p.verdict)
	for h := range p.verdict {
		if !ambiguous[h] {
			p.hashes = append(p.hashes, h)
		}
	}
	for h, m := range members {
		p.clusters = append(p.clusters, h)
		p.clusterSize[h] = len(m)
	}
	for s := range p.siteFP {
		if s != "" {
			p.sites = append(p.sites, s)
		}
	}
	for s := range scripts {
		p.scripts = append(p.scripts, s)
	}
	for _, keys := range [][]string{p.hashes, p.clusters, p.sites, p.scripts} {
		if len(keys) == 0 {
			return nil, fmt.Errorf("bundle %s has too little evidence to serve (%d hashes, %d clusters, %d sites, %d scripts)",
				dir, len(p.hashes), len(p.clusters), len(p.sites), len(p.scripts))
		}
		sort.Strings(keys)
	}
	// 64 batches of 64 consecutive hashes, wrapping around.
	for j := 0; j < 64; j++ {
		hs := make([]string, batchSize)
		for k := range hs {
			hs[k] = p.hashes[(j*batchSize+k)%len(p.hashes)]
		}
		body, err := json.Marshal(serve.BatchClassifyRequest{Hashes: hs})
		if err != nil {
			return nil, err
		}
		p.batches = append(p.batches, batch{hashes: hs, body: body})
	}
	return p, nil
}

// call is one request of the mix, with what it must answer. key names
// the question: the service answers a question with the same bytes
// every time, so an answer equal to one already checked is correct.
type call struct {
	kind    string
	key     string
	method  string
	path    string
	body    []byte
	lookups int
	check   func(body []byte) error
}

// call returns the request at position pos of the mix for key index k.
func (p *servePlan) call(pos, k int) call {
	switch kind := roundKinds[pos]; kind {
	case "batch":
		i := (3*k + pos/3) % len(p.batches)
		b := p.batches[i]
		return call{kind: kind, key: fmt.Sprintf("batch/%d", i), method: "POST", path: "/v1/classify/batch", body: b.body, lookups: batchSize,
			check: func(resp []byte) error {
				var got serve.BatchClassifyResponse
				if err := json.Unmarshal(resp, &got); err != nil {
					return err
				}
				if len(got.Results) != len(b.hashes) {
					return fmt.Errorf("batch: %d results for %d hashes", len(got.Results), len(b.hashes))
				}
				for i, h := range b.hashes {
					if err := p.checkVerdict(h, got.Results[i]); err != nil {
						return err
					}
				}
				return nil
			}}
	case "classify":
		h := p.hashes[k%len(p.hashes)]
		body, _ := json.Marshal(serve.ClassifyRequest{Hash: h})
		return call{kind: kind, key: "classify/" + h, method: "POST", path: "/v1/classify", body: body, lookups: 1,
			check: func(resp []byte) error {
				var got serve.ClassifyResponse
				if err := json.Unmarshal(resp, &got); err != nil {
					return err
				}
				return p.checkVerdict(h, got)
			}}
	case "cluster":
		h := p.clusters[k%len(p.clusters)]
		return call{kind: kind, method: "GET", path: "/v1/cluster/" + h, lookups: 1,
			check: func(resp []byte) error {
				var got serve.ClusterResponse
				if err := json.Unmarshal(resp, &got); err != nil {
					return err
				}
				if got.Hash != h || got.Size != p.clusterSize[h] {
					return fmt.Errorf("cluster %s: size %d, the bundle has %d members", h, got.Size, p.clusterSize[h])
				}
				return nil
			}}
	case "site":
		s := p.sites[k%len(p.sites)]
		return call{kind: kind, method: "GET", path: "/v1/site/" + s, lookups: 1,
			check: func(resp []byte) error {
				var got serve.SiteResponse
				if err := json.Unmarshal(resp, &got); err != nil {
					return err
				}
				if got.Domain != s || got.Fingerprinting != p.siteFP[s] {
					return fmt.Errorf("site %s: fingerprinting=%v, the bundle says %v", s, got.Fingerprinting, p.siteFP[s])
				}
				return nil
			}}
	case "block":
		u := p.scripts[k%len(p.scripts)]
		return call{kind: kind, method: "GET", path: "/v1/block?url=" + url.QueryEscape(u), lookups: 1,
			check: func(resp []byte) error {
				var got serve.BlockResponse
				if err := json.Unmarshal(resp, &got); err != nil {
					return err
				}
				if got.URL != u {
					return fmt.Errorf("block: answered for %q, asked for %q", got.URL, u)
				}
				return nil
			}}
	default:
		return call{kind: kind, method: "GET", path: "/v1/stats", lookups: 1,
			check: func(resp []byte) error {
				var got serve.StatsResponse
				if err := json.Unmarshal(resp, &got); err != nil {
					return err
				}
				if got.Seed != p.seed || got.Canvases != p.canvases {
					return fmt.Errorf("stats: seed %d with %d canvases, the bundle has seed %d with %d",
						got.Seed, got.Canvases, p.seed, p.canvases)
				}
				return nil
			}}
	}
}

func (p *servePlan) checkVerdict(h string, got serve.ClassifyResponse) error {
	want := p.verdict[h]
	if got.Hash != h || !got.Known || got.Fingerprintable != want.fingerprintable || got.ExcludeReason != want.reason {
		return fmt.Errorf("classify %s: fingerprintable=%v reason=%q, the bundle says %v %q",
			h, got.Fingerprintable, got.ExcludeReason, want.fingerprintable, want.reason)
	}
	return nil
}

// loadStats is what a closed-loop window measured.
type loadStats struct {
	elapsed   time.Duration
	requests  int
	failed    int
	lookups   int
	latencyMS []float64
	byKind    map[string][]float64
	firstErr  error
}

func (s *loadStats) merge(o *loadStats) {
	s.requests += o.requests
	s.failed += o.failed
	s.lookups += o.lookups
	s.latencyMS = append(s.latencyMS, o.latencyMS...)
	for k, v := range o.byKind {
		s.byKind[k] = append(s.byKind[k], v...)
	}
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// drive runs a closed loop against base for d: conns clients each send
// the next request only after the previous answer has been read and
// verified. Each client holds one keep-alive connection. offset shifts
// the key rotation so the warm-up and the timed window ask for
// different keys first.
func (p *servePlan) drive(base string, d time.Duration, offset int) *loadStats {
	tr := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	results := make([]*loadStats, conns)
	for len(p.answers) < conns {
		p.answers = append(p.answers, map[string][]byte{})
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &loadStats{byKind: map[string][]float64{}}
			results[w] = st
			for n := 0; time.Now().Before(deadline); n++ {
				k := offset + n*conns + w
				for pos := 0; pos < roundRequests; pos++ {
					c := p.call(pos, k)
					ms, body, err := do(client, base, c)
					if err == nil {
						err = p.verify(w, c, body)
					}
					st.requests++
					st.lookups += c.lookups
					st.latencyMS = append(st.latencyMS, ms)
					st.byKind[c.kind] = append(st.byKind[c.kind], ms)
					if err != nil {
						st.failed++
						if st.firstErr == nil {
							st.firstErr = err
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	out := &loadStats{elapsed: time.Since(start), byKind: map[string][]float64{}}
	for _, st := range results {
		out.merge(st)
	}
	return out
}

// verify checks client w's answer to c: in full the first time, and
// after that by comparing it with the answer already checked.
func (p *servePlan) verify(w int, c call, body []byte) error {
	key := c.key
	if key == "" {
		key = c.path
	}
	if prev, ok := p.answers[w][key]; ok && bytes.Equal(prev, body) {
		return nil
	}
	if err := c.check(body); err != nil {
		return err
	}
	p.answers[w][key] = body
	return nil
}

// do sends one request and reads the answer. The latency runs from
// sending the request to having read the whole body.
func do(client *http.Client, base string, c call) (float64, []byte, error) {
	req, err := http.NewRequest(c.method, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	res, err := client.Do(req)
	if err != nil {
		return float64(time.Since(start)) / 1e6, nil, err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	ms := float64(time.Since(start)) / 1e6
	switch {
	case err != nil:
		return ms, nil, err
	case res.StatusCode != http.StatusOK:
		return ms, nil, fmt.Errorf("%s %s: status %d", c.method, c.path, res.StatusCode)
	}
	return ms, body, nil
}
