package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"canvassing/internal/blocklist"
	"canvassing/internal/detect"
	"canvassing/internal/netsim"
	"canvassing/internal/obs/ops"
)

// maxClassifyBody bounds POST /v1/classify payloads. Real canvas data
// URLs are tens of KB; anything past 1 MiB is hostile.
const maxClassifyBody = 1 << 20

// ClassifyRequest is the POST /v1/classify body: a canvas hash, a full
// data URL, or both (the data URL wins — its hash is authoritative).
type ClassifyRequest struct {
	Hash    string `json:"hash,omitempty"`
	DataURL string `json:"data_url,omitempty"`
	// Anim is the extracting script's animation flag (heuristic 3);
	// only meaningful with DataURL.
	Anim bool `json:"anim,omitempty"`
}

// Heuristics is the per-heuristic breakdown of a classify verdict.
type Heuristics struct {
	LossyFormat     bool `json:"lossy_format"`
	SmallCanvas     bool `json:"small_canvas"`
	AnimationScript bool `json:"animation_script"`
	Undecodable     bool `json:"undecodable"`
}

// ClassifyResponse answers POST /v1/classify. Fields are fixed-order
// (no maps) so equal queries marshal to identical bytes.
type ClassifyResponse struct {
	Hash  string `json:"hash"`
	Known bool   `json:"known"`
	// Source is "index" for canvases the study recorded, "computed"
	// for fresh data URLs classified on demand.
	Source          string      `json:"source,omitempty"`
	Verdict         string      `json:"verdict,omitempty"`
	Fingerprintable bool        `json:"fingerprintable"`
	ExcludeReason   string      `json:"exclude_reason,omitempty"`
	Heuristics      *Heuristics `json:"heuristics,omitempty"`
	Format          string      `json:"format,omitempty"`
	Width           int         `json:"width,omitempty"`
	Height          int         `json:"height,omitempty"`
	Extractions     int         `json:"extractions,omitempty"`
	Conditions      []string    `json:"conditions,omitempty"`
	Sites           []string    `json:"sites,omitempty"`
	Scripts         []string    `json:"scripts,omitempty"`
	ClusterSize     int         `json:"cluster_size,omitempty"`
	Vendor          string      `json:"vendor,omitempty"`
}

// maxBatchItems bounds one POST /v1/classify/batch request.
const maxBatchItems = 1024

// BatchClassifyRequest is the bulk-lookup body: hashes resolved in
// order against the index. High-QPS clients use this to amortize the
// per-request HTTP cost over many verdicts.
type BatchClassifyRequest struct {
	Hashes []string `json:"hashes"`
}

// BatchClassifyResponse answers POST /v1/classify/batch; Results[i]
// answers Hashes[i].
type BatchClassifyResponse struct {
	Results []ClassifyResponse `json:"results"`
}

// ClusterMember is one site in a canvas group.
type ClusterMember struct {
	Site   string `json:"site"`
	Cohort string `json:"cohort,omitempty"`
}

// ClusterResponse answers GET /v1/cluster/{hash}.
type ClusterResponse struct {
	Hash            string          `json:"hash"`
	Size            int             `json:"size"`
	Vendor          string          `json:"vendor,omitempty"`
	Mechanism       string          `json:"mechanism,omitempty"`
	Members         []ClusterMember `json:"members"`
	Conditions      []string        `json:"conditions,omitempty"`
	Extractions     int             `json:"extractions"`
	Fingerprintable bool            `json:"fingerprintable"`
}

// ListVerdict is one filter list's answer for a URL.
type ListVerdict struct {
	List    string `json:"list"`
	Matched bool   `json:"matched"`
	Rule    string `json:"rule,omitempty"`
	// WouldBlock applies full ABP semantics (exceptions beat blocks).
	WouldBlock bool `json:"would_block"`
}

// DomainVerdict is the Disconnect-style domain list's answer.
type DomainVerdict struct {
	List   string `json:"list"`
	Listed bool   `json:"listed"`
}

// BlockResponse answers GET /v1/block.
type BlockResponse struct {
	URL         string        `json:"url"`
	Type        string        `json:"type"`
	PageHost    string        `json:"page_host,omitempty"`
	ThirdParty  bool          `json:"third_party"`
	Blocked     bool          `json:"blocked"`
	EasyList    ListVerdict   `json:"easylist"`
	EasyPrivacy ListVerdict   `json:"easyprivacy"`
	Disconnect  DomainVerdict `json:"disconnect"`
}

// ReasonCount is one exclusion reason's tally in a site summary.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

// SiteCondJSON is one crawl condition's evidence on a site.
type SiteCondJSON struct {
	Condition       string          `json:"condition"`
	Extractions     int             `json:"extractions"`
	Fingerprintable int             `json:"fingerprintable"`
	Excluded        []ReasonCount   `json:"excluded,omitempty"`
	BlockedScripts  []BlockedScript `json:"blocked_scripts,omitempty"`
	VisitOutcome    string          `json:"visit_outcome,omitempty"`
}

// SiteResponse answers GET /v1/site/{domain}.
type SiteResponse struct {
	Domain         string         `json:"domain"`
	Fingerprinting bool           `json:"fingerprinting"`
	Cohort         string         `json:"cohort,omitempty"`
	Conditions     []SiteCondJSON `json:"conditions"`
	Vendors        []VendorRef    `json:"vendors,omitempty"`
	Clusters       []string       `json:"clusters,omitempty"`
	Randomization  string         `json:"randomization,omitempty"`
}

// StatsResponse answers GET /v1/stats: the deterministic index summary
// serve -check probes for stable identifiers. Deliberately excludes
// anything configuration-dependent (the batch window) so the payload
// is byte-identical across serving configurations. SeededVerdicts
// counts the detect.classify events whose detail parses.
type StatsResponse struct {
	Seed                    uint64   `json:"seed"`
	Scale                   float64  `json:"scale"`
	Conditions              []string `json:"conditions,omitempty"`
	Events                  int      `json:"events"`
	Canvases                int      `json:"canvases"`
	FingerprintableCanvases int      `json:"fingerprintable_canvases"`
	Sites                   int      `json:"sites"`
	FingerprintingSites     int      `json:"fingerprinting_sites"`
	Clusters                int      `json:"clusters"`
	AttributedClusters      int      `json:"attributed_clusters"`
	SeededVerdicts          int      `json:"seeded_verdicts"`
	TopCluster              string   `json:"top_cluster,omitempty"`
	TopSite                 string   `json:"top_site,omitempty"`
}

// Routes returns the verdict API endpoints, ready to append to the ops
// plane's route set.
func (s *Service) Routes() []ops.Route {
	return []ops.Route{
		{Pattern: "POST /v1/classify", Desc: "canvas hash or data-URL → verdict + heuristic breakdown (JSON body)",
			Handler: s.instrument(s.handleClassify)},
		{Pattern: "POST /v1/classify/batch", Desc: "bulk hash lookup: {\"hashes\": [...]} → verdicts in order",
			Handler: s.instrument(s.handleClassifyBatch)},
		{Pattern: "GET /v1/cluster/{hash}", Desc: "canvas group: members, cohorts, vendor attribution",
			Handler: s.instrument(s.handleCluster)},
		{Pattern: "GET /v1/block", Desc: "would the standard lists block this URL (?url=&type=&page=)",
			Handler: s.instrument(s.handleBlock)},
		{Pattern: "GET /v1/site/{domain}", Desc: "per-site prevalence summary",
			Handler: s.instrument(s.handleSite)},
		{Pattern: "GET /v1/stats", Desc: "index summary (deterministic; serve -check reads it)",
			Handler: s.instrument(s.handleStats)},
	}
}

// instrument wraps a handler with the request/error counters and the
// latency histogram.
func (s *Service) instrument(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.reqs.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		if sw.status >= 400 {
			s.errs.Inc()
		}
		s.latency.Observe(time.Since(start).Seconds())
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// marshal renders a response deterministically (indented; fixed-order
// struct fields, never maps).
func marshal(v any) ([]byte, int) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return []byte(fmt.Sprintf("marshal: %v", err)), http.StatusInternalServerError
	}
	return append(body, '\n'), http.StatusOK
}

// flightKey joins a route name and a request's variable parts into a
// Batcher key. Each part is prefixed with its length, so two different
// requests never share a flight, even when a part holds the NUL a plain
// join would separate parts with: JSON strings and query values may.
func flightKey(route string, parts ...string) string {
	n := len(route) + 1
	for _, p := range parts {
		n += binary.MaxVarintLen64 + len(p)
	}
	var k strings.Builder
	k.Grow(n)
	k.WriteString(route)
	k.WriteByte(0)
	var length [binary.MaxVarintLen64]byte
	for _, p := range parts {
		k.Write(binary.AppendUvarint(length[:0], uint64(len(p))))
		k.WriteString(p)
	}
	return k.String()
}

// writeResponse emits a batched probe result.
func writeResponse(w http.ResponseWriter, body []byte, status int) {
	if status == http.StatusOK {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Service) handleClassify(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxClassifyBody)
	var req ClassifyRequest
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body exceeds 1 MiB", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Hash == "" && req.DataURL == "" {
		http.Error(w, "one of hash or data_url is required", http.StatusBadRequest)
		return
	}
	if len(req.DataURL) > maxClassifyBody {
		http.Error(w, "data_url exceeds 1 MiB", http.StatusRequestEntityTooLarge)
		return
	}
	// The batch key discriminates hash-mode from data-mode: the two
	// return different payload shapes for the same canvas (hash-mode
	// reports the study's recorded verdict, data-mode a live
	// classification under the caller's anim flag).
	var key string
	var probe func() ([]byte, int)
	if req.DataURL != "" {
		hash := detect.HashDataURL(req.DataURL)
		key = flightKey("classify.data", hash, strconv.FormatBool(req.Anim))
		probe = func() ([]byte, int) { return marshal(s.classifyData(hash, req.DataURL, req.Anim)) }
	} else {
		key = flightKey("classify.hash", req.Hash)
		probe = func() ([]byte, int) { return s.hashAnswer(req.Hash), http.StatusOK }
	}
	body, status := s.batch.Do(key, probe)
	writeResponse(w, body, status)
}

// handleClassifyBatch is the bulk lookup path: one HTTP round trip,
// up to maxBatchItems index probes. Identical batches inside a window
// coalesce like any other key.
func (s *Service) handleClassifyBatch(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxClassifyBody)
	var req BatchClassifyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "request body exceeds 1 MiB", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Hashes) == 0 {
		http.Error(w, "hashes is required and must be non-empty", http.StatusBadRequest)
		return
	}
	if len(req.Hashes) > maxBatchItems {
		http.Error(w, fmt.Sprintf("batch exceeds %d hashes", maxBatchItems), http.StatusBadRequest)
		return
	}
	body, status := s.batch.Do(flightKey("classify.batch", req.Hashes...), func() ([]byte, int) {
		return s.batchAnswer(req.Hashes), http.StatusOK
	})
	writeResponse(w, body, status)
}

// A batch body is what MarshalIndent writes for a BatchClassifyResponse:
// batchOpen, the answers as items of the results array separated by
// batchSep, then batchClose.
const (
	batchOpen  = "{\n  \"results\": [\n    "
	batchSep   = ",\n    "
	batchClose = "\n  ]\n}\n"
)

// batchAnswer assembles the batch body for hashes from their answers.
// Each answer becomes an item of the results array: its final newline
// is dropped, and each of its other newlines gets four more spaces of
// indent after it. encoding/json escapes newlines inside strings, so
// every newline in an answer is a line break.
func (s *Service) batchAnswer(hashes []string) []byte {
	answers := make([][]byte, len(hashes))
	n := len(batchOpen) + len(batchSep)*(len(hashes)-1) + len(batchClose)
	for i, h := range hashes {
		answers[i] = s.hashAnswer(h)
		n += len(answers[i]) - 1 + 4*(bytes.Count(answers[i], []byte("\n"))-1)
	}
	body := make([]byte, 0, n)
	body = append(body, batchOpen...)
	for i, answer := range answers {
		if i > 0 {
			body = append(body, batchSep...)
		}
		answer = answer[:len(answer)-1]
		for {
			nl := bytes.IndexByte(answer, '\n')
			if nl < 0 {
				break
			}
			body = append(append(body, answer[:nl+1]...), "    "...)
			answer = answer[nl+1:]
		}
		body = append(body, answer...)
	}
	return append(body, batchClose...)
}

// hashAnswer is the hash-mode classify answer for hash: the stored
// bytes of a hash the index knows, else the unknown-hash answer.
func (s *Service) hashAnswer(hash string) []byte {
	if rec := s.Index.Canvas(hash); rec != nil {
		return rec.answer
	}
	return unknownAnswer(hash)
}

// unknownHead and unknownTail surround the hash's JSON string in the
// answer for a hash the index does not know: marshal of a
// ClassifyResponse that holds only the hash. Hash is the one string
// field without omitempty, so the first "" is its value.
var unknownHead, unknownTail = func() (string, string) {
	body, _ := marshal(ClassifyResponse{})
	head, tail, _ := strings.Cut(string(body), `""`)
	return head, tail
}()

// unknownAnswer renders the answer for a hash the index does not know.
// The hash is client text, so this renders per request, but only the
// hash: json.Marshal escapes it as marshal would, and the fields
// around it are fixed.
func unknownAnswer(hash string) []byte {
	quoted, _ := json.Marshal(hash) // cannot fail: every string encodes
	body := make([]byte, 0, len(unknownHead)+len(quoted)+len(unknownTail))
	body = append(body, unknownHead...)
	body = append(body, quoted...)
	return append(body, unknownTail...)
}

// classifyRecord is a known canvas's hash-mode classify answer.
func classifyRecord(rec *CanvasRecord) ClassifyResponse {
	resp := ClassifyResponse{
		Hash:            rec.Hash,
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

// classifyData classifies a full data URL. Classify is a pure function
// of the payload and the flag, so a canvas the study recorded gets the
// verdict the bundle holds for it, and nothing is kept per request.
func (s *Service) classifyData(hash, dataURL string, anim bool) ClassifyResponse {
	v := detect.Classify(dataURL, anim)
	resp := ClassifyResponse{
		Hash:            hash,
		Known:           true,
		Source:          "computed",
		Fingerprintable: v.Fingerprintable,
		ExcludeReason:   string(v.Exclude),
		Format:          string(v.Format),
		Width:           v.W,
		Height:          v.H,
	}
	if rec := s.Index.Canvas(hash); rec != nil {
		resp.Source = "index"
		resp.Extractions = rec.Extractions
		resp.Conditions = rec.Conditions
		resp.Sites = rec.Sites
		resp.Scripts = rec.ScriptURLs
		resp.ClusterSize = len(rec.ClusterSites)
		resp.Vendor = rec.Vendor
	}
	resp.Verdict, resp.Heuristics = verdictFields(v.Fingerprintable, v.Exclude)
	return resp
}

func verdictFields(fingerprintable bool, reason detect.Reason) (string, *Heuristics) {
	h := &Heuristics{
		LossyFormat:     reason == detect.LossyFormat,
		SmallCanvas:     reason == detect.SmallCanvas,
		AnimationScript: reason == detect.AnimationScript,
		Undecodable:     reason == detect.Undecodable,
	}
	if fingerprintable {
		return "fingerprintable", h
	}
	return "excluded", h
}

func (s *Service) handleCluster(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if hash == "" {
		http.Error(w, "missing cluster hash", http.StatusBadRequest)
		return
	}
	body, status := s.batch.Do(flightKey("cluster", hash), func() ([]byte, int) {
		rec := s.Index.Canvas(hash)
		if rec == nil || len(rec.ClusterSites) == 0 {
			return []byte("unknown cluster\n"), http.StatusNotFound
		}
		resp := ClusterResponse{
			Hash:            hash,
			Size:            len(rec.ClusterSites),
			Vendor:          rec.Vendor,
			Mechanism:       rec.Mechanism,
			Conditions:      rec.Conditions,
			Extractions:     rec.Extractions,
			Fingerprintable: rec.Fingerprintable,
		}
		for _, site := range rec.ClusterSites {
			resp.Members = append(resp.Members, ClusterMember{Site: site, Cohort: rec.CohortOf[site]})
		}
		return marshal(resp)
	})
	writeResponse(w, body, status)
}

func (s *Service) handleBlock(w http.ResponseWriter, r *http.Request) {
	rawURL := r.URL.Query().Get("url")
	if rawURL == "" {
		http.Error(w, "url query parameter is required", http.StatusBadRequest)
		return
	}
	typ := blocklist.TypeScript
	if t := r.URL.Query().Get("type"); t != "" {
		switch blocklist.RequestType(t) {
		case blocklist.TypeScript, blocklist.TypeDocument, blocklist.TypeSubdocument,
			blocklist.TypeImage, blocklist.TypeOther:
			typ = blocklist.RequestType(t)
		default:
			http.Error(w, fmt.Sprintf("unknown resource type %q", t), http.StatusBadRequest)
			return
		}
	}
	page := r.URL.Query().Get("page")
	if s.Lists == nil {
		http.Error(w, "blocklists unavailable for this bundle", http.StatusNotFound)
		return
	}
	u, err := netsim.ParseURL(rawURL)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad url: %v", err), http.StatusBadRequest)
		return
	}
	body, status := s.batch.Do(flightKey("block", rawURL, string(typ), page), func() ([]byte, int) {
		req := blocklist.Request{
			URL:      rawURL,
			Type:     typ,
			PageHost: page,
			// Without a page context, assume third-party — the posture
			// under which tracker rules ($third-party) apply.
			ThirdParty: page == "" || !netsim.SameSite(u.Host, page),
		}
		resp := BlockResponse{
			URL: rawURL, Type: string(typ), PageHost: page, ThirdParty: req.ThirdParty,
			EasyList:    listVerdict(s.Lists.EasyList, req),
			EasyPrivacy: listVerdict(s.Lists.EasyPrivacy, req),
			Disconnect: DomainVerdict{
				List:   s.Lists.Disconnect.Name,
				Listed: s.Lists.Disconnect.ContainsHost(u.Host),
			},
		}
		resp.Blocked = resp.EasyList.WouldBlock || resp.EasyPrivacy.WouldBlock || resp.Disconnect.Listed
		return marshal(resp)
	})
	writeResponse(w, body, status)
}

func listVerdict(l *blocklist.List, req blocklist.Request) ListVerdict {
	v := ListVerdict{List: l.Name}
	if rule := l.Match(req); rule != nil {
		v.Matched = true
		v.Rule = rule.Raw
		v.WouldBlock = l.ShouldBlock(req)
	}
	return v
}

func (s *Service) handleSite(w http.ResponseWriter, r *http.Request) {
	domain := r.PathValue("domain")
	if domain == "" {
		http.Error(w, "missing site domain", http.StatusBadRequest)
		return
	}
	body, status := s.batch.Do(flightKey("site", domain), func() ([]byte, int) {
		rec := s.Index.Site(domain)
		if rec == nil {
			return []byte("unknown site\n"), http.StatusNotFound
		}
		return marshal(siteResponse(rec))
	})
	writeResponse(w, body, status)
}

func siteResponse(rec *SiteRecord) SiteResponse {
	resp := SiteResponse{
		Domain:         rec.Domain,
		Fingerprinting: rec.Fingerprinting(),
		Cohort:         rec.Cohort,
		Vendors:        rec.Vendors,
		Clusters:       rec.Clusters,
		Randomization:  rec.Randomization,
	}
	for _, cond := range rec.CondNames {
		cs := rec.Conditions[cond]
		cj := SiteCondJSON{
			Condition:       cond,
			Extractions:     cs.Extractions,
			Fingerprintable: cs.Fingerprintable,
			BlockedScripts:  cs.Blocked,
			VisitOutcome:    cs.VisitOutcome,
		}
		reasons := make([]string, 0, len(cs.Excluded))
		for reason := range cs.Excluded {
			reasons = append(reasons, string(reason))
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			cj.Excluded = append(cj.Excluded, ReasonCount{Reason: reason, Count: cs.Excluded[detect.Reason(reason)]})
		}
		resp.Conditions = append(resp.Conditions, cj)
	}
	return resp
}

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	body, status := s.batch.Do("stats", func() ([]byte, int) {
		st := s.Index.Stats()
		return marshal(StatsResponse{
			Seed:                    s.Bundle.Manifest.Seed,
			Scale:                   s.Bundle.Manifest.Scale,
			Conditions:              st.Conditions,
			Events:                  st.EventsIndexed,
			Canvases:                st.Canvases,
			FingerprintableCanvases: st.FingerprintableCanvases,
			Sites:                   st.Sites,
			FingerprintingSites:     st.FingerprintingSites,
			Clusters:                st.Clusters,
			AttributedClusters:      st.AttributedClusters,
			SeededVerdicts:          st.Verdicts,
			TopCluster:              st.TopCluster,
			TopSite:                 st.TopSite,
		})
	})
	writeResponse(w, body, status)
}
