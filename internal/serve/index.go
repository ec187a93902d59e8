package serve

import (
	"sort"

	"canvassing/internal/bundle"
	"canvassing/internal/detect"
	"canvassing/internal/obs/event"
)

// CanvasRecord is the read index's view of one canvas identity: every
// fact the evidence log recorded about a hash, flattened for O(1)
// lookup. Records are immutable after Build, which is what makes the
// index maps safe for lock-free concurrent reads.
type CanvasRecord struct {
	// Hash is the SHA-256 canvas identity (detect.HashDataURL).
	Hash string
	// Verdict is the §3.2 classification replayed from the bundle's
	// detect.classify events.
	Fingerprintable bool
	Exclude         detect.Reason
	// AnimSeen reports that at least one extraction of this canvas came
	// from an animation-flagged script (heuristic 3 fired).
	AnimSeen bool
	// W, H, Format are the decoded payload properties from the event
	// detail (zero when the detail predates the format).
	W, H   int
	Format string
	// Extractions counts detect.classify events for this hash across
	// all conditions.
	Extractions int
	// Conditions lists the crawl conditions the hash appeared in, sorted.
	Conditions []string
	// Sites lists the distinct extracting sites across conditions, sorted.
	Sites []string
	// ScriptURLs lists the distinct extracting scripts, sorted.
	ScriptURLs []string
	// ClusterSites lists the cluster.assign members, sorted; CohortOf
	// maps each member to its cohort label.
	ClusterSites []string
	CohortOf     map[string]string
	// Vendor and Mechanism carry the attrib.evidence group resolution
	// ("" when the group is unidentified).
	Vendor, Mechanism string

	// answer is the hash-mode classify answer as marshal renders it.
	// The finalize pass renders it once, so classify requests copy it.
	answer []byte
}

// BlockedScript is one blocklist.match decision on a site.
type BlockedScript struct {
	URL  string `json:"url"`
	Rule string `json:"rule,omitempty"`
	List string `json:"list,omitempty"`
}

// SiteCondStats is a site's per-condition evidence tally.
type SiteCondStats struct {
	Extractions     int
	Fingerprintable int
	Excluded        map[detect.Reason]int
	Blocked         []BlockedScript
	VisitOutcome    string
}

// VendorRef is one site→vendor attribution with its mechanism.
type VendorRef struct {
	Vendor    string `json:"vendor"`
	Mechanism string `json:"mechanism,omitempty"`
}

// SiteRecord is the read index's per-site view.
type SiteRecord struct {
	Domain string
	// Cohort is the site's cohort label when clustering recorded it
	// ("popular", "tail", "demo"; "" for sites with no fingerprintable
	// canvas).
	Cohort string
	// Conditions maps crawl condition → evidence tally.
	Conditions map[string]*SiteCondStats
	// CondNames is Conditions' key set, sorted (deterministic render order).
	CondNames []string
	// Vendors lists the attributed vendors, sorted by slug.
	Vendors []VendorRef
	// Clusters lists the canvas-group hashes the site belongs to, sorted.
	Clusters []string
	// Randomization is the Algorithm 1 inconsistency verdict, when the
	// bundle's run probed this site ("" otherwise).
	Randomization string
}

// Fingerprinting reports whether any condition saw a fingerprintable
// canvas on the site.
func (s *SiteRecord) Fingerprinting() bool {
	for _, cs := range s.Conditions {
		if cs.Fingerprintable > 0 {
			return true
		}
	}
	return false
}

// IndexStats summarizes a built index (the /v1/stats payload core and
// the startup banner's numbers).
type IndexStats struct {
	EventsIndexed           int
	Canvases                int
	FingerprintableCanvases int
	Sites                   int
	FingerprintingSites     int
	Clusters                int
	AttributedClusters      int
	// Verdicts counts the detect.classify events whose detail
	// ParseEventDetail accepts.
	Verdicts   int
	Conditions []string
	// TopCluster is the hash with the most cluster members (ties broken
	// by hash); TopSite the fingerprinting site with the most
	// fingerprintable extractions (ties broken by domain). Both are ""
	// on empty indexes. serve -check uses them as deterministic probes.
	TopCluster string
	TopSite    string
}

// Index holds the read-only lookup maps over one loaded bundle. It is
// built once and only read afterwards, so concurrent lookups need no
// lock. Every slice inside a record is sorted during the deterministic
// finalize pass, so responses are byte-identical at any GOMAXPROCS
// (TestServeShardInvariance pins this).
type Index struct {
	canvas map[string]*CanvasRecord
	sites  map[string]*SiteRecord
	stats  IndexStats
}

// BuildIndex constructs the indexes from a loaded bundle's event log.
// Construction iterates events in record order and finalizes over
// sorted key slices — never over Go map iteration — so the result is
// deterministic.
func BuildIndex(b *bundle.Bundle) *Index {
	ix := &Index{
		canvas: map[string]*CanvasRecord{},
		sites:  map[string]*SiteRecord{},
	}

	// Accumulate into builder maps first; set semantics live here so
	// the finalize pass can sort once.
	canvases := map[string]*canvasBuild{}
	sites := map[string]*siteBuild{}
	canvasOf := func(hash string) *canvasBuild {
		cb := canvases[hash]
		if cb == nil {
			cb = &canvasBuild{
				rec:        &CanvasRecord{Hash: hash},
				conditions: map[string]bool{},
				sites:      map[string]bool{},
				scripts:    map[string]bool{},
			}
			canvases[hash] = cb
		}
		return cb
	}
	siteOf := func(domain string) *siteBuild {
		sb := sites[domain]
		if sb == nil {
			sb = &siteBuild{
				rec:      &SiteRecord{Domain: domain, Conditions: map[string]*SiteCondStats{}},
				vendors:  map[string]string{},
				clusters: map[string]bool{},
				blocked:  map[string]map[string]bool{},
			}
			sites[domain] = sb
		}
		return sb
	}

	for i := range b.Events {
		e := &b.Events[i]
		switch e.Kind {
		case event.DetectClassify:
			cb := canvasOf(e.Subject)
			r := cb.rec
			r.Extractions++
			if e.Crawl != "" {
				cb.conditions[e.Crawl] = true
			}
			if e.Site != "" {
				cb.sites[e.Site] = true
			}
			if script, w, h, format, ok := detect.ParseEventDetail(e.Detail); ok {
				ix.stats.Verdicts++
				if script != "" {
					cb.scripts[script] = true
				}
				// First decodable detail wins; all extractions of one
				// hash share the payload, so any event's dims agree.
				if r.Format == "" && format != "" {
					r.W, r.H, r.Format = w, h, string(format)
				}
			}
			if e.Verdict == "fingerprintable" {
				r.Fingerprintable = true
			} else if r.Exclude == detect.None && !r.Fingerprintable {
				r.Exclude = detect.Reason(e.Evidence)
			}
			if detect.Reason(e.Evidence) == detect.AnimationScript {
				r.AnimSeen = true
			}
			sb := siteOf(e.Site)
			cs := sb.cond(e.Crawl)
			cs.Extractions++
			if e.Verdict == "fingerprintable" {
				cs.Fingerprintable++
			} else {
				if cs.Excluded == nil {
					cs.Excluded = map[detect.Reason]int{}
				}
				cs.Excluded[detect.Reason(e.Evidence)]++
			}
		case event.ClusterAssign:
			cb := canvasOf(e.Subject)
			if cb.rec.CohortOf == nil {
				cb.rec.CohortOf = map[string]string{}
			}
			if _, seen := cb.rec.CohortOf[e.Site]; !seen {
				cb.rec.ClusterSites = append(cb.rec.ClusterSites, e.Site)
			}
			cb.rec.CohortOf[e.Site] = e.Detail
			sb := siteOf(e.Site)
			sb.clusters[e.Subject] = true
			if sb.rec.Cohort == "" {
				sb.rec.Cohort = e.Detail
			}
		case event.AttribEvidence:
			switch {
			case e.Site != "":
				sb := siteOf(e.Site)
				if _, seen := sb.vendors[e.Verdict]; !seen {
					sb.vendors[e.Verdict] = e.Evidence
				}
			case e.Evidence != "ground-truth":
				// Group→vendor resolution: Subject is a canvas hash.
				cb := canvasOf(e.Subject)
				if cb.rec.Vendor == "" {
					cb.rec.Vendor, cb.rec.Mechanism = e.Verdict, e.Evidence
				}
			}
		case event.BlocklistMatch:
			sb := siteOf(e.Site)
			set := sb.blocked[e.Crawl]
			if set == nil {
				set = map[string]bool{}
				sb.blocked[e.Crawl] = set
			}
			if !set[e.Subject] {
				set[e.Subject] = true
				cs := sb.cond(e.Crawl)
				cs.Blocked = append(cs.Blocked, BlockedScript{URL: e.Subject, Rule: e.Evidence, List: e.Detail})
			}
		case event.RandomizeVerdict:
			sb := siteOf(e.Site)
			if sb.rec.Randomization == "" {
				sb.rec.Randomization = e.Verdict
			}
		case event.VisitOutcome:
			sb := siteOf(e.Site)
			sb.cond(e.Crawl).VisitOutcome = e.Verdict
		}
		ix.stats.EventsIndexed++
	}

	// Finalize over sorted keys: every record slice is derived here,
	// never from map iteration order.
	hashes := sortedKeys(canvases)
	for _, h := range hashes {
		cb := canvases[h]
		r := cb.rec
		r.Conditions = sortedKeys(cb.conditions)
		r.Sites = sortedKeys(cb.sites)
		r.ScriptURLs = sortedKeys(cb.scripts)
		sort.Strings(r.ClusterSites)
		// Cannot fail: nothing in a ClassifyResponse can fail to encode.
		r.answer, _ = marshal(classifyRecord(r))
		ix.canvas[h] = r
		ix.stats.Canvases++
		if r.Fingerprintable {
			ix.stats.FingerprintableCanvases++
		}
		if len(r.ClusterSites) > 0 {
			ix.stats.Clusters++
			if r.Vendor != "" {
				ix.stats.AttributedClusters++
			}
			if best := ix.statsTop(r); best {
				ix.stats.TopCluster = h
			}
		}
	}
	domains := sortedKeys(sites)
	condSet := map[string]bool{}
	topFP := -1
	for _, d := range domains {
		sb := sites[d]
		r := sb.rec
		r.CondNames = sortedKeys(r.Conditions)
		for _, c := range r.CondNames {
			if c != "" {
				condSet[c] = true
			}
			sort.Slice(r.Conditions[c].Blocked, func(i, j int) bool {
				return r.Conditions[c].Blocked[i].URL < r.Conditions[c].Blocked[j].URL
			})
		}
		for _, slug := range sortedKeys(sb.vendors) {
			r.Vendors = append(r.Vendors, VendorRef{Vendor: slug, Mechanism: sb.vendors[slug]})
		}
		r.Clusters = sortedKeys(sb.clusters)
		ix.sites[d] = r
		ix.stats.Sites++
		if r.Fingerprinting() {
			ix.stats.FingerprintingSites++
			if fp := r.fingerprintableTotal(); fp > topFP {
				topFP = fp
				ix.stats.TopSite = d
			}
		}
	}
	ix.stats.Conditions = sortedKeys(condSet)
	return ix
}

// statsTop reports whether r beats the current TopCluster (more
// members; ties by smaller hash, and hashes arrive in sorted order so
// the first max wins).
func (ix *Index) statsTop(r *CanvasRecord) bool {
	if ix.stats.TopCluster == "" {
		return true
	}
	cur := ix.Canvas(ix.stats.TopCluster)
	return len(r.ClusterSites) > len(cur.ClusterSites)
}

func (s *SiteRecord) fingerprintableTotal() int {
	n := 0
	for _, cs := range s.Conditions {
		n += cs.Fingerprintable
	}
	return n
}

// Canvas returns the record for a canvas hash, or nil.
func (ix *Index) Canvas(hash string) *CanvasRecord {
	return ix.canvas[hash]
}

// Site returns the record for a domain, or nil.
func (ix *Index) Site(domain string) *SiteRecord {
	return ix.sites[domain]
}

// Stats returns the index summary.
func (ix *Index) Stats() IndexStats { return ix.stats }

type canvasBuild struct {
	rec        *CanvasRecord
	conditions map[string]bool
	sites      map[string]bool
	scripts    map[string]bool
}

type siteBuild struct {
	rec      *SiteRecord
	vendors  map[string]string          // slug → mechanism (first wins)
	clusters map[string]bool            // hashes
	blocked  map[string]map[string]bool // cond → script URL set
}

func (sb *siteBuild) cond(c string) *SiteCondStats {
	cs := sb.rec.Conditions[c]
	if cs == nil {
		cs = &SiteCondStats{}
		sb.rec.Conditions[c] = cs
	}
	return cs
}

// sortedKeys returns m's keys sorted — the only way builder maps are
// ever iterated.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
