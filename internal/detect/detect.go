// Package detect implements the fingerprintable-canvas heuristics of
// §3.2, adapted from Englehardt & Narayanan: an extracted canvas counts
// as a fingerprinting test canvas unless
//
//  1. it was extracted in a lossy format (JPEG/WebP — compression
//     destroys the sub-pixel detail fingerprinting needs, and excluding
//     webp also excludes webp-support probes);
//  2. it is smaller than 16×16 pixels (insufficient complexity; also
//     excludes emoji probes); or
//  3. the extracting script also invokes animation-associated methods
//     (save, restore, …) — image editors and drawing apps, not trackers.
package detect

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"unsafe"

	"canvassing/internal/crawler"
	"canvassing/internal/imaging"
	"canvassing/internal/obs/event"
	"canvassing/internal/web"
)

// Reason explains why a canvas was excluded.
type Reason string

// Exclusion reasons.
const (
	// None marks fingerprintable canvases.
	None Reason = ""
	// LossyFormat marks JPEG/WebP extractions.
	LossyFormat Reason = "lossy-format"
	// SmallCanvas marks extractions under 16×16 px.
	SmallCanvas Reason = "small-canvas"
	// AnimationScript marks extractions from scripts that also call
	// animation-associated methods.
	AnimationScript Reason = "animation-script"
	// Undecodable marks extractions whose payload could not be parsed.
	Undecodable Reason = "undecodable"
)

// animationMembers are the context members whose use marks a script as an
// animation/drawing app rather than a fingerprinter.
var animationMembers = []string{"save", "restore"}

// minDimension is the smallest canvas side considered fingerprintable.
const minDimension = 16

// CanvasInfo is one analyzed extraction event.
type CanvasInfo struct {
	// ScriptURL attributes the extraction.
	ScriptURL string
	// DataURL is the raw extracted value.
	DataURL string
	// Hash is the SHA-256 of the data URL; identical canvases share it.
	Hash string
	// Format and dimensions decoded from the payload.
	Format imaging.Format
	W, H   int
	// Fingerprintable is the heuristics' verdict.
	Fingerprintable bool
	// Exclude is the reason when not fingerprintable.
	Exclude Reason
}

// SiteCanvases is a page's analyzed extractions.
type SiteCanvases struct {
	Domain string
	Rank   int
	Cohort web.Cohort
	// OK mirrors the crawl outcome.
	OK bool
	// All lists every extraction in event order.
	All []CanvasInfo
}

// Fingerprintable returns the fingerprintable subset of All.
func (s *SiteCanvases) Fingerprintable() []CanvasInfo {
	var out []CanvasInfo
	for _, c := range s.All {
		if c.Fingerprintable {
			out = append(out, c)
		}
	}
	return out
}

// HasFingerprinting reports whether the site extracted at least one
// fingerprintable canvas.
func (s *SiteCanvases) HasFingerprinting() bool {
	for _, c := range s.All {
		if c.Fingerprintable {
			return true
		}
	}
	return false
}

// FullyExcluded reports whether the site extracted canvases but none were
// fingerprintable (the A.2 "fully excluded" population).
func (s *SiteCanvases) FullyExcluded() bool {
	return len(s.All) > 0 && !s.HasFingerprinting()
}

// Verdict is the memoizable product of classification: everything the
// §3.2 heuristics derive from a canvas payload plus the extracting
// script's animation flag. It carries no page identity, which is what
// makes it safe to share across sites, conditions, and cohorts.
type Verdict struct {
	Format          imaging.Format
	W, H            int
	Fingerprintable bool
	Exclude         Reason
}

// MemoKey identifies one classification by content: the canvas hash
// (which already encodes any machine- or blocker-induced rendering
// difference) plus the animation flag the extracting script
// contributes. Two extractions with equal keys always classify
// identically.
type MemoKey struct {
	// Hash is HashDataURL of the extracted payload.
	Hash string
	// Anim is whether the extracting script also used animation
	// methods (heuristic 3).
	Anim bool
}

// Memo is a verdict cache consulted by AnalyzePageMemo. GetOrCompute
// must return compute()'s result for a key the first time it is asked
// and the cached verdict afterwards; implementations decide the
// concurrency story (internal/analysis provides a singleflight one).
type Memo interface {
	GetOrCompute(key MemoKey, compute func() Verdict) Verdict
}

// AnalyzePage classifies every extraction of one crawled page.
func AnalyzePage(p *crawler.PageResult) SiteCanvases {
	return AnalyzePageEvents(p, nil, "")
}

// AnalyzePageEvents is AnalyzePage with decision provenance: every
// classification verdict is recorded to sink (nil disables) under the
// given crawl condition label, naming the failing heuristic.
func AnalyzePageEvents(p *crawler.PageResult, sink event.Recorder, crawl string) SiteCanvases {
	return AnalyzePageMemo(p, sink, crawl, nil)
}

// AnalyzePageMemo is AnalyzePageEvents with an optional verdict memo:
// when memo is non-nil, classification of an already-seen (hash, anim)
// pair reuses the cached verdict instead of re-decoding the payload.
// Evidence events are recorded either way — the memo dedupes compute,
// not provenance.
func AnalyzePageMemo(p *crawler.PageResult, sink event.Recorder, crawl string, memo Memo) SiteCanvases {
	out := SiteCanvases{Domain: p.Domain, Rank: p.Rank, Cohort: p.Cohort, OK: p.OK}
	animScripts := map[string]bool{}
	for url, methods := range p.ScriptMethods {
		for _, m := range animationMembers {
			if methods[m] {
				animScripts[url] = true
			}
		}
	}
	for _, e := range p.Extractions {
		ci := CanvasInfo{
			ScriptURL: e.ScriptURL,
			DataURL:   e.DataURL,
			Hash:      HashDataURL(e.DataURL),
		}
		anim := animScripts[e.ScriptURL]
		var v Verdict
		if memo != nil {
			dataURL := e.DataURL
			v = memo.GetOrCompute(MemoKey{Hash: ci.Hash, Anim: anim}, func() Verdict {
				return Classify(dataURL, anim)
			})
		} else {
			v = Classify(e.DataURL, anim)
		}
		ci.Format, ci.W, ci.H = v.Format, v.W, v.H
		ci.Fingerprintable, ci.Exclude = v.Fingerprintable, v.Exclude
		out.All = append(out.All, ci)
		if sink != nil {
			verdict, evidence := "fingerprintable", ""
			if !ci.Fingerprintable {
				verdict, evidence = "excluded", string(ci.Exclude)
			}
			sink.Record(event.Event{
				Kind:     event.DetectClassify,
				Crawl:    crawl,
				Site:     p.Domain,
				Subject:  ci.Hash,
				Verdict:  verdict,
				Evidence: evidence,
				Detail:   EventDetail(ci.ScriptURL, ci.W, ci.H, ci.Format),
			})
		}
	}
	return out
}

// AnalyzeAll classifies every page of a crawl.
func AnalyzeAll(pages []*crawler.PageResult) []SiteCanvases {
	return AnalyzeAllEvents(pages, nil, "")
}

// AnalyzeAllEvents is AnalyzeAll with decision provenance (see
// AnalyzePageEvents).
func AnalyzeAllEvents(pages []*crawler.PageResult, sink event.Recorder, crawl string) []SiteCanvases {
	out := make([]SiteCanvases, 0, len(pages))
	for _, p := range pages {
		out = append(out, AnalyzePageEvents(p, sink, crawl))
	}
	return out
}

// EventDetail formats the detect.classify Detail field. It is the
// write half of a stable mini-format ("script=<url> <W>x<H> <format>")
// that read paths — the verdict service's index builder — parse back
// with ParseEventDetail, so both directions live next to each other.
func EventDetail(scriptURL string, w, h int, format imaging.Format) string {
	return fmt.Sprintf("script=%s %dx%d %s", scriptURL, w, h, format)
}

// ParseEventDetail inverts EventDetail. ok is false for details that
// do not follow the format (including details from pre-format events)
// and for dimensions EventDetail would not write: a sign, a leading
// zero or trailing bytes.
func ParseEventDetail(detail string) (scriptURL string, w, h int, format imaging.Format, ok bool) {
	fields := strings.Fields(detail)
	// Undecodable payloads record an empty format, leaving two fields.
	if len(fields) < 2 || len(fields) > 3 || !strings.HasPrefix(fields[0], "script=") {
		return "", 0, 0, "", false
	}
	ws, hs, _ := strings.Cut(fields[1], "x")
	w, wok := parseDim(ws)
	h, hok := parseDim(hs)
	if !wok || !hok {
		return "", 0, 0, "", false
	}
	if len(fields) == 3 {
		format = imaging.Format(fields[2])
	}
	return strings.TrimPrefix(fields[0], "script="), w, h, format, true
}

// parseDim reads one dimension of an event detail: decimal digits with
// no sign and no leading zero, as %d writes a non-negative int.
func parseDim(s string) (int, bool) {
	if s == "" || (s[0] == '0' && len(s) > 1) || strings.TrimLeft(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// VerdictFromEvent reconstructs the memoizable Verdict a
// detect.classify event recorded: the verdict/evidence fields carry
// fingerprintability and the exclusion reason, the detail carries
// dimensions and format. ok is false for non-classify events or
// unparseable details — callers fall back to recomputing from the
// payload.
func VerdictFromEvent(e event.Event) (Verdict, bool) {
	if e.Kind != event.DetectClassify {
		return Verdict{}, false
	}
	_, w, h, format, ok := ParseEventDetail(e.Detail)
	if !ok {
		return Verdict{}, false
	}
	v := Verdict{Format: format, W: w, H: h}
	if e.Verdict == "fingerprintable" {
		v.Fingerprintable = true
	} else {
		v.Exclude = Reason(e.Evidence)
	}
	return v, true
}

// HashDataURL returns the canonical canvas identity: SHA-256 over the
// full data URL. It hashes the string's bytes in place, since
// sha256.Sum256 only reads its input: converting a data URL of tens of
// kilobytes to []byte would copy it.
func HashDataURL(u string) string {
	sum := sha256.Sum256(unsafe.Slice(unsafe.StringData(u), len(u)))
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:])
}

// Classify applies the three heuristics in order. It is a pure
// function of the payload and the animation flag — the property the
// memo cache and the parallel executor both rely on.
func Classify(dataURL string, fromAnimScript bool) Verdict {
	var v Verdict
	format, payload, err := imaging.ParseDataURL(dataURL)
	if err != nil {
		v.Exclude = Undecodable
		return v
	}
	v.Format = format
	switch format {
	case imaging.PNG:
		w, h, err := imaging.PNGSize(payload)
		if err != nil {
			v.Exclude = Undecodable
			return v
		}
		v.W, v.H = w, h
	default:
		// Lossy formats: record dimensions when cheaply available.
		if img, err := imaging.DecodeWebPSim(payload); err == nil {
			v.W, v.H = img.W, img.H
		}
		v.Exclude = LossyFormat
		return v
	}
	if v.W < minDimension || v.H < minDimension {
		v.Exclude = SmallCanvas
		return v
	}
	if fromAnimScript {
		v.Exclude = AnimationScript
		return v
	}
	v.Fingerprintable = true
	return v
}

// Stats summarizes detection over a crawl (the §3.2 yield numbers).
type Stats struct {
	SitesCrawledOK      int
	SitesExtracting     int // ≥1 extraction of any kind
	SitesFingerprinting int // ≥1 fingerprintable canvas
	SitesFullyExcluded  int // extractions but none fingerprintable
	TotalExtractions    int
	Fingerprintable     int
	ByReason            map[Reason]int
}

// ComputeStats aggregates detection results.
func ComputeStats(sites []SiteCanvases) Stats {
	st := Stats{ByReason: map[Reason]int{}}
	for i := range sites {
		s := &sites[i]
		if !s.OK {
			continue
		}
		st.SitesCrawledOK++
		if len(s.All) > 0 {
			st.SitesExtracting++
		}
		if s.HasFingerprinting() {
			st.SitesFingerprinting++
		}
		if s.FullyExcluded() {
			st.SitesFullyExcluded++
		}
		for _, c := range s.All {
			st.TotalExtractions++
			if c.Fingerprintable {
				st.Fingerprintable++
			} else {
				st.ByReason[c.Exclude]++
			}
		}
	}
	return st
}

// FingerprintableFraction returns the §3.2 yield: the fraction of
// extracted canvases that are fingerprintable (the paper reports 83%).
func (s Stats) FingerprintableFraction() float64 {
	if s.TotalExtractions == 0 {
		return 0
	}
	return float64(s.Fingerprintable) / float64(s.TotalExtractions)
}

// PrevalenceFraction returns the §4.1 headline: the fraction of
// successfully crawled sites with at least one fingerprintable canvas.
func (s Stats) PrevalenceFraction() float64 {
	if s.SitesCrawledOK == 0 {
		return 0
	}
	return float64(s.SitesFingerprinting) / float64(s.SitesCrawledOK)
}
