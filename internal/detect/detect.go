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

// Verdict is what the §3.2 heuristics derive from a canvas payload
// plus the extracting script's animation flag. It carries no page
// identity, so every extraction of one payload under one flag shares
// it.
type Verdict struct {
	Format          imaging.Format
	W, H            int
	Fingerprintable bool
	Exclude         Reason
}

// AnalyzePage classifies every extraction of one crawled page.
func AnalyzePage(p *crawler.PageResult) SiteCanvases {
	return AnalyzeAll([]*crawler.PageResult{p})[0]
}

// AnalyzeAll classifies every page of a crawl.
func AnalyzeAll(pages []*crawler.PageResult) []SiteCanvases {
	return AnalyzeAllEvents(pages, nil, "")
}

// payload is one extraction's input to Classify: its data URL and the
// extracting script's animation flag.
type payload struct {
	dataURL string
	anim    bool
}

// classified is one payload's canvas hash and verdict.
type classified struct {
	hash string
	v    Verdict
}

// AnalyzeAllEvents is AnalyzeAll with decision provenance: every
// classification verdict is recorded to sink (nil disables) under the
// given crawl condition label, naming the failing heuristic, one event
// per extraction in page order. Each distinct payload is hashed and
// classified once per call: a crawl's extractions repeat heavily, and
// a map lookup by the data URL itself costs far less than its SHA-256.
func AnalyzeAllEvents(pages []*crawler.PageResult, sink event.Recorder, crawl string) []SiteCanvases {
	seen := map[payload]classified{}
	out := make([]SiteCanvases, 0, len(pages))
	for _, p := range pages {
		out = append(out, analyzePage(p, sink, crawl, seen))
	}
	return out
}

// analyzePage classifies one page's extractions, reusing the payloads
// seen already holds and adding the ones it does not.
func analyzePage(p *crawler.PageResult, sink event.Recorder, crawl string, seen map[payload]classified) SiteCanvases {
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
		key := payload{e.DataURL, animScripts[e.ScriptURL]}
		c, ok := seen[key]
		if !ok {
			c = classified{HashDataURL(e.DataURL), Classify(e.DataURL, key.anim)}
			seen[key] = c
		}
		v := c.v
		ci := CanvasInfo{
			ScriptURL:       e.ScriptURL,
			DataURL:         e.DataURL,
			Hash:            c.hash,
			Format:          v.Format,
			W:               v.W,
			H:               v.H,
			Fingerprintable: v.Fingerprintable,
			Exclude:         v.Exclude,
		}
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
// function of the payload and the animation flag, which is what lets
// AnalyzeAllEvents classify each distinct payload once.
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
