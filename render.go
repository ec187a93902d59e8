package canvassing

import (
	"fmt"
	"strings"
	"time"

	"canvassing/internal/obs/tracez"
	"canvassing/internal/report"
	"canvassing/internal/web"
)

// RenderAll runs every experiment the study's crawls support and renders
// them as one text report. Experiments needing missing crawls (Table 2,
// CrossMachine) are skipped with a note.
func (s *Study) RenderAll() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Canvassing the Fingerprinters — reproduction report\n")
	fmt.Fprintf(&sb, "seed=%d scale=%.3f sites=%d\n", s.Options.Seed, s.Options.Scale, len(s.crawlSites))
	if s.Control != nil {
		st := s.Control.Stats().Total
		fmt.Fprintf(&sb, "control crawl: ok %d/%d, extractions %d, script-errors %d\n",
			st.OK, st.Visited, st.Extractions, st.ScriptErrors)
	}
	sb.WriteByte('\n')

	sb.WriteString(s.Prevalence().Render())
	sb.WriteByte('\n')
	sb.WriteString(s.Figure1(50).Render())
	sb.WriteByte('\n')
	sb.WriteString(s.Reach().Render())
	sb.WriteByte('\n')
	sb.WriteString(s.Table1().Render())
	sb.WriteByte('\n')
	if t2, err := s.Table2(); err == nil {
		sb.WriteString(t2.Render())
	} else {
		sb.WriteString("E5 — Table 2 skipped (run with WithAdblock)\n")
	}
	sb.WriteByte('\n')
	sb.WriteString(s.Table4().Render())
	sb.WriteByte('\n')
	sb.WriteString(s.Evasion().Render())
	sb.WriteByte('\n')
	sb.WriteString(s.Randomization(40).Render())
	sb.WriteByte('\n')
	if cm, err := s.CrossMachine(); err == nil {
		sb.WriteString(cm.Render())
	} else {
		sb.WriteString("E9 — Cross-machine validation skipped (run with WithM1)\n")
	}
	sb.WriteByte('\n')
	sb.WriteString(s.Filters().Render())
	sb.WriteByte('\n')
	sb.WriteString(s.Table3().Render())
	sb.WriteByte('\n')
	sb.WriteString(s.RuleContext().Render())
	if s.Options.Interact {
		sb.WriteByte('\n')
		sb.WriteString(s.InteractionGap().Render())
	}
	if s.Faults != nil {
		sb.WriteByte('\n')
		sb.WriteString(s.CrawlHealth().Render())
	}
	return sb.String()
}

// PhaseTimings renders the phase-timing table for the run: one row per
// pipeline phase (webgen, control crawl, detect, cluster, attrib,
// re-crawls), children indented, with each root phase's share of total
// instrumented wall time. Phases that did not run are simply absent.
func (s *Study) PhaseTimings() string {
	return tracez.PhaseTimings(s.tel.Tracer.Records())
}

// TelemetryReport renders the crawl summary, phase-timing table, and
// metrics snapshot — the -metrics output of cmd/repro.
func (s *Study) TelemetryReport() string {
	var sb strings.Builder
	if s.Control != nil {
		sb.WriteString("Control crawl\n")
		sb.WriteString(s.Control.Stats().String())
		sb.WriteString("\n\n")
	}
	sb.WriteString(s.PhaseTimings())
	sb.WriteByte('\n')
	sb.WriteString(s.checkpointSection())
	if active := s.tel.Tracer.Active(); len(active) > 0 {
		fmt.Fprintf(&sb, "WARNING: %d span(s) never ended (leaked):\n", len(active))
		for _, sp := range active {
			fmt.Fprintf(&sb, "  %s (running %s)\n", sp.Name, sp.Duration.Round(time.Microsecond))
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("Metrics\n")
	sb.WriteString(s.tel.Metrics.RenderText())
	return sb.String()
}

// checkpointSection renders the "Checkpoint" block of
// TelemetryReport. Always present — a disabled subsystem says so
// explicitly rather than vanishing, so report diffs across
// configurations stay aligned.
func (s *Study) checkpointSection() string {
	var sb strings.Builder
	sb.WriteString("Checkpoint\n")
	if s.ckpt != nil {
		fmt.Fprintf(&sb, "checkpointing: every %d pages, %d checkpoint(s) written\n",
			s.ckpt.Every(), s.ckpt.Writes())
	} else {
		sb.WriteString("checkpointing: disabled\n")
	}
	sb.WriteByte('\n')
	return sb.String()
}

// PaperComparison renders the paper-vs-measured ledger for every headline
// number. Percentages compare directly across scales; absolute counts are
// annotated with the study's scale.
func (s *Study) PaperComparison() string {
	prev := s.Prevalence()
	popRow, tailRow := prev.Rows[0], prev.Rows[1]
	reach := s.Reach()
	t1 := s.Table1()
	t4 := s.Table4()
	ev := s.Evasion()
	evPop, evTail := ev.Rows[0], ev.Rows[1]
	rand := s.Randomization(40)
	filters := s.Filters()

	var sb strings.Builder
	sb.WriteString("Paper vs measured (percentages are scale-free; counts scale with Options.Scale)\n\n")
	add := func(metric, paper, measured string) {
		sb.WriteString(report.PaperVsMeasured(metric, paper, measured))
		sb.WriteByte('\n')
	}
	add("popular-site prevalence (§4.1)", "12.7%", report.Pct(popRow.FPSites, popRow.CrawledOK))
	add("tail-site prevalence (§4.1)", "9.9%", report.Pct(tailRow.FPSites, tailRow.CrawledOK))
	add("mean fingerprintable canvases per fp site", "3.31", fmt.Sprintf("%.2f", popRow.MeanPerSite))
	add("median canvases per fp site", "2", fmt.Sprintf("%.0f", popRow.Median))
	add("max canvases on one site", "60", fmt.Sprintf("%.0f", popRow.Max))
	add("unique canvases, popular cohort (§4.2)", "504", fmt.Sprint(reach.UniquePopular))
	add("unique canvases, tail cohort (§4.2)", "288", fmt.Sprint(reach.UniqueTail))
	add("top-6 canvas coverage of popular fp sites", "70.1%", report.Pct(reach.Top6CoveredPop, reach.TotalFPPop))
	add("top-6 canvas coverage of tail fp sites", "47.1%", report.Pct(reach.Top6CoveredTail, reach.TotalFPTail))
	add("tail fp sites sharing canvases with popular", "91.4%", report.Pct(reach.Overlap.TailSharingWithTop, reach.Overlap.TailFPSites))
	add("largest tail-only canvas group", "15 sites", fmt.Sprintf("%d sites", reach.Overlap.LargestTailOnlyGroup))
	add("attributed share of popular fp sites (Table 1)", "73%", report.Pct(t1.AttributedPop, t1.FPPop))
	add("attributed share of tail fp sites (Table 1)", "71%", report.Pct(t1.AttributedTail, t1.FPTail))
	add("EasyList coverage of popular test canvases (T4)", "31%", report.Pct(t4.Counts["EasyList"][0], t4.Totals[0]))
	add("EasyPrivacy coverage of popular test canvases", "36%", report.Pct(t4.Counts["EasyPrivacy"][0], t4.Totals[0]))
	add("Disconnect coverage of popular test canvases", "21%", report.Pct(t4.Counts["Disconnect"][0], t4.Totals[0]))
	add("any-list coverage, popular / tail", "45% / 37%",
		report.Pct(t4.Counts["Any"][0], t4.Totals[0])+" / "+report.Pct(t4.Counts["Any"][1], t4.Totals[1]))
	add("all-three coverage, popular / tail", "16% / 15%",
		report.Pct(t4.Counts["All"][0], t4.Totals[0])+" / "+report.Pct(t4.Counts["All"][1], t4.Totals[1]))
	add("fp sites with ≥1 first-party canvas (§5.2)", "49% / 52%",
		report.Pct(evPop.FirstPartySites, evPop.FPSites)+" / "+report.Pct(evTail.FirstPartySites, evTail.FPSites))
	add("fp sites with ≥1 subdomain-served canvas", "9.5% / 2.1%",
		report.Pct(evPop.SubdomainSites, evPop.FPSites)+" / "+report.Pct(evTail.SubdomainSites, evTail.FPSites))
	add("fp sites with ≥1 CDN-served canvas", "2.1% / 1.9%",
		report.Pct(evPop.CDNSites, evPop.FPSites)+" / "+report.Pct(evTail.CDNSites, evTail.FPSites))
	add("fp sites doing the double-render check (§5.3)", "45%",
		report.Pct(rand.CheckingPop+rand.CheckingTail, rand.FPPop+rand.FPTail))
	add("fingerprintable share of extracted canvases (§3.2)", "83%",
		report.Pct(filters.PerCohort[web.Popular].Fingerprintable+filters.PerCohort[web.Tail].Fingerprintable,
			filters.PerCohort[web.Popular].TotalExtractions+filters.PerCohort[web.Tail].TotalExtractions))
	if t2, err := s.Table2(); err == nil {
		c, a, u := t2.Rows[0], t2.Rows[1], t2.Rows[2]
		add("canvas drop under Adblock Plus (Table 2)", "~3.4%",
			report.Pct(c.CanvasesPop-a.CanvasesPop, c.CanvasesPop))
		add("canvas drop under uBlock Origin (Table 2)", "~4.3%",
			report.Pct(c.CanvasesPop-u.CanvasesPop, c.CanvasesPop))
	}
	if cm, err := s.CrossMachine(); err == nil {
		add("cross-machine grouping invariant (§3.1)", "yes", fmt.Sprint(cm.GroupingConsistent))
	}
	return sb.String()
}
