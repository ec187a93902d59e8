// Command repro regenerates every table and figure of the paper: -exp
// all (the default) runs the full study (control crawl, ad-blocker
// re-crawls, M1 validation crawl, all analyses) and prints the
// experiment suite plus the paper-vs-measured ledger. -exp eN prints one
// experiment and runs only the crawls it reads: E5 adds the ad-blocker
// re-crawls, E9 the M1 crawl, EX3 the interaction workload, and every
// other experiment reads the control crawl alone.
//
// The paper-scale run is -scale 1 (20k popular + 20k tail sites); the
// default 0.1 finishes in well under a minute.
//
// Observability: -metrics appends the phase-timing table and metrics
// snapshot, -status serves the live ops plane (/statusz, /healthz,
// /readyz, /metrics.prom, /red) during the run, -pprof serves the same
// plus net/http/pprof, and -outdir writes a run bundle (manifest,
// metrics, the trace.jsonl span trace, evidence events, rendered
// reports) for later comparison with cmd/runsdiff.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"canvassing"
	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
)

// experiment is one -exp id: the crawls it reads beyond the control
// crawl, and its report.
type experiment struct {
	adblock, m1, interact bool
	render                func(*canvassing.Study) string
}

var (
	inner    = experiment{render: func(s *canvassing.Study) string { return s.InnerPages().Render() }}
	interact = experiment{interact: true, render: func(s *canvassing.Study) string { return s.InteractionGap().Render() }}

	experiments = map[string]experiment{
		"all": {adblock: true, m1: true, render: func(s *canvassing.Study) string {
			return s.RenderAll() + "\n" + s.PaperComparison()
		}},
		"compare":  {adblock: true, m1: true, render: (*canvassing.Study).PaperComparison},
		"e1":       {render: func(s *canvassing.Study) string { return s.Prevalence().Render() }},
		"e2":       {render: func(s *canvassing.Study) string { return s.Figure1(50).Render() }},
		"e3":       {render: func(s *canvassing.Study) string { return s.Reach().Render() }},
		"e4":       {render: func(s *canvassing.Study) string { return s.Table1().Render() }},
		"e5":       {adblock: true, render: func(s *canvassing.Study) string { return must(s.Table2()).Render() }},
		"e6":       {render: func(s *canvassing.Study) string { return s.Table4().Render() }},
		"e7":       {render: func(s *canvassing.Study) string { return s.Evasion().Render() }},
		"e8":       {render: func(s *canvassing.Study) string { return s.Randomization(40).Render() }},
		"e9":       {m1: true, render: func(s *canvassing.Study) string { return must(s.CrossMachine()).Render() }},
		"e10":      {render: func(s *canvassing.Study) string { return s.Filters().Render() }},
		"e11":      {render: func(s *canvassing.Study) string { return s.Table3().Render() }},
		"e12":      {render: func(s *canvassing.Study) string { return s.RuleContext().Render() }},
		"ex2":      inner,
		"inner":    inner,
		"ex3":      interact,
		"interact": interact,
	}
)

// must ends the run on an experiment's error, as repro does on every
// other failure.
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func main() {
	seed := flag.Uint64("seed", 1, "study seed")
	scale := flag.Float64("scale", 0.1, "web scale (1.0 = paper scale)")
	workers := flag.Int("workers", 8, "crawler workers")
	exp := flag.String("exp", "all", "experiment id (e1..e12, ex1/entropy, ex2/inner, ex3/interact), 'all', or 'compare'")
	out := flag.String("out", "", "also write the report to this file")
	dumpDir := flag.String("dump-canvases", "", "write sample canvas images (Figure 2 artifact) to this directory")
	ckptDir := flag.String("checkpoint", "", "checkpoint the study into this directory (see -resume)")
	ckptEvery := flag.Int("checkpoint-every", 256, "checkpoint cadence in committed pages")
	interruptAfter := flag.Int("interrupt-after", 0, "testing: halt the study after N checkpoint writes (exit code 3)")
	resumeDir := flag.String("resume", "", "resume an interrupted study from this checkpoint directory (ignores the run-shape flags; they come from the checkpoint)")
	interactFlag := flag.Bool("interact", false, "plant interaction-gated vendors and run the EX3 crawl-vs-interaction experiment")
	cli := obs.BindCLI(flag.CommandLine)
	fcli := obs.BindFaultCLI(flag.CommandLine)
	flag.Parse()

	id := strings.ToLower(*exp)
	if id == "ex1" || id == "entropy" {
		// EX1 needs no crawl.
		emit(canvassing.EntropyAnalysis(48, *seed).Render(), *out)
		return
	}
	e, ok := experiments[id]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}

	if *resumeDir != "" {
		s, err := canvassing.Resume(*resumeDir)
		if err != nil {
			log.Fatal(err)
		}
		if s.Halted {
			fmt.Fprintf(os.Stderr, "study interrupted again; resume with -resume %s\n", *resumeDir)
			os.Exit(3)
		}
		report(s, e, *out, *dumpDir, cli)
		return
	}

	// New, then Run (rather than canvassing.Run), so the ops plane is
	// live while the crawls execute.
	s := canvassing.New(canvassing.Options{
		Seed:            *seed,
		Scale:           *scale,
		Workers:         *workers,
		WithAdblock:     e.adblock,
		WithM1:          e.m1,
		FaultRate:       fcli.Rate,
		Retries:         fcli.Retries,
		VisitTimeout:    fcli.VisitTimeout,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		TraceVisits:     cli.Tracez,
		Interact:        *interactFlag || e.interact,
	})
	if ck := s.Checkpointer(); ck != nil {
		ck.StopAfter = *interruptAfter
	}
	plane, err := ops.Start(cli, s.Telemetry(), s.Visits())
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	s.Run()
	if s.Halted {
		fmt.Fprintf(os.Stderr, "study interrupted; resume with -resume %s\n", *ckptDir)
		os.Exit(3)
	}
	s.Telemetry().Status.MarkDone()
	report(s, e, *out, *dumpDir, cli)
}

// report renders the selected experiment, then writes the run bundle
// (span trace included) and sample canvases if requested.
func report(s *canvassing.Study, e experiment, out, dumpDir string, cli *obs.CLI) {
	text := e.render(s)
	if cli.Metrics {
		text += "\n" + s.TelemetryReport()
	}
	emit(text, out)
	if cli.OutDir != "" {
		if err := s.WriteBundle(cli.OutDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote run bundle to %s\n", cli.OutDir)
	}
	if dumpDir != "" {
		files, err := s.DumpSampleCanvases(dumpDir, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d sample canvases to %s\n", len(files), dumpDir)
	}
}

// emit prints the report and optionally writes it to a file.
func emit(text, out string) {
	fmt.Println(text)
	if out != "" {
		if err := os.WriteFile(out, []byte(text+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
