// Command repro regenerates every table and figure of the paper: it runs
// the full study (control crawl, ad-blocker re-crawls, M1 validation
// crawl, all analyses) and prints the experiment suite plus the
// paper-vs-measured ledger. Single experiments can be selected with -exp.
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
	snapshots := flag.Bool("snapshots", false, "reuse control-crawl page bodies across re-crawls via a content-addressed snapshot store")
	interact := flag.Bool("interact", false, "plant interaction-gated vendors and run the EX3 crawl-vs-interaction experiment")
	cli := obs.BindCLI(flag.CommandLine)
	fcli := obs.BindFaultCLI(flag.CommandLine)
	flag.Parse()

	if *resumeDir != "" {
		s, err := canvassing.Resume(*resumeDir)
		if err != nil {
			log.Fatal(err)
		}
		if s.Halted {
			fmt.Fprintf(os.Stderr, "study interrupted again; resume with -resume %s\n", *resumeDir)
			os.Exit(3)
		}
		report(s, *exp, *out, *dumpDir, cli)
		return
	}

	// Extension experiments run lean: EX1 needs no crawl; EX2 needs only
	// the control crawl plus the inner-page re-crawl; EX3 the control
	// crawl plus the interaction-driven re-crawl.
	switch e := strings.ToLower(*exp); e {
	case "entropy", "ex1":
		emit(canvassing.EntropyAnalysis(48, *seed).Render(), *out)
		return
	case "inner", "ex2":
		s := canvassing.Run(canvassing.Options{Seed: *seed, Scale: *scale, Workers: *workers, AnalysisWorkers: cli.AnalysisWorkers, TraceVisits: cli.Tracez})
		text := s.InnerPages().Render()
		if cli.Metrics {
			text += "\n" + s.TelemetryReport()
		}
		emit(text, *out)
		finishTelemetry(s, cli)
		return
	case "interact", "ex3":
		s := canvassing.Run(canvassing.Options{Seed: *seed, Scale: *scale, Workers: *workers, AnalysisWorkers: cli.AnalysisWorkers, TraceVisits: cli.Tracez, Interact: true})
		text := s.InteractionGap().Render()
		if cli.Metrics {
			text += "\n" + s.TelemetryReport()
		}
		emit(text, *out)
		finishTelemetry(s, cli)
		return
	}

	// Build the study in stages (rather than canvassing.Run) so the
	// debug endpoint is live while the crawls execute.
	s := canvassing.New(canvassing.Options{
		Seed:            *seed,
		Scale:           *scale,
		Workers:         *workers,
		AnalysisWorkers: cli.AnalysisWorkers,
		WithAdblock:     true,
		WithM1:          true,
		FaultRate:       fcli.Rate,
		Retries:         fcli.Retries,
		VisitTimeout:    fcli.VisitTimeout,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		SnapshotReuse:   *snapshots,
		TraceVisits:     cli.Tracez,
		Interact:        *interact,
	})
	if ck := s.Checkpointer(); ck != nil {
		ck.StopAfter = *interruptAfter
	}
	plane, err := ops.Start(cli, s.Telemetry(), s.Visits())
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	s.RunControl()
	if !s.Halted {
		s.Analyze()
		s.RunAdblock()
	}
	if !s.Halted {
		s.RunM1()
	}
	if s.Halted {
		fmt.Fprintf(os.Stderr, "study interrupted; resume with -resume %s\n", *ckptDir)
		os.Exit(3)
	}
	s.Telemetry().Status.MarkDone()
	report(s, *exp, *out, *dumpDir, cli)
}

// report renders the selected experiment(s) and finishes telemetry.
func report(s *canvassing.Study, exp, out, dumpDir string, cli *obs.CLI) {
	var text string
	switch strings.ToLower(exp) {
	case "all":
		text = s.RenderAll() + "\n" + s.PaperComparison()
	case "compare":
		text = s.PaperComparison()
	case "e1":
		text = s.Prevalence().Render()
	case "e2":
		text = s.Figure1(50).Render()
	case "e3":
		text = s.Reach().Render()
	case "e4":
		text = s.Table1().Render()
	case "e5":
		t2, err := s.Table2()
		if err != nil {
			log.Fatal(err)
		}
		text = t2.Render()
	case "e6":
		text = s.Table4().Render()
	case "e7":
		text = s.Evasion().Render()
	case "e8":
		text = s.Randomization(40).Render()
	case "e9":
		cm, err := s.CrossMachine()
		if err != nil {
			log.Fatal(err)
		}
		text = cm.Render()
	case "e10":
		text = s.Filters().Render()
	case "e11":
		text = s.Table3().Render()
	case "e12":
		text = s.RuleContext().Render()
	default:
		log.Fatalf("unknown experiment %q", exp)
	}

	if cli.Metrics {
		text += "\n" + s.TelemetryReport()
	}
	emit(text, out)
	finishTelemetry(s, cli)

	if dumpDir != "" {
		files, err := s.DumpSampleCanvases(dumpDir, 3)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d sample canvases to %s\n", len(files), dumpDir)
	}
}

// finishTelemetry writes the run bundle (span trace included) if
// requested.
func finishTelemetry(s *canvassing.Study, cli *obs.CLI) {
	if cli.OutDir != "" {
		if err := s.WriteBundle(cli.OutDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote run bundle to %s\n", cli.OutDir)
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
