// Command blockcheck runs the blocklist analyses: Table 4 (list coverage
// of test canvases), Table 2 (the ad-blocker re-crawls), the serving-mode
// evasion breakdown, and the A.6 rule-context demonstration.
//
// Observability: the shared -metrics/-pprof/-status/-outdir
// flags apply; -outdir writes a run bundle whose blocklist.match events
// name the list and rule behind every blocked script of the re-crawls.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"canvassing"
	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
)

func main() {
	seed := flag.Uint64("seed", 1, "study seed")
	scale := flag.Float64("scale", 0.05, "web scale")
	workers := flag.Int("workers", 8, "crawler workers")
	skipAdblock := flag.Bool("skip-adblock", false, "skip the two ad-blocker re-crawls (faster)")
	cli := obs.BindCLI(flag.CommandLine)
	flag.Parse()

	s := canvassing.New(canvassing.Options{
		Seed: *seed, Scale: *scale, Workers: *workers, WithAdblock: !*skipAdblock,
		TraceVisits: cli.Tracez,
	})
	plane, err := ops.Start(cli, s.Telemetry(), s.Visits())
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	s.RunControl()
	s.Analyze()
	if !*skipAdblock {
		s.RunAdblock()
	}
	s.Telemetry().Status.MarkDone()
	fmt.Println(s.Table4().Render())
	if !*skipAdblock {
		t2, err := s.Table2()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t2.Render())
	}
	fmt.Println(s.Evasion().Render())
	fmt.Println(s.RuleContext().Render())
	if cli.Metrics {
		fmt.Println(s.TelemetryReport())
	}
	if cli.OutDir != "" {
		if err := s.WriteBundle(cli.OutDir); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote run bundle to %s\n", cli.OutDir)
	}
}
