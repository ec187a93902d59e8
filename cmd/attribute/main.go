// Command attribute runs the full pipeline for a seed and prints the
// vendor-attribution results: Table 1 (per-vendor reach), Table 3
// (attribution methods) and the FingerprintJS tier breakdown.
//
// Observability: the shared -metrics/-pprof/-status/-outdir
// flags apply; -outdir writes a run bundle whose attrib.evidence events
// name the mechanism (demo-hash, known-customer-hash, url-pattern,
// url-regexp) behind every attribution in the tables.
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
	cli := obs.BindCLI(flag.CommandLine)
	flag.Parse()

	s := canvassing.New(canvassing.Options{
		Seed: *seed, Scale: *scale, Workers: *workers, TraceVisits: cli.Tracez,
	})
	plane, err := ops.Start(cli, s.Telemetry(), s.Visits())
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	s.RunControl()
	s.Analyze()
	s.Telemetry().Status.MarkDone()
	fmt.Println(s.Table1().Render())
	fmt.Println(s.Table3().Render())
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
