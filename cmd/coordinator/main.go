// Command coordinator runs a distributed study: it partitions each
// crawl condition's site frontier into seeded work-units, dispatches
// them across a pool of worker slots, reassigns and resumes units whose
// worker died mid-unit, merges the units' checkpoint journals, and runs
// the analysis pipeline over the recombined crawls. The resulting
// bundle is byte-identical to the single-process `repro` run with the
// same options — the partition-invariance contract `make distrib-smoke`
// checks end to end.
//
// Each unit leaves its spec (unit.json) and its journal
// (checkpoint.json, plus trace_exemplars.jsonl under -trace-visits) in
// -dir/units/<id>. A run empties every unit directory it uses before
// it starts, so a -dir may be reused with other flags.
//
// By default units run in-process (worker goroutines sharing one
// generated web). -worker <crawl-binary> switches to the local-process
// transport: every unit attempt is a spawned `crawl -distrib-unit`
// process that rebuilds the world from the unit spec on disk.
//
//	coordinator -seed 1 -scale 0.05 -partitions 4 -dir /tmp/run -out /tmp/bundle
//	coordinator -seed 1 -scale 0.05 -partitions 4 -dir /tmp/run -worker ./bin/crawl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"canvassing"
	"canvassing/internal/distrib"
)

func main() {
	seed := flag.Uint64("seed", 1, "study seed")
	scale := flag.Float64("scale", 0.05, "web scale")
	workers := flag.Int("workers", 8, "crawler worker pool width (per unit)")
	adblock := flag.Bool("adblock", false, "include the ABP/uBO re-crawls")
	m1 := flag.Bool("m1", false, "include the Apple-silicon validation crawl")
	faults := flag.Float64("faults", 0, "fault-injection rate on cohort crawls")
	retries := flag.Int("retries", 0, "resilience retries under -faults (0 = crawler default)")
	visitTimeout := flag.Duration("visit-timeout", 0, "visit timeout under -faults (0 = crawler default)")
	trace := flag.Bool("trace-visits", false, "capture per-visit span exemplars")
	every := flag.Int("checkpoint-every", 0, "unit checkpoint cadence in committed pages (0 = default 256)")
	partitions := flag.Int("partitions", 4, "work-units per condition")
	slots := flag.Int("slots", 0, "concurrent worker slots (0 = default 4)")
	maxAttempts := flag.Int("max-attempts", 0, "attempt budget per unit (0 = default 3)")
	dir := flag.String("dir", "", "run root for the ledger and the unit directories (unit spec and journal), which each run empties first (required)")
	workerBin := flag.String("worker", "", "worker executable for the process transport (empty = in-process)")
	out := flag.String("out", "", "write the merged study's run bundle to this directory")
	compare := flag.Bool("compare", false, "render the paper-comparison report before writing the bundle (matches `repro -exp compare` bundles byte for byte)")
	flag.Parse()

	if *dir == "" {
		log.Fatal("coordinator: -dir is required")
	}
	opts := canvassing.Options{
		Seed: *seed, Scale: *scale, Workers: *workers,
		WithAdblock: *adblock, WithM1: *m1,
		FaultRate: *faults, Retries: *retries, VisitTimeout: *visitTimeout,
		TraceVisits: *trace, CheckpointEvery: *every,
	}
	d := canvassing.DistribOptions{
		Dir: *dir, Partitions: *partitions, Slots: *slots, MaxAttempts: *maxAttempts,
	}
	if *workerBin != "" {
		d.Spawn = &distrib.ProcessSpawner{Binary: *workerBin, Args: []string{"-distrib-unit"}, Stderr: os.Stderr}
	}

	start := time.Now()
	study, ledger, err := canvassing.RunDistributed(opts, d)
	if ledger != nil {
		fmt.Print(distrib.RenderLedger(ledger.Records()))
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmerged %d conditions in %s\n", len(study.Telemetry().Events.Conditions()), time.Since(start).Round(time.Millisecond))
	if *compare {
		// Rendering runs the defense experiments, whose events join the
		// bundle below — exactly as in repro's compare path.
		fmt.Println(study.PaperComparison())
	}
	if *out != "" {
		if err := study.WriteBundle(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote merged run bundle to %s\n", *out)
	}
}
