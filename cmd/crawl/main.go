// Command crawl runs the instrumented crawler over a synthetic web and
// writes one JSON object per visited page to stdout or a file — the
// equivalent of the paper's Tracker Radar Collector output.
//
// Observability: -metrics prints the phase-timing table and metrics
// snapshot to stderr, -status serves the live ops plane (/statusz,
// /healthz, /readyz, /metrics.prom, /red) during the crawl, -pprof
// serves the same plus net/http/pprof, and -outdir writes a run bundle
// (its trace.jsonl is the span trace) for later comparison with
// cmd/runsdiff.
//
// Distributed runs: -distrib-unit <dir> turns the binary into a worker
// process for cmd/coordinator — it reads the work-unit spec the
// coordinator wrote into dir, rebuilds the study world from it, and
// runs its crawl slice as a checkpointed crawl whose journal in dir is
// the unit's output. Exit codes follow the distrib.Spawner contract: 0
// once the journal marks the crawl done, 3 on a mid-unit stop
// (-interrupt-after N stops after N journal writes; it needs
// -distrib-unit), anything else on failure.
//
// Fault injection: -faults gives every site a seeded chance of a fault
// plan (outage, flaky connection, latency spike, truncated response)
// that the crawler's resilience engine retries through; -retries and
// -visit-timeout tune the engine. -fault-sweep crawls the same web at a
// comma-separated list of fault rates and prints a resilience table
// instead of page JSONL:
//
//	crawl -scale 0.05 -fault-sweep 0,0.1,0.2,0.4
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"canvassing"
	"canvassing/internal/adblock"
	"canvassing/internal/bundle"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/distrib"
	"canvassing/internal/machine"
	"canvassing/internal/netsim"
	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/report"
	"canvassing/internal/web"
)

func main() {
	seed := flag.Uint64("seed", 1, "generation seed")
	scale := flag.Float64("scale", 0.05, "web scale")
	cohort := flag.String("cohort", "both", "popular, tail, or both")
	machineName := flag.String("machine", "intel", "intel or m1")
	blocker := flag.String("adblock", "none", "none, abp, or ubo")
	workers := flag.Int("workers", 8, "crawler worker pool width")
	out := flag.String("out", "", "output JSONL path (default stdout)")
	sweep := flag.String("fault-sweep", "", "comma-separated fault rates to crawl in sequence (prints a resilience table, suppresses page JSONL)")
	interruptAfter := flag.Int("interrupt-after", 0, "with -distrib-unit: stop the unit after N journal writes and exit 3 (chaos testing)")
	distribUnit := flag.Bool("distrib-unit", false, "run as a distributed-study worker: crawl the work-unit in the directory argument")
	interact := flag.Bool("interact", false, "plant interaction-gated vendors and drive seeded per-site behaviour profiles after settle")
	interactProfile := flag.String("interact-profile", "", "fixed behaviour profile for every site, e.g. 'click,scroll,idle' (default: seeded per-site profiles)")
	cli := obs.BindCLI(flag.CommandLine)
	fcli := obs.BindFaultCLI(flag.CommandLine)
	flag.Parse()

	if *interruptAfter != 0 && !*distribUnit {
		fmt.Fprintln(os.Stderr, "crawl: -interrupt-after needs -distrib-unit: only a work-unit's crawl keeps a journal to stop after")
		os.Exit(2)
	}
	if *distribUnit {
		dir := flag.Arg(0)
		if dir == "" {
			log.Fatal("distrib-unit: need a unit directory argument")
		}
		interrupted, err := canvassing.RunWorkUnit(dir, *interruptAfter)
		if err != nil {
			log.Fatal(err)
		}
		if interrupted {
			os.Exit(distrib.ExitInterrupted)
		}
		return
	}

	tel := obs.NewTelemetry()
	var visits *tracez.Reservoir
	if cli.Tracez {
		visits = tracez.NewReservoir(*seed, 0, 0)
	}
	plane, err := ops.Start(cli, tel, visits)
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	tel.Status.MarkRunning()

	sp := tel.Tracer.Start("webgen")
	w := web.Generate(web.Config{Seed: *seed, Scale: *scale, TrancoMax: 1_000_000, Interact: *interact})
	sp.End()

	var sites []*web.Site
	switch *cohort {
	case "popular":
		sites = w.CohortSites(web.Popular)
	case "tail":
		sites = w.CohortSites(web.Tail)
	case "both":
		sites = append(w.CohortSites(web.Popular), w.CohortSites(web.Tail)...)
	default:
		log.Fatalf("unknown cohort %q", *cohort)
	}

	cfg := crawler.DefaultConfig()
	cfg.Workers = *workers
	cfg.Seed = *seed
	switch *machineName {
	case "intel":
		cfg.Profile = machine.Intel()
	case "m1":
		cfg.Profile = machine.AppleM1()
	default:
		log.Fatalf("unknown machine %q", *machineName)
	}
	lists := canvassing.ListsForSeed(*seed)
	cfg.Condition = "control"
	switch *blocker {
	case "none":
	case "abp":
		cfg.Extension = adblock.NewAdblockPlus(lists)
		cfg.Condition = "abp"
	case "ubo":
		cfg.Extension = adblock.NewUBlockOrigin(lists)
		cfg.Condition = "ubo"
	default:
		log.Fatalf("unknown adblock %q", *blocker)
	}

	cfg.Interact = *interact
	if *interactProfile != "" {
		prof, err := crawler.ParseProfile(*interactProfile)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Behavior = &prof
	}

	if fcli.Rate > 0 {
		cfg.Faults = netsim.NewFaultModel(*seed, fcli.Rate)
		cfg.Retries = fcli.Retries
		cfg.VisitTimeout = fcli.VisitTimeout
	}

	if *sweep != "" {
		if err := runFaultSweep(w, sites, cfg, *seed, *sweep, cli, fcli); err != nil {
			log.Fatal(err)
		}
		return
	}
	// Visit tracing stays off the sweep path: each sweep rate runs with
	// fresh telemetry and conditions would collide in one reservoir.
	cfg.Visits = visits

	cfg.Telemetry = tel
	sp = tel.Tracer.Start("crawl", "machine", *machineName, "adblock", *blocker)
	res := crawler.Crawl(w, sites, cfg)
	sp.End()
	tel.Status.MarkDone()

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		dst = f
	}
	bw := bufio.NewWriter(dst)
	enc := json.NewEncoder(bw)
	for _, p := range res.Pages {
		if err := enc.Encode(p); err != nil {
			log.Fatal(err)
		}
	}
	bw.Flush()
	st := res.Stats().Total
	fmt.Fprintf(os.Stderr, "crawled %d pages ok (%d visited), %d extractions, machine=%s adblock=%s\n",
		st.OK, st.Visited, st.Extractions, res.Machine, *blocker)

	ops.PrintMetrics(cli, tel, os.Stderr)
	if cli.OutDir != "" {
		m := bundle.Manifest{
			Seed:    *seed,
			Scale:   *scale,
			Workers: *workers,
			Notes:   fmt.Sprintf("cmd/crawl cohort=%s machine=%s adblock=%s", *cohort, *machineName, *blocker),
		}
		if err := bundle.Write(cli.OutDir, m, tel); err != nil {
			log.Fatal(err)
		}
		if err := tracez.WriteExemplars(filepath.Join(cli.OutDir, tracez.ExemplarsFile), visits); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote run bundle to %s\n", cli.OutDir)
	}
}

// runFaultSweep crawls the same site list once per requested fault rate
// (fresh telemetry each run, same seed) and prints how resilience and
// measured prevalence respond as the network degrades.
func runFaultSweep(w *web.Web, sites []*web.Site, base crawler.Config, seed uint64, spec string, cli *obs.CLI, fcli *obs.FaultCLI) error {
	var rates []float64
	for _, f := range strings.Split(spec, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return fmt.Errorf("fault-sweep: bad rate %q: %w", f, err)
		}
		rates = append(rates, r)
	}
	t := report.NewTable(fmt.Sprintf("Fault sweep — seed %d, %d sites", seed, len(sites)),
		"rate", "ok", "degraded", "failed", "refused", "timeout", "circ-open", "retries", "extractions", "fp-sites", "prevalence")
	for _, rate := range rates {
		cfg := base
		cfg.Telemetry = obs.NewTelemetry()
		cfg.Faults = nil
		if rate > 0 {
			cfg.Faults = netsim.NewFaultModel(seed, rate)
			cfg.Retries = fcli.Retries
			cfg.VisitTimeout = fcli.VisitTimeout
		}
		res := crawler.Crawl(w, sites, cfg)
		st := res.Stats().Total
		ds := detect.ComputeStats(detect.AnalyzeAll(res.Pages))
		snap := cfg.Telemetry.Metrics.Snapshot()
		t.AddRow(fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprint(st.OK), fmt.Sprint(st.Degraded), fmt.Sprint(st.Failed),
			fmt.Sprint(st.FailReasons[crawler.FailRefused]),
			fmt.Sprint(st.FailReasons[crawler.FailTimeout]),
			fmt.Sprint(st.FailReasons[crawler.FailCircuitOpen]),
			fmt.Sprint(snap.Counters["crawl.retry"]),
			fmt.Sprint(st.Extractions),
			fmt.Sprint(ds.SitesFingerprinting),
			fmt.Sprintf("%.1f%%", 100*ds.PrevalenceFraction()))
		fmt.Fprintf(os.Stderr, "fault-sweep: rate %.0f%% done (%d/%d ok)\n", rate*100, st.OK, st.Visited)
	}
	fmt.Print(t.String())
	return nil
}
