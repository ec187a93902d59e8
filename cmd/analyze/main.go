// Command analyze reads a crawl JSONL file (from cmd/crawl) and runs the
// detection and clustering analyses over it: prevalence, filter yield,
// and the Figure 1 canvas-popularity distribution.
//
// Observability: the shared -metrics/-pprof/-status/-outdir
// flags apply; -outdir writes a run bundle carrying one detect.classify
// event per extraction and the cluster membership assignments.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"canvassing/internal/bundle"
	"canvassing/internal/cluster"
	"canvassing/internal/crawler"
	"canvassing/internal/detect"
	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
	"canvassing/internal/report"
	"canvassing/internal/web"
)

func main() {
	in := flag.String("in", "", "crawl JSONL path (default stdin)")
	topK := flag.Int("top", 25, "canvas groups to print")
	cli := obs.BindCLI(flag.CommandLine)
	flag.Parse()

	tel := obs.NewTelemetry()
	// Analysis-only binary: no visits, so no exemplar reservoir.
	plane, err := ops.Start(cli, tel, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer plane.Close()
	tel.Status.MarkRunning()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = f
	}
	sp := tel.Tracer.Start("read-input")
	var pages []*crawler.PageResult
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var p crawler.PageResult
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			log.Fatalf("bad JSONL line: %v", err)
		}
		pages = append(pages, &p)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	sp.End()
	if len(pages) == 0 {
		log.Fatal("no pages in input")
	}
	tel.Metrics.Counter("analyze.pages").Add(int64(len(pages)))

	sp = tel.Tracer.Start("analyze.control")
	sites := detect.AnalyzeAllEvents(pages, tel.Events, "control")
	sp.End()
	t := report.NewTable("Prevalence", "cohort", "crawled-ok", "fp-sites", "prevalence", "yield")
	for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
		var sub []detect.SiteCanvases
		for i := range sites {
			if sites[i].Cohort == cohort {
				sub = append(sub, sites[i])
			}
		}
		if len(sub) == 0 {
			continue
		}
		st := detect.ComputeStats(sub)
		t.AddRow(cohort, st.SitesCrawledOK, st.SitesFingerprinting,
			report.Pct(st.SitesFingerprinting, st.SitesCrawledOK),
			report.Pct(st.Fingerprintable, st.TotalExtractions))
	}
	fmt.Println(t.String())

	sp = tel.Tracer.Start("cluster")
	cl := cluster.BuildEvents(sites, tel.Events)
	sp.End()
	fmt.Printf("canvas groups: %d (popular-unique %d, tail-unique %d)\n\n",
		len(cl.Groups), cl.UniqueCanvases(web.Popular), cl.UniqueCanvases(web.Tail))

	t2 := report.NewTable("Top canvas groups", "rank", "popular", "tail", "events", "scripts", "hash")
	for i, g := range cl.TopK(*topK) {
		t2.AddRow(i+1, g.SiteCount(web.Popular), g.SiteCount(web.Tail),
			g.Events, len(g.ScriptURLs), g.Hash[:12])
	}
	fmt.Println(t2.String())

	tel.Status.MarkDone()
	ops.PrintMetrics(cli, tel, os.Stderr)
	if cli.OutDir != "" {
		m := bundle.Manifest{Notes: "cmd/analyze"}
		if err := bundle.Write(cli.OutDir, m, tel); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "telemetry: wrote run bundle to %s\n", cli.OutDir)
	}
}
