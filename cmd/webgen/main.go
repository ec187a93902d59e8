// Command webgen generates a synthetic web and prints its inventory:
// cohort sizes, crawl-success counts, TLD distribution, planted vendor
// deployments and hosted script counts. Use it to inspect what the
// crawler will visit before running a study.
//
// Observability: the shared -metrics/-pprof/-status/-tracez flags
// apply; webgen performs no visits, so its /tracez reservoir is empty
// and the webgen phase span is the only row of the -metrics phase
// table and of /spans.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"canvassing/internal/obs"
	"canvassing/internal/obs/ops"
	"canvassing/internal/obs/tracez"
	"canvassing/internal/report"
	"canvassing/internal/web"
)

func main() {
	seed := flag.Uint64("seed", 1, "generation seed")
	scale := flag.Float64("scale", 0.05, "web scale (1.0 = the paper's 20k+20k)")
	listSites := flag.Int("sites", 0, "print the first N sites of each cohort")
	trancoOut := flag.String("tranco", "", "export the ranking as a Tranco CSV to this path")
	cli := obs.BindCLI(flag.CommandLine)
	flag.Parse()

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
	w := web.Generate(web.Config{Seed: *seed, Scale: *scale, TrancoMax: 1_000_000})
	sp.End()

	t := report.NewTable("Cohorts", "cohort", "sites", "crawl-ok", "with-scripts")
	for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
		sites := w.CohortSites(cohort)
		ok, withScripts := 0, 0
		for _, s := range sites {
			if s.CrawlOK {
				ok++
			}
			if len(s.Scripts) > 0 {
				withScripts++
			}
		}
		t.AddRow(cohort, len(sites), ok, withScripts)
	}
	fmt.Println(t.String())

	tlds := map[string]int{}
	for _, s := range w.Sites {
		i := strings.Index(s.Domain, ".")
		tlds[s.Domain[i+1:]]++
	}
	var keys []string
	for k := range tlds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return tlds[keys[i]] > tlds[keys[j]] })
	t2 := report.NewTable("TLD distribution", "tld", "sites")
	for _, k := range keys {
		t2.AddRow(k, tlds[k])
	}
	fmt.Println(t2.String())

	vendorCounts := map[string]int{}
	longtail := 0
	for _, deps := range w.Truth {
		for _, d := range deps {
			if d.VendorSlug != "" {
				vendorCounts[d.VendorSlug]++
			} else {
				longtail++
			}
		}
	}
	var slugs []string
	for s := range vendorCounts {
		slugs = append(slugs, s)
	}
	sort.Strings(slugs)
	t3 := report.NewTable("Planted deployments (ground truth)", "vendor", "deployments")
	for _, s := range slugs {
		t3.AddRow(s, vendorCounts[s])
	}
	t3.AddRow("(longtail actors)", longtail)
	fmt.Println(t3.String())

	fmt.Printf("hosted resources: %d, demo pages: %d\n", w.Store.Len(), len(w.Demos))

	if *trancoOut != "" {
		f, err := os.Create(*trancoOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := w.Ranking().WriteCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("ranking exported to %s\n", *trancoOut)
	}

	if *listSites > 0 {
		for _, cohort := range []web.Cohort{web.Popular, web.Tail} {
			fmt.Printf("\n%s sites:\n", cohort)
			for i, s := range w.CohortSites(cohort) {
				if i >= *listSites {
					break
				}
				fmt.Printf("  #%-7d %-28s crawlOK=%-5v scripts=%d\n",
					s.Rank, s.Domain, s.CrawlOK, len(s.Scripts))
			}
		}
	}

	tel.Status.MarkDone()
	ops.PrintMetrics(cli, tel, os.Stderr)
}
