package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"canvassing"
	"canvassing/internal/bundle"
	"canvassing/internal/checkpoint"
	"canvassing/internal/obs/ops"
	"canvassing/internal/serve"
)

// childEnv names the environment variable that turns a bench process
// into a child: it holds the JSON childSpec of the one role to run.
// An environment variable rather than a flag, so the test binary can
// re-exec itself the same way the bench binary does.
const childEnv = "CANVASSING_BENCH_CHILD"

// childSpec is one child process's job.
type childSpec struct {
	Role    string  `json:"role"`
	Seed    uint64  `json:"seed"`
	Scale   float64 `json:"scale"`
	Workers int     `json:"workers"`
	// Checkpoint is the study's checkpoint directory ("" = none).
	Checkpoint string `json:"checkpoint,omitempty"`
	CkptEvery  int    `json:"ckpt_every,omitempty"`
	StopAfter  int    `json:"stop_after,omitempty"`
	// Bundle is the bundle directory the role writes or loads.
	Bundle string `json:"bundle,omitempty"`
	// Result is where the child writes its childResult.
	Result string `json:"result"`
	// Traced adds the trace-only spans; Profile, when set, is where the
	// child writes a CPU profile of its whole life.
	Traced  bool   `json:"traced,omitempty"`
	Profile string `json:"profile,omitempty"`
}

// childResult is what a child reports back to the parent.
type childResult struct {
	// SetupS is the role's set-up time: canvassing.New for the study
	// roles, bundle.Load + serve.New + listener up for the serve roles.
	SetupS float64 `json:"setup_s"`
	// Spans are the benchmark-side spans around each call into a layer.
	Spans []span `json:"spans"`
	// Pages counts the cohort pages of the study's four crawls.
	Pages int `json:"pages,omitempty"`
	// Counts are per-layer counts read from the program's registries.
	Counts map[string]float64 `json:"counts"`
	Checks []check            `json:"checks,omitempty"`
	// Ops and OpErrors count script executions (studies) or requests
	// served (serve) and the ones that failed.
	Ops      int64   `json:"ops"`
	OpErrors int64   `json:"op_errors"`
	AllocMB  float64 `json:"alloc_mb"`
}

// span is one timed call, in seconds since the child started.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// check is one correctness check and its outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newCheck(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// tracer records spans relative to the child's start.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs f inside a span and returns its duration in seconds.
func (t *tracer) do(name string, f func()) float64 {
	start := time.Since(t.t0).Seconds()
	f()
	end := time.Since(t.t0).Seconds()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end})
	return end - start
}

var roles = map[string]func(childSpec, *tracer) (*childResult, error){
	"setup":       roleSetup,
	"study":       roleStudy,
	"resume-a":    roleResumeA,
	"resume-b":    roleResumeB,
	"fixture":     roleFixture,
	"serve-setup": roleServeSetup,
	"serve":       roleServe,
	"reference":   roleReference,
}

// runChild runs the role raw describes and returns the exit code.
func runChild(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	role := roles[spec.Role]
	if role == nil {
		fmt.Fprintf(os.Stderr, "bench child: unknown role %q\n", spec.Role)
		return 2
	}
	tr := &tracer{t0: time.Now()}
	var prof *os.File
	if spec.Profile != "" {
		var err error
		if prof, err = os.Create(spec.Profile); err == nil {
			err = pprof.StartCPUProfile(prof)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	}
	res, err := role(spec, tr)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", spec.Role, err)
		return 1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.AllocMB = float64(ms.TotalAlloc) / (1 << 20)
	res.Spans = tr.spans
	data, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(spec.Result, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench child %s: %v\n", spec.Role, err)
		return 1
	}
	return 0
}

// studyOptions is the paper pipeline's configuration, the same as
// `repro -exp compare` apart from the pool width.
func studyOptions(spec childSpec) canvassing.Options {
	return canvassing.Options{
		Seed:            spec.Seed,
		Scale:           spec.Scale,
		Workers:         spec.Workers,
		WithAdblock:     true,
		WithM1:          true,
		CheckpointDir:   spec.Checkpoint,
		CheckpointEvery: spec.CkptEvery,
	}
}

func roleReference(_ childSpec, tr *tracer) (*childResult, error) {
	var err error
	tr.do("reference", func() { err = referenceKernel() })
	return &childResult{}, err
}

func roleSetup(spec childSpec, tr *tracer) (*childResult, error) {
	setup := tr.do("setup", func() { canvassing.New(studyOptions(spec)) })
	return &childResult{SetupS: setup}, nil
}

func roleStudy(spec childSpec, tr *tracer) (*childResult, error) {
	var s *canvassing.Study
	setup := tr.do("setup", func() { s = canvassing.New(studyOptions(spec)) })
	tr.do("crawler.control", s.RunControl)
	tr.do("analysis", s.Analyze)
	tr.do("crawler.adblock", s.RunAdblock)
	tr.do("crawler.m1", s.RunM1)
	var err error
	tr.do("report", func() { s.RenderAll() })
	tr.do("bundle.write", func() { err = s.WriteBundle(spec.Bundle) })
	if err != nil {
		return nil, err
	}
	res := studyResult(s)
	res.SetupS = setup
	return res, nil
}

// roleResumeA is the process that "crashes": its checkpoint writer
// halts the study after StopAfter sidecar writes.
func roleResumeA(spec childSpec, tr *tracer) (*childResult, error) {
	var s *canvassing.Study
	setup := tr.do("setup", func() { s = canvassing.New(studyOptions(spec)) })
	ck := s.Checkpointer()
	ck.StopAfter = spec.StopAfter
	tr.do("crawler.control", s.RunControl)
	if !s.Halted {
		tr.do("analysis", s.Analyze)
		tr.do("crawler.adblock", s.RunAdblock)
	}
	if !s.Halted {
		tr.do("crawler.m1", s.RunM1)
	}
	res := &childResult{SetupS: setup, Counts: map[string]float64{}}
	res.Checks = append(res.Checks, newCheck("resume.a_halted", s.Halted && ck.Stopped(),
		"halted=%v after %d checkpoint writes", s.Halted, ck.Writes()))
	res.Counts["checkpoint.writes"] = float64(ck.Writes())
	res.Counts["checkpoint.sidecar_mb"] = sidecarMB(spec.Checkpoint)
	return res, nil
}

func roleResumeB(spec childSpec, tr *tracer) (*childResult, error) {
	var err error
	if spec.Traced {
		// Resume loads the sidecar itself; this extra load exists only
		// to time that layer, so only the traced run pays for it.
		tr.do("checkpoint.load", func() { _, err = checkpoint.Load(spec.Checkpoint) })
		if err != nil {
			return nil, err
		}
	}
	var s *canvassing.Study
	tr.do("resume", func() { s, err = canvassing.Resume(spec.Checkpoint) })
	if err != nil {
		return nil, err
	}
	if s.Halted {
		return nil, fmt.Errorf("resumed study halted again")
	}
	tr.do("report", func() { s.RenderAll() })
	tr.do("bundle.write", func() { err = s.WriteBundle(spec.Bundle) })
	if err != nil {
		return nil, err
	}
	res := studyResult(s)
	res.Counts["checkpoint.writes"] = float64(s.Checkpointer().Writes())
	res.Counts["checkpoint.sidecar_mb"] = sidecarMB(spec.Checkpoint)
	return res, nil
}

func sidecarMB(dir string) float64 {
	fi, err := os.Stat(filepath.Join(dir, checkpoint.FileName))
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / (1 << 20)
}

// studyResult reads a finished study's layer counts from its registry
// and checks the shape of the paper ledger.
func studyResult(s *canvassing.Study) *childResult {
	snap := s.Telemetry().Metrics.Snapshot()
	c := snap.Counters
	visits := c["crawl.visits.ok"] + c["crawl.visits.failed"]
	res := &childResult{
		Counts: map[string]float64{
			"crawler.pages":             float64(visits),
			"crawler.visit_fail_ratio":  ratio(c["crawl.visits.failed"], visits),
			"crawler.scripts_executed":  float64(c["crawl.scripts.executed"]),
			"crawler.extractions":       float64(c["crawl.extractions"]),
			"crawler.queue_wait_s":      snap.Histograms["crawl.queue.wait.seconds"].Sum,
			"jsvm.steps":                snap.Histograms["jsvm.script.steps"].Sum,
			"jsvm.parse_hit_ratio":      ratio(c["crawl.parsecache.hits"], c["crawl.parsecache.hits"]+c["crawl.parsecache.misses"]),
			"blocklist.scripts_blocked": float64(c["crawl.scripts.blocked"]),
			"analysis.cache_hit_ratio":  ratio(c["analysis.cache.hits"], c["analysis.cache.hits"]+c["analysis.cache.misses"]),
		},
		Pages:    len(s.Control.Pages) + len(s.ABP.Pages) + len(s.UBO.Pages) + len(s.M1.Pages),
		Ops:      c["crawl.scripts.executed"],
		OpErrors: c["crawl.scripts.errors"],
	}

	prev := s.Prevalence().Rows
	pop, tail := prev[0], prev[1]
	res.Checks = append(res.Checks,
		newCheck("ledger.fp_sites_popular", pop.FPSites > 0, "%d of %d", pop.FPSites, pop.CrawledOK),
		newCheck("ledger.fp_sites_tail", tail.FPSites > 0, "%d of %d", tail.FPSites, tail.CrawledOK),
		newCheck("ledger.popular_gt_tail",
			ratio(int64(pop.FPSites), int64(pop.CrawledOK)) > ratio(int64(tail.FPSites), int64(tail.CrawledOK)),
			"popular %d/%d, tail %d/%d", pop.FPSites, pop.CrawledOK, tail.FPSites, tail.CrawledOK))
	t2, err := s.Table2()
	res.Checks = append(res.Checks, newCheck("ledger.table2", err == nil && len(t2.Rows) > 0, "%d rows, err=%v", len(t2.Rows), err))
	return res
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// roleFixture writes the control-only bundle the serve workload loads.
func roleFixture(spec childSpec, tr *tracer) (*childResult, error) {
	var err error
	tr.do("serve.fixture", func() {
		s := canvassing.New(canvassing.Options{Seed: spec.Seed, Scale: spec.Scale, Workers: spec.Workers})
		s.RunControl()
		s.Analyze()
		err = s.WriteBundle(spec.Bundle)
	})
	if err != nil {
		return nil, err
	}
	return &childResult{}, nil
}

// startService loads the bundle and serves it on a loopback port.
func startService(spec childSpec, tr *tracer) (*serve.Service, *ops.Plane, float64, error) {
	var (
		b     *bundle.Bundle
		svc   *serve.Service
		plane *ops.Plane
		err   error
	)
	setup := tr.do("bundle.load", func() { b, err = bundle.Load(spec.Bundle) })
	if err != nil {
		return nil, nil, 0, err
	}
	setup += tr.do("serve.index", func() { svc, err = serve.New(b, serve.Config{ListsFor: canvassing.ListsForSeed}) })
	if err != nil {
		return nil, nil, 0, err
	}
	setup += tr.do("serve.listen", func() { plane, err = svc.Start("127.0.0.1:0", false, 0) })
	if err != nil {
		return nil, nil, 0, err
	}
	return svc, plane, setup, nil
}

func roleServeSetup(spec childSpec, tr *tracer) (*childResult, error) {
	_, plane, setup, err := startService(spec, tr)
	if err != nil {
		return nil, err
	}
	return &childResult{SetupS: setup}, plane.Close()
}

// roleServe serves until its standard input closes, having announced
// its base URL as the first line of its standard output.
func roleServe(spec childSpec, tr *tracer) (*childResult, error) {
	svc, plane, setup, err := startService(spec, tr)
	if err != nil {
		return nil, err
	}
	defer plane.Close()
	fmt.Println(plane.URL())
	if _, err := io.Copy(io.Discard, os.Stdin); err != nil {
		return nil, err
	}
	snap := svc.Tel.Metrics.Snapshot()
	probes, coalesced := svc.Batcher().Counts()
	reqs := snap.Counters["serve.requests"]
	return &childResult{
		SetupS: setup,
		Counts: map[string]float64{
			"serve.requests":        float64(reqs),
			"serve.handler_mean_us": snap.Histograms["serve.latency.seconds"].Mean() * 1e6,
			"serve.coalesced_ratio": ratio(int64(coalesced), int64(probes+coalesced)),
		},
		Ops:      reqs,
		OpErrors: snap.Counters["serve.errors"],
	}, nil
}
