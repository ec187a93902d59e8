package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"canvassing/internal/bundle"
)

// Load is sized for a 2-core host: two crawler workers, and two
// closed-loop serve clients in the one generator process.
const (
	workers = 2
	conns   = 2
	// childTimeout bounds every child process.
	childTimeout = 150 * time.Second
)

// config sizes the workloads. Scale and the serve window are fixed per
// workload, not flags; the smoke test shrinks them through this struct.
type config struct {
	scale float64 // web scale of the studies and the serve fixture
	// ckptEvery and stopAfter place study-resume's crash: the checkpoint
	// cadence in committed pages, and the sidecar write that halts
	// process A (30 of cadence 256 lands inside the ABP re-crawl).
	ckptEvery int
	stopAfter int
	// setupSamples is how many extra fresh processes only set up, so
	// setup_s is a median over several cold starts.
	setupSamples int
	// refSamples is how many times a run times the reference kernel
	// before its first pass and after each pass.
	refSamples int
	// warmup precedes the timed serve window, which lasts window, or
	// -seconds if 0.
	warmup  time.Duration
	window  time.Duration
	workDir string
}

func defaultConfig() config {
	return config{
		scale:        0.1,
		ckptEvery:    256,
		stopAfter:    30,
		setupSamples: 12,
		refSamples:   3,
		warmup:       2 * time.Second,
		workDir:      ".bench_build",
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// prepare builds what the workload's set-up and passes read.
	prepare func(r *runner) error
	// setup measures one set-up in a fresh process.
	setup func(r *runner) (float64, error)
	// pass runs one unit of measured work in fresh processes.
	pass func(r *runner, traced bool) (*pass, error)
}

var workloads = []*workload{
	{name: "study", prepare: noPrepare, setup: studySetup(false), pass: studyPass},
	{name: "study-resume", prepare: noPrepare, setup: studySetup(true), pass: resumePass},
	{name: "serve", prepare: servePrepare, setup: serveSetup, pass: servePass},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pass is what one unit of measured work reported.
type pass struct {
	setupS []float64
	// latencyMS holds one sample per unit of work the user waits for:
	// a whole study, or one request.
	latencyMS []float64
	// items is the work done (cohort pages, or verdict lookups) and
	// itemS the seconds it took.
	items, itemS float64
	// unitS is the time per unit of work, which the tracing overhead
	// compares between a traced and an untraced pass.
	unitS  float64
	rssMB  float64
	checks []check
	// ops and opErrors count the program's own operations.
	ops, opErrors int64
	counts        map[string]float64
	spans         []procSpan
	profiles      []string
	allocMB       float64
	extra         map[string]float64
}

// procSpan is a span tagged with the child process that recorded it.
type procSpan struct {
	Process string `json:"process"`
	span
}

func (p *pass) absorb(role string, res *childResult) {
	if p.counts == nil {
		p.counts = map[string]float64{}
	}
	for k, v := range res.Counts {
		p.counts[k] = v
	}
	for _, s := range res.Spans {
		p.spans = append(p.spans, procSpan{Process: role, span: s})
	}
	p.checks = append(p.checks, res.Checks...)
	p.ops += res.Ops
	p.opErrors += res.OpErrors
	p.allocMB += res.AllocMB
}

// runner runs the workloads of one seed.
type runner struct {
	cfg    config
	seed   uint64
	exe    string
	exeSum string // identifies the build in the digest ledger
	dir    string // this run's working directory
	seq    int
	plan   *servePlan
}

func newRunner(cfg config, seed uint64) (*runner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	sum, err := fileDigest(exe)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, fmt.Sprintf("run-seed%d-", seed))
	if err != nil {
		return nil, err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	return &runner{cfg: cfg, seed: seed, exe: exe, exeSum: sum[:16], dir: dir}, nil
}

// close removes the run's working directory.
func (r *runner) close() error { return os.RemoveAll(r.dir) }

// path returns a fresh path inside the run directory.
func (r *runner) path(name string) string {
	r.seq++
	return filepath.Join(r.dir, fmt.Sprintf("%03d-%s", r.seq, name))
}

func (r *runner) spec(role string) childSpec {
	return childSpec{Role: role, Seed: r.seed, Scale: r.cfg.scale, Workers: workers, Result: r.path(role + ".json")}
}

// child is a started child process.
type child struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	spec   childSpec
	stdin  io.WriteCloser
	stdout *bufio.Reader
}

// start launches a child running spec; withPipes connects its standard
// input and output to the parent instead of the parent's stderr.
func (r *runner) start(spec childSpec, withPipes bool) (*child, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	cmd := exec.CommandContext(ctx, r.exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, cancel: cancel, spec: spec}
	if withPipes {
		if c.stdin, err = cmd.StdinPipe(); err != nil {
			cancel()
			return nil, err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			cancel()
			return nil, err
		}
		c.stdout = bufio.NewReader(out)
	} else {
		// Keep the parent's standard output for results only.
		cmd.Stdout = os.Stderr
	}
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	return c, nil
}

// wait waits for the child and returns its result and peak RSS in MB.
func (c *child) wait() (*childResult, float64, error) {
	defer c.cancel()
	if c.stdin != nil {
		c.stdin.Close()
	}
	if err := c.cmd.Wait(); err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", c.spec.Role, err)
	}
	rssMB := 0.0
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	data, err := os.ReadFile(c.spec.Result)
	if err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", c.spec.Role, err)
	}
	var res childResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", c.spec.Role, err)
	}
	return &res, rssMB, nil
}

// run starts a child and waits for it.
func (r *runner) run(spec childSpec) (*childResult, float64, error) {
	c, err := r.start(spec, false)
	if err != nil {
		return nil, 0, err
	}
	return c.wait()
}

func (r *runner) traceSpec(spec childSpec, traced bool) childSpec {
	spec.Traced = traced
	if traced {
		spec.Profile = r.path(spec.Role + ".pprof")
	}
	return spec
}

// reference times the reference kernel once, in a fresh process.
func (r *runner) reference() (float64, error) {
	res, _, err := r.run(r.spec("reference"))
	if err != nil {
		return 0, err
	}
	return spanSum(res.Spans, "reference"), nil
}

func noPrepare(*runner) error { return nil }

func studySetup(withCheckpoint bool) func(*runner) (float64, error) {
	return func(r *runner) (float64, error) {
		spec := r.spec("setup")
		if withCheckpoint {
			spec.Checkpoint, spec.CkptEvery = r.path("checkpoint"), r.cfg.ckptEvery
		}
		res, _, err := r.run(spec)
		if err != nil {
			return 0, err
		}
		return res.SetupS, nil
	}
}

// studyPass runs the paper pipeline once: New, RunControl, Analyze,
// RunAdblock, RunM1, RenderAll and WriteBundle.
func studyPass(r *runner, traced bool) (*pass, error) {
	spec := r.traceSpec(r.spec("study"), traced)
	spec.Bundle = r.path("bundle")
	res, rss, err := r.run(spec)
	if err != nil {
		return nil, err
	}
	p := &pass{setupS: []float64{res.SetupS}, rssMB: rss, items: float64(res.Pages), profiles: profiles(spec)}
	p.absorb("study", res)
	wall := spanSum(res.Spans, "crawler.control", "analysis", "crawler.adblock", "crawler.m1", "report", "bundle.write")
	p.latencyMS = []float64{wall * 1e3}
	p.itemS = spanSum(res.Spans, "crawler.control", "crawler.adblock", "crawler.m1")
	p.unitS = wall
	p.checks = append(p.checks, r.checkDigest(spec.Bundle, "study"))
	return p, os.RemoveAll(spec.Bundle)
}

// resumePass runs the pipeline in two processes: A halts after
// stopAfter checkpoint writes, B resumes from the sidecar and writes
// the bundle.
func resumePass(r *runner, traced bool) (*pass, error) {
	ckpt := r.path("checkpoint")
	a := r.traceSpec(r.spec("resume-a"), traced)
	a.Checkpoint, a.CkptEvery, a.StopAfter = ckpt, r.cfg.ckptEvery, r.cfg.stopAfter
	resA, rssA, err := r.run(a)
	if err != nil {
		return nil, err
	}
	b := r.traceSpec(r.spec("resume-b"), traced)
	b.Checkpoint, b.Bundle = ckpt, r.path("bundle")
	resB, rssB, err := r.run(b)
	if err != nil {
		return nil, err
	}
	p := &pass{setupS: []float64{resA.SetupS}, rssMB: max(rssA, rssB), items: float64(resB.Pages), profiles: profiles(a, b)}
	p.absorb("resume-a", resA)
	p.absorb("resume-b", resB)
	p.counts["checkpoint.writes"] = resA.Counts["checkpoint.writes"] + resB.Counts["checkpoint.writes"]
	p.counts["checkpoint.sidecar_mb"] = max(resA.Counts["checkpoint.sidecar_mb"], resB.Counts["checkpoint.sidecar_mb"])
	// B's registry is restored from A's checkpoint, so its counters
	// already cover both processes; A's script counts are not added.
	p.ops, p.opErrors = resB.Ops, resB.OpErrors
	wall := spanSum(resA.Spans, "crawler.control", "analysis", "crawler.adblock", "crawler.m1") +
		spanSum(resB.Spans, "resume", "report", "bundle.write")
	p.latencyMS = []float64{wall * 1e3}
	p.itemS, p.unitS = wall, wall
	p.checks = append(p.checks, r.checkDigest(b.Bundle, "study-resume"))
	if err := os.RemoveAll(b.Bundle); err != nil {
		return nil, err
	}
	return p, os.RemoveAll(ckpt)
}

// servePrepare builds the control-only bundle the service loads and
// the request plan that reads it.
func servePrepare(r *runner) error {
	spec := r.spec("fixture")
	spec.Bundle = filepath.Join(r.dir, "serve-bundle")
	if _, _, err := r.run(spec); err != nil {
		return err
	}
	plan, err := newServePlan(spec.Bundle)
	r.plan = plan
	return err
}

func serveSetup(r *runner) (float64, error) {
	spec := r.spec("serve-setup")
	spec.Bundle = filepath.Join(r.dir, "serve-bundle")
	res, _, err := r.run(spec)
	if err != nil {
		return 0, err
	}
	return res.SetupS, nil
}

// servePass starts a server, drives the closed loop through a warm-up
// and the timed window, and stops the server.
func servePass(r *runner, traced bool) (*pass, error) {
	spec := r.traceSpec(r.spec("serve"), traced)
	spec.Bundle = filepath.Join(r.dir, "serve-bundle")
	c, err := r.start(spec, true)
	if err != nil {
		return nil, err
	}
	base, err := c.stdout.ReadString('\n')
	if err != nil {
		c.cmd.Process.Kill()
		c.wait()
		return nil, fmt.Errorf("serve child announced no URL: %w", err)
	}
	base = strings.TrimSpace(base)
	warm := r.plan.drive(base, r.cfg.warmup, 1<<20)
	timed := r.plan.drive(base, r.cfg.window, 0)
	res, rss, err := c.wait()
	if err != nil {
		return nil, err
	}
	p := &pass{
		setupS:    []float64{res.SetupS},
		latencyMS: timed.latencyMS,
		items:     float64(timed.lookups),
		itemS:     timed.elapsed.Seconds(),
		rssMB:     rss,
		profiles:  profiles(spec),
		extra:     map[string]float64{},
	}
	p.unitS = p.itemS / p.items
	p.absorb("serve", res)
	// The parent's requests are the serve workload's operations; the
	// server's own request count is a per-layer figure.
	p.ops, p.opErrors = int64(warm.requests+timed.requests), int64(warm.failed+timed.failed)
	if err := errors.Join(warm.firstErr, timed.firstErr); err != nil {
		fmt.Fprintln(os.Stderr, "serve: first failed request:", err)
	}
	for kind, ms := range timed.byKind {
		p.extra["serve."+kind+"_p50_us"] = median(ms) * 1e3
	}
	return p, nil
}

func profiles(specs ...childSpec) []string {
	var out []string
	for _, s := range specs {
		if s.Profile != "" {
			out = append(out, s.Profile)
		}
	}
	return out
}

func spanSum(spans []span, names ...string) float64 {
	total := 0.0
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				total += s.End - s.Start
			}
		}
	}
	return total
}

// bundleArtifacts are the deterministic files of a bundle: equal seeds
// must give byte-identical copies whichever way the study ran.
var bundleArtifacts = []string{bundle.ManifestFile, bundle.EventsFile, "report.txt", bundle.MetricsDeterministicFile}

func bundleDigest(dir string) (string, error) {
	h := sha256.New()
	for _, name := range bundleArtifacts {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkDigest compares a bundle's digest with the one the digest ledger
// holds for this build and seed, and records it when the ledger has
// none. Every study, study-resume and traced run of one seed must write
// the same bundle, so whichever ran first is the reference.
func (r *runner) checkDigest(dir, workload string) check {
	const name = "bundle.digest"
	got, err := bundleDigest(dir)
	if err != nil {
		return newCheck(name, false, "%v", err)
	}
	ledger := filepath.Join(r.cfg.workDir, "digests")
	if err := os.MkdirAll(ledger, 0o755); err != nil {
		return newCheck(name, false, "%v", err)
	}
	path := filepath.Join(ledger, fmt.Sprintf("%s-seed%d", r.exeSum, r.seed))
	// Write the entry whole, then link it into place: the link fails if
	// another run recorded this seed first, and a reader never sees a
	// half-written entry.
	tmp := r.path("digest")
	if err := os.WriteFile(tmp, []byte(got+" "+workload+"\n"), 0o644); err != nil {
		return newCheck(name, false, "%v", err)
	}
	err = os.Link(tmp, path)
	if err == nil {
		return newCheck(name, true, "%s (first run of this seed)", got[:12])
	}
	if !errors.Is(err, os.ErrExist) {
		return newCheck(name, false, "%v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return newCheck(name, false, "%v", err)
	}
	want, from, _ := strings.Cut(strings.TrimSpace(string(data)), " ")
	return newCheck(name, got == want, "%s, %s recorded %s", got[:12], from, want[:min(12, len(want))])
}
