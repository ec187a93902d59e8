# Build/verify targets. `make check` is the extended verify command
# recorded in ROADMAP.md: build + full tests + race on the concurrent
# packages + vet + a short fuzz smoke over the parsers.

GO ?= go

.PHONY: build test race vet fmt-check fuzz-smoke check bench bench-smoke bench-check bench-module paper-check resume-smoke trace-smoke serve-smoke distrib-smoke interact-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The crawler worker pool, the obs registry, the evidence event sink,
# the fault model, the bundle layer, the checkpoint writer, the
# exemplar reservoir (offered from workers, read by /tracez), the ops
# plane (status tracker, window sampler, live HTTP handlers) and the
# verdict service's lookup Batcher are the places goroutines share
# state; hammer them under the race detector. internal/detect keeps no
# state between calls since its analysis pass runs serially; it stays
# here so state it gains later is raced. internal/dom rides along
# because every crawl worker drives its own event loop — the race
# detector proves the loops really are confined to their workers.
# internal/jsvm and internal/raster run on every crawl worker at once:
# each worker has its own Interp and method tables (one Program may run on many Interps, as
# TestSharedProgramConcurrent checks), and each canvas context its own
# Rasterizer. Crawl workers share two structures of a study: the
# display-list memo in internal/canvas (TestMemoConcurrent: 8 goroutines
# extract overlapping drawings through one memo, without a hook and
# through the two kinds of noise hook E8 installs) and the call memo in
# internal/jsvm, which holds pure-call results and compiled programs
# (TestCallMemoConcurrent: 8 interpreters call a pure function with
# overlapping arguments through one memo; TestProgramMemoConcurrent: 8
# goroutines parse overlapping valid and broken bodies through one memo
# and run them on interpreters of their own).
# internal/imaging pools the PNG encoder's compressors across workers
# (TestPooledPNGMatchesStdlib). internal/entropy renders EX1's machines
# on parallel goroutines, each with its own interpreter and document,
# running one shared program.
# No test in internal/distrib runs a coordinator: its slot goroutines,
# ledger updates and requeues, and the in-process units that write
# their own journals while sharing the study's display-list and call
# memos, run only in the root package's distributed tests.
# TestDistribKillAndResume exercises all of them, reassignment included
# (14-16 s of test time under the race detector on a 2-vCPU host).
race:
	$(GO) test -race ./internal/crawler ./internal/dom ./internal/jsvm ./internal/raster ./internal/canvas ./internal/imaging ./internal/entropy ./internal/obs ./internal/obs/event ./internal/obs/window ./internal/obs/ops ./internal/obs/tracez ./internal/netsim ./internal/bundle ./internal/detect ./internal/checkpoint ./internal/serve ./internal/distrib
	$(GO) test -race -run 'TestDistribKillAndResume$$' .

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would rewrite any Go file in the tree,
# bench/ included. go vet does not catch formatting drift such as
# misaligned struct fields; this does.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; fi
	@echo "fmt-check: gofmt -l . is clean"

# fuzz-smoke gives each parser fuzzer a short budget — enough to catch
# regressions in the URL and filter-rule grammars without stalling CI.
# FuzzEval runs each script the parser accepts through the compiled
# interpreter and the test-only reference walker, and requires both to
# stop within the step budget and agree. FuzzCanvasOps drives the canvas
# API a page script reaches with hostile arguments (NaN, ±Inf, ±1e300,
# huge sizes) and requires every call to return within a deadline,
# without a panic and with bounded allocation. It is differential: each
# input also runs on eager canvases, on display-list canvases without a
# memo, and on ones sharing a memo, cold and warm, and all four must
# trace, read and end with the same bytes. Its inputs also extract
# through a noise hook keyed by canvas content and one drawing fresh
# noise per call, so every hooked URL the memo serves is checked against
# an eager encode. FuzzBundleLoad writes arbitrary manifest.json,
# events.jsonl and metrics.json bytes and loads them with bundle.Load,
# which `serve -bundle` and runsdiff both read bundles from disk with,
# and requires an error or a bundle that Compute, Render and
# RenderComparison take without a panic and that a diff against itself
# finds unchanged. FuzzDecodeDataURL feeds arbitrary data URLs —
# `POST /v1/classify` accepts them from clients — through
# ParseDataURL, PNGSize and DecodeWebPSim, and requires an error or
# dimensions that match the pixel bytes. FuzzEval also runs
# every input with call memos, cold, warm and shared across inputs, and
# requires the same outcome. FuzzReadJSONL feeds arbitrary bytes to
# event.ReadJSONL, which bundle.Load reads every bundle's events.jsonl
# with, and requires an error or events that read back equal after
# Sink.WriteJSONL writes them. FuzzSink drives random Record, Restore,
# Since, Events and WriteJSONL sequences, with random count and byte
# bounds and field lengths, through event.Sink, which keeps events
# encoded in one byte ring, and through a test-only copy of the ring of
# Event slots it replaced, and requires the sink to keep the newest
# events that fit its byte bound and, while they all fit, to answer
# every call as the slot ring does. Each input runs a whole call
# sequence, so it caps minimising at 1 s, as FuzzListMatch does.
# FuzzClassifyBatch sends arbitrary bodies
# to `POST /v1/classify/batch` over the hand-built fuzz bundle, whose
# batch bodies are copied together from answers rendered once at load,
# and requires a 200, 400 or 413, a 200 body equal to MarshalIndent of
# the decoded request's per-request answers, and the same bytes for the
# same request twice. FuzzParseEventDetail feeds arbitrary
# detect.classify details to detect.ParseEventDetail, which `serve`
# runs over every such event of a bundle it loads, and requires a
# rejection or non-negative dimensions in a detail EventDetail would
# write back field for field. FuzzListMatch parses arbitrary list text
# and requires List.Match to return the very rule a linear scan of the
# block rules returns, and ShouldBlock the linear scans' verdict, so the
# host index never changes an answer. Its seeds are whole generated
# lists, tens of kilobytes, so it caps minimising each new input at 1 s;
# at the default 60 s one minimisation takes the whole smoke budget.
# Longer sessions: go test -fuzz FuzzParseRule -fuzztime 5m ./internal/blocklist
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzParseURL -fuzztime 10s ./internal/netsim
	$(GO) test -run XXX -fuzz FuzzParseRule -fuzztime 10s ./internal/blocklist
	$(GO) test -run XXX -fuzz FuzzListMatch -fuzztime 10s -fuzzminimizetime 1s ./internal/blocklist
	$(GO) test -run XXX -fuzz FuzzClassifyRequest -fuzztime 10s ./internal/serve
	$(GO) test -run XXX -fuzz FuzzBlockQuery -fuzztime 10s ./internal/serve
	$(GO) test -run XXX -fuzz FuzzClassifyBatch -fuzztime 10s ./internal/serve
	$(GO) test -run XXX -fuzz FuzzMergePartialBundles -fuzztime 10s ./internal/distrib
	$(GO) test -run XXX -fuzz FuzzParseProfile -fuzztime 10s ./internal/crawler
	$(GO) test -run XXX -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/checkpoint
	$(GO) test -run XXX -fuzz FuzzEval -fuzztime 10s ./internal/jsvm
	$(GO) test -run XXX -fuzz FuzzCanvasOps -fuzztime 10s ./internal/canvas
	$(GO) test -run XXX -fuzz FuzzBundleLoad -fuzztime 10s ./internal/bundle
	$(GO) test -run XXX -fuzz FuzzDecodeDataURL -fuzztime 10s ./internal/imaging
	$(GO) test -run XXX -fuzz FuzzReadJSONL -fuzztime 10s ./internal/obs/event
	$(GO) test -run XXX -fuzz FuzzSink -fuzztime 10s -fuzzminimizetime 1s ./internal/obs/event
	$(GO) test -run XXX -fuzz FuzzParseEventDetail -fuzztime 10s ./internal/detect

check: build test race vet fmt-check fuzz-smoke bench-smoke bench-check bench-module paper-check resume-smoke trace-smoke serve-smoke distrib-smoke interact-smoke

# paper-check reruns the three committed paper reports with the
# commands EXPERIMENTS.md "Provenance" gives and requires each to be
# byte-identical to the committed file. It takes about 15 s on a 2-vCPU
# host; the paper-scale run is the long pole, at 6.5 s and 470-490 MB of
# memory.
PCHECK := .paper-check
paper-check:
	rm -rf $(PCHECK)
	mkdir -p $(PCHECK)
	$(GO) build -o $(PCHECK)/repro ./cmd/repro
	$(PCHECK)/repro -seed 1 -exp ex1 -out $(PCHECK)/ex1_report.txt >/dev/null
	cmp ex1_report.txt $(PCHECK)/ex1_report.txt
	$(PCHECK)/repro -seed 1 -scale 1.0 -workers 12 -exp ex2 -out $(PCHECK)/ex2_report.txt >/dev/null
	cmp ex2_report.txt $(PCHECK)/ex2_report.txt
	$(PCHECK)/repro -seed 1 -scale 1.0 -workers 12 -exp all -out $(PCHECK)/fullscale_report.txt >/dev/null
	cmp fullscale_report.txt $(PCHECK)/fullscale_report.txt
	rm -rf $(PCHECK)
	@echo "paper-check: ex1, ex2 and the paper-scale report are byte-identical to the committed files"

# resume-smoke is the shell-level half of the resume oracle (the Go
# half is TestResumeOracle): run a checkpointed study to completion,
# run it again interrupted mid-flight (-interrupt-after exits 3),
# append a torn frame (bytes with no trailing newline) to the journal
# as a crash mid-append would, resume from it, and require the two
# bundles' deterministic artifacts to be byte-identical via cmp.
SMOKE := .resume-smoke
resume-smoke:
	rm -rf $(SMOKE)
	mkdir -p $(SMOKE)
	$(GO) build -o $(SMOKE)/repro ./cmd/repro
	$(SMOKE)/repro -seed 11 -scale 0.02 -exp compare -checkpoint $(SMOKE)/ckpt-ref -checkpoint-every 100 -outdir $(SMOKE)/ref >/dev/null
	$(SMOKE)/repro -seed 11 -scale 0.02 -exp compare -checkpoint $(SMOKE)/ckpt -checkpoint-every 100 -interrupt-after 4 >/dev/null; \
	  status=$$?; [ $$status -eq 3 ] || { echo "resume-smoke: expected exit 3 from the interrupted run, got $$status"; exit 1; }
	printf '{"schema":3,"seq":5,"crawls":[{"from":0,"condition":"control","pages":[{"Domain":"torn' >> $(SMOKE)/ckpt/checkpoint.json
	$(SMOKE)/repro -resume $(SMOKE)/ckpt -exp compare -outdir $(SMOKE)/resumed >/dev/null
	cmp $(SMOKE)/ref/manifest.json $(SMOKE)/resumed/manifest.json
	cmp $(SMOKE)/ref/events.jsonl $(SMOKE)/resumed/events.jsonl
	cmp $(SMOKE)/ref/report.txt $(SMOKE)/resumed/report.txt
	cmp $(SMOKE)/ref/metrics.deterministic.json $(SMOKE)/resumed/metrics.deterministic.json
	rm -rf $(SMOKE)
	@echo "resume-smoke: interrupted-then-resumed bundle is byte-identical to the uninterrupted run"

# trace-smoke is the shell-level tracescope check: run a small traced
# study with -outdir, then require tracescope to produce a critical
# path and a non-empty exemplar reservoir from the run dir.
TSMOKE := .trace-smoke
trace-smoke:
	rm -rf $(TSMOKE)
	mkdir -p $(TSMOKE)
	$(GO) build -o $(TSMOKE)/repro ./cmd/repro
	$(GO) build -o $(TSMOKE)/tracescope ./cmd/tracescope
	$(TSMOKE)/repro -seed 5 -scale 0.02 -exp compare -tracez -outdir $(TSMOKE)/run >/dev/null
	test -s $(TSMOKE)/run/trace_exemplars.jsonl
	$(TSMOKE)/tracescope $(TSMOKE)/run | grep -q "Critical path: crawl"
	$(TSMOKE)/tracescope $(TSMOKE)/run | grep -q "Slowest visits"
	$(TSMOKE)/tracescope -folded $(TSMOKE)/folded.txt $(TSMOKE)/run >/dev/null 2>&1
	grep -q "^visits;control;visit" $(TSMOKE)/folded.txt
	rm -rf $(TSMOKE)
	@echo "trace-smoke: tracescope reports a critical path and exemplar visits from a traced run dir"

# serve-smoke is the shell-level check on the verdict service: run a
# small study, serve its bundle on a free port, probe every endpoint
# with `serve -check`, and diff the responses against the committed
# expectation. A drift here means the API's bytes changed — update
# testdata/serve_smoke.expected deliberately if so.
VSMOKE := .serve-smoke
serve-smoke:
	rm -rf $(VSMOKE)
	mkdir -p $(VSMOKE)
	$(GO) build -o $(VSMOKE)/repro ./cmd/repro
	$(GO) build -o $(VSMOKE)/serve ./cmd/serve
	$(VSMOKE)/repro -seed 11 -scale 0.02 -exp compare -outdir $(VSMOKE)/run >/dev/null
	$(VSMOKE)/serve -bundle $(VSMOKE)/run -addr 127.0.0.1:0 -addr-file $(VSMOKE)/addr >$(VSMOKE)/banner.txt 2>/dev/null & echo $$! > $(VSMOKE)/pid
	for i in $$(seq 1 100); do [ -s $(VSMOKE)/addr ] && break; sleep 0.1; done; [ -s $(VSMOKE)/addr ] || { kill $$(cat $(VSMOKE)/pid) 2>/dev/null; echo "serve-smoke: server never published its address"; exit 1; }
	$(VSMOKE)/serve -check $$(cat $(VSMOKE)/addr) > $(VSMOKE)/out.txt; status=$$?; kill $$(cat $(VSMOKE)/pid) 2>/dev/null; [ $$status -eq 0 ]
	grep -q "canvassing verdict service" $(VSMOKE)/banner.txt
	diff testdata/serve_smoke.expected $(VSMOKE)/out.txt
	rm -rf $(VSMOKE)
	@echo "serve-smoke: every verdict endpoint answers byte-identically to the committed expectation"

# distrib-smoke is the shell-level half of the partition-invariance
# oracle (the Go half is TestDistribPartitionOracle): run the study
# single-process via repro, run it again as a 4-partition distributed
# study over spawned `crawl -distrib-unit` worker processes, and
# require the two bundles' deterministic artifacts to be byte-identical
# via cmp. The ledger must show a clean run (no failed units).
DSMOKE := .distrib-smoke
distrib-smoke:
	rm -rf $(DSMOKE)
	mkdir -p $(DSMOKE)
	$(GO) build -o $(DSMOKE)/repro ./cmd/repro
	$(GO) build -o $(DSMOKE)/coordinator ./cmd/coordinator
	$(GO) build -o $(DSMOKE)/crawl ./cmd/crawl
	$(DSMOKE)/repro -seed 11 -scale 0.02 -exp compare -outdir $(DSMOKE)/ref >/dev/null
	$(DSMOKE)/coordinator -seed 11 -scale 0.02 -adblock -m1 -partitions 4 -slots 3 -dir $(DSMOKE)/run -worker $(DSMOKE)/crawl -compare -out $(DSMOKE)/dist >$(DSMOKE)/ledger.txt 2>/dev/null
	grep -q "16 units, 16 done, 0 failed" $(DSMOKE)/ledger.txt
	cmp $(DSMOKE)/ref/manifest.json $(DSMOKE)/dist/manifest.json
	cmp $(DSMOKE)/ref/events.jsonl $(DSMOKE)/dist/events.jsonl
	cmp $(DSMOKE)/ref/report.txt $(DSMOKE)/dist/report.txt
	cmp $(DSMOKE)/ref/metrics.deterministic.json $(DSMOKE)/dist/metrics.deterministic.json
	rm -rf $(DSMOKE)
	@echo "distrib-smoke: 4-partition distributed study over worker processes is byte-identical to the single-process run"

# interact-smoke is the shell-level half of the interaction-engine
# contract (the Go halves are TestInteractDispatchWidthInvariance and
# TestInteractOffLeavesNoResidue): the EX3 experiment must report a
# nonzero interaction-only fingerprinter population, and a run without
# -interact must leave zero engine residue in its bundle artifacts.
ISMOKE := .interact-smoke
interact-smoke:
	rm -rf $(ISMOKE)
	mkdir -p $(ISMOKE)
	$(GO) build -o $(ISMOKE)/repro ./cmd/repro
	$(ISMOKE)/repro -seed 11 -scale 0.02 -exp ex3 -out $(ISMOKE)/ex3.txt >/dev/null
	grep -q "interaction-only fp sites:" $(ISMOKE)/ex3.txt
	! grep -q "interaction-only fp sites: 0 " $(ISMOKE)/ex3.txt
	$(ISMOKE)/repro -seed 11 -scale 0.02 -exp compare -outdir $(ISMOKE)/plain >/dev/null
	! grep -qi "interact" $(ISMOKE)/plain/events.jsonl
	! grep -qi "interact" $(ISMOKE)/plain/report.txt
	! grep -qi "interact" $(ISMOKE)/plain/metrics.json
	rm -rf $(ISMOKE)
	@echo "interact-smoke: EX3 reports interaction-only fingerprinters and the engine leaves no residue when off"

# bench runs every benchmark once and writes a dated JSON snapshot
# (BENCH_2026-08-05.json style) next to the human-readable stream.
bench:
	$(GO) test -run XXX -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out BENCH_$$(date +%Y-%m-%d).json

# bench-smoke just proves every benchmark still runs (no snapshot).
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./... >/dev/null

# bench-module runs the smoke test of the repo benchmark (bench/, the
# module behind `bash bench/run.sh`). It is its own Go module, built
# against this one through `replace canvassing => ../`, so `go test
# ./...` above never compiles it; this target catches a change to the
# root's exported API that breaks it.
bench-module:
	cd bench && $(GO) test ./...

# bench-check is the regression gate: first a self-test (a synthesized
# 10x slowdown of the committed baseline MUST trip the gate), then a
# fresh -benchtime 1x run compared against the newest committed
# BENCH_<date>.json. Thresholds live in cmd/benchdiff (loose by design:
# 1-iteration timings are noisy; only >=100µs baselines are gated).
# Override the fresh snapshot path with NEW=..., the baseline with
# BENCH_BASELINE=....
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
NEW ?= .bench-new.json
bench-check:
	@test -n "$(BENCH_BASELINE)" || { echo "bench-check: no BENCH_<date>.json baseline committed; run 'make bench' and commit it"; exit 1; }
	@if $(GO) run ./cmd/benchdiff -synthesize 10 $(BENCH_BASELINE) >/dev/null; then \
	  echo "bench-check: gate self-test FAILED (synthesized 10x regression passed)"; exit 1; \
	else echo "bench-check: gate self-test ok (synthesized regression trips the gate)"; fi
	$(GO) test -run XXX -bench . -benchtime 1x ./... | $(GO) run ./cmd/benchjson -out $(NEW)
	$(GO) run ./cmd/benchdiff $(BENCH_BASELINE) $(NEW)
	@rm -f $(NEW)
