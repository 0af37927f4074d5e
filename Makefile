# Standard developer entry points. Everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race test-386 fma-scan bench bench-gate perfbench perfbench-smoke golden-update soak-1m profile vet fmt fmt-check lint lint-json loc ci experiments examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Fail (with the offending files listed) if anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Custom determinism/concurrency analyzers; see CONTRIBUTING.md. The gate
# covers _test.go files too and fails on //ndlint:ignore directives that no
# longer suppress anything.
lint:
	$(GO) run ./cmd/ndlint -tests -verify-suppressions ./...

# Same gate, NDJSON to stdout — for editors and tooling that ingest findings.
lint-json:
	$(GO) run ./cmd/ndlint -json -tests -verify-suppressions ./...

test:
	$(GO) test ./...

# Production Go lines: every non-test .go file outside the lint suite
# (internal/lint/), testdata/ directories and the benchmark build cache.
loc:
	@find . \( -path ./.git -o -path ./.bench_build -o -path ./internal/lint -o -name testdata \) -prune \
		-o -name '*.go' ! -name '*_test.go' -type f -print0 | xargs -0 cat | wc -l

test-race:
	$(GO) test -race ./...

# The whole suite on 32-bit x86 (int is 32 bits there; no cgo needed). The
# golden and full-suite digest tests run here too and must match amd64.
test-386:
	CGO_ENABLED=0 GOARCH=386 $(GO) test ./...

# Fused multiply-add scan. Go may fuse x*y + z into one instruction on
# arm64, ppc64le, s390x and riscv64 (never on amd64 or 386), which skips the
# product's rounding and so changes output. This cross-compiles the module
# for each of those with -S and fails on any floating-point FMA instruction
# attributed to an m2hew file; an explicit conversion, as in
# float64(x*y) + z, keeps a site unfused. It checks code generation only:
# nothing here executes the cross-compiled code.
fma-scan:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; fail=0; \
	for arch in arm64 ppc64le s390x riscv64; do \
		GOARCH=$$arch $(GO) build -trimpath -gcflags='m2hew/...=-S' ./... >"$$tmp" 2>&1 || { cat "$$tmp" >&2; exit 1; }; \
		grep -q '^m2hew/.* STEXT' "$$tmp" || { echo "fma-scan: $$arch: no assembly listed" >&2; exit 1; }; \
		if grep -E '\(m2hew/[^)]*\)[[:space:]]+FN?M(ADD|SUB)[DS]?[[:space:]]' "$$tmp" >&2; then \
			echo "fma-scan: $$arch fuses the multiply-adds above" >&2; fail=1; \
		else echo "fma-scan: $$arch clean"; fi; \
	done; exit $$fail

# Everything the GitHub Actions pipeline runs, locally and in order. The
# test pass shuffles execution order, the bench smoke compiles and runs each
# fast-package benchmark once so harness breakage surfaces before merge, the
# parallel sync path's tests run under -race again at GOMAXPROCS 1 and 4 (so
# its chunk rounds get more workers than a 2-core runner has cores), the
# 386 pass catches code that assumes a 64-bit int, and the bench gate compares a fresh throughput snapshot against the committed
# BENCH_3.json via cmd/ndstat.
ci: build vet fmt-check lint fma-scan
	$(GO) test -shuffle=on ./...
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./internal/sim/... ./internal/harness/... ./internal/telemetry/... ./internal/dynamics/... ./internal/channel/... ./internal/topology/... ./internal/core/...
	$(GO) test -race ./internal/harness/... ./internal/experiment/... ./internal/trace/... ./internal/sim/... ./internal/telemetry/... ./internal/dynamics/... ./internal/channel/... ./internal/topology/... ./internal/diag/... ./internal/metrics/...
	$(GO) test -race -cpu 1,4 -run Tiled ./internal/sim/
	$(MAKE) test-386
	$(MAKE) bench-gate
	$(MAKE) perfbench-smoke

# Bench-regression gate: take a fresh cmd/ndperf snapshot and diff it
# against the committed BENCH_3.json with cmd/ndstat. The 50% threshold is
# deliberately loose — wall-clock varies across machines, but allocs/op is
# deterministic and a halving of throughput is a real regression anywhere.
bench-gate:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/ndperf -out "$$tmp" && \
	$(GO) run ./cmd/ndstat -gate -threshold 50 BENCH_3.json "$$tmp"

# The repository benchmark (_perfbench/, its own module): builds it from
# source into .bench_build/ and runs it with ARGS, e.g.
#   make perfbench ARGS='--workload sync-n200 --seconds 5 --trace 0'
# It prints a metrics table and, last, one JSON line (see BENCHMARK.json).
perfbench:
	bash _perfbench/run.sh $(ARGS)

# One-second runs of the repository benchmark's suite, sync-n200,
# sync-n200-lossy-churn and scale-100k workloads; fails unless each JSON
# line reports no failed runs (suite: the quick suite at seed 11 equal to
# its pinned golden output and every experiment returning a table, the only
# workload that runs the asynchronous engines, about 3 s; sync-n200: every
# trial complete, within the Theorem 3 bound, tables equal to the ground
# truth; sync-n200-lossy-churn: links covered and every discovered neighbor
# a true neighbor with a subset of its span, which guards the dynamic runs'
# per-epoch masks on the lossy kernel path; scale-100k: every slot of the
# 100k-node runs on the tiled path, which guards the derived tables the
# tiled resolver reads).
perfbench-smoke:
	@for wl in suite sync-n200 sync-n200-lossy-churn scale-100k; do \
		out="$$($(MAKE) --no-print-directory perfbench ARGS="--workload $$wl --seconds 1 --trace 0")" || exit 1; \
		echo "$$out"; \
		echo "$$out" | grep '^{' | grep -Eq '"failed":0[,}]' || { echo "perfbench-smoke: $$wl runs failed" >&2; exit 1; }; \
	done

# Rewrite the golden digests from the current code and print what moved:
# the ndsim scenario digests (cmd/ndsim/testdata/golden.sha256, pinned by
# TestGoldenDigests) and the full-suite digests at seeds 1 and 7
# (cmd/ndbench/testdata/full_suite.sha256, pinned by TestFullSuiteDigests).
# Update only for an intended output change.
golden-update:
	@f=cmd/ndsim/testdata/golden.sha256; rm -f "$$f.got"; \
	if $(GO) test -count=1 -run '^TestGoldenDigests$$' ./cmd/ndsim >/dev/null; then echo "golden-update: no scenario moved"; \
	elif [ -f "$$f.got" ]; then \
		awk 'NR == FNR { old[$$1 " " $$2] = $$3; next } old[$$1 " " $$2] != $$3 { print "moved: " $$1 " (" $$2 ")" }' "$$f" "$$f.got"; \
		mv "$$f.got" "$$f"; \
	else echo "golden-update: TestGoldenDigests failed without writing new digests" >&2; exit 1; fi; \
	f=cmd/ndbench/testdata/full_suite.sha256; rm -f "$$f.got"; \
	if $(GO) test -count=1 -run '^TestFullSuiteDigests$$' ./cmd/ndbench >/dev/null; then echo "golden-update: no seed moved"; \
	elif [ -f "$$f.got" ]; then \
		awk 'NR == FNR { old[$$1] = $$2; next } old[$$1] != $$2 { print "moved: " $$1 }' "$$f" "$$f.got"; \
		mv "$$f.got" "$$f"; \
	else echo "golden-update: TestFullSuiteDigests failed without writing new digests" >&2; exit 1; fi

# One full pass of every reproduction benchmark (one iteration each), then
# the engine throughput snapshot: cmd/ndperf rewrites BENCH_3.json with
# ns/slot, allocation and delivery-throughput figures for all three engines.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...
	$(GO) run ./cmd/ndperf -out BENCH_3.json

# Off-CI scale soak: one million nodes (CSR-streamed geometric graph in
# Morton order, mean degree ~15) resolved on the parallel NodeID-chunk path.
# Holds about 2 GB and runs for about ten seconds on a 2-core host; run by
# hand when touching the parallel sync path, the candidate masks or the CSR
# generators. Prints per-stage timings and the live heap after a GC; writes
# nothing.
soak-1m:
	$(GO) run ./cmd/ndperf -soak1m

# CPU/heap profiles of the engine hot path, via cmd/ndperf's pprof flags.
# Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/ndperf -cpuprofile cpu.pprof -memprofile mem.pprof -out /dev/null

# Regenerate the EXPERIMENTS.md tables (markdown on stdout).
experiments:
	$(GO) run ./cmd/ndbench -all -markdown

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heterogeneity
	$(GO) run ./examples/asyncdrift
	$(GO) run ./examples/baseline
	$(GO) run ./examples/termination
	$(GO) run ./examples/scheduling
	$(GO) run ./examples/churn

clean:
	$(GO) clean ./...
