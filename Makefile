GO ?= go

.PHONY: build test race short fuzz golden lint lint-fix-report allocgate-baseline

build:
	$(GO) build ./...

# Tier-1 gate: everything must build, vet clean, lint clean, and pass.
# mlckptlint (cmd/mlckptlint, docs/LINT.md) enforces the determinism
# invariants the paper reproduction depends on: no ambient nondeterminism
# in model packages, no order-sensitive map iteration, no exact float
# equality outside tests, no unsynchronized captured writes from
# loop-launched goroutines — plus the module-wide checks: seed provenance
# (seedflow) and fiber-blocking reachability (batonblock). allocgate holds
# every //mlckpt:hotpath function to its compiler escape verdicts
# (allocgate.baseline); an exact allocation pin per function in the suite
# counts what it allocates at run time (docs/LINT.md).
# The gofmt gate lists tracked files only, so build and benchmark
# leftovers (perfbench/.cache) stay out of it.
test:
	@files=$$(git ls-files '*.go') && unformatted=$$(gofmt -l $$files) && \
		if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/mlckptlint ./...
	$(GO) run ./cmd/allocgate
	$(GO) test ./...

# The full static-analysis gate: all six analyzers, then the escape-
# analysis baseline check (file:line diagnostics, exit 1 on findings).
lint:
	$(GO) run ./cmd/mlckptlint ./...
	$(GO) run ./cmd/allocgate

# Regenerate allocgate.baseline after an intentional allocation-profile
# change in a //mlckpt:hotpath function. The diff is printed loudly: every
# line is a heap escape the compiler now reports (or no longer reports)
# on a hot path, and belongs in review next to the code that caused it.
allocgate-baseline:
	$(GO) run ./cmd/allocgate -update
	@git --no-pager diff --exit-code -- allocgate.baseline \
		&& echo "allocgate.baseline unchanged" \
		|| echo "allocgate.baseline CHANGED (diff above) — commit it with the code change that explains it"

# Findings as machine-readable JSON, for editors and fix scripts.
lint-fix-report:
	$(GO) run ./cmd/mlckptlint -json ./...

# Concurrency gate: the full suite under the race detector, including the
# workers=1 vs workers=8 sweep determinism tests. The heaviest golden
# reproductions (Figure 4) skip themselves under -race; run `make test`
# for the exact-number gate.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Quick smoke pass (skips the full-scale golden reproductions).
short:
	$(GO) test -short ./...

# Bounded fuzz sessions, one per fuzz target in the module: the
# Spec-validation, cache-key, linter-robustness, model-evaluator-vs-oracle,
# simulator-runner-vs-oracle, failure-rate-parser, failure-trace-decoder,
# JSON-spec-loader, erasure-reconstruction, SIMD-encode-kernel-vs-scalar,
# mpisim-scheduler-equivalence, obs-trace-decoder and obs-metrics-validator
# invariants. -fuzz takes a pattern that must match exactly one target per
# package, so it is anchored where a package holds two (failure, erasure,
# obs).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzOptimizeNeverPanics -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzKeyEquality -fuzztime 30s ./internal/sweep
	$(GO) test -run '^$$' -fuzz FuzzLintNeverPanics -fuzztime 30s ./internal/lint
	$(GO) test -run '^$$' -fuzz FuzzEvaluatorMatchesScalar -fuzztime 30s ./internal/model
	$(GO) test -run '^$$' -fuzz FuzzRunMatchesReference -fuzztime 30s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzParseRates$$' -fuzztime 30s ./internal/failure
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 30s ./internal/failure
	$(GO) test -run '^$$' -fuzz FuzzLoadSpec -fuzztime 30s ./internal/cli
	$(GO) test -run '^$$' -fuzz '^FuzzReconstruct$$' -fuzztime 30s ./internal/erasure
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeKernelMatchesScalar$$' -fuzztime 30s ./internal/erasure
	$(GO) test -run '^$$' -fuzz FuzzSchedulerEquivalence -fuzztime 30s ./internal/mpisim
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTraceJSON$$' -fuzztime 30s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzValidateMetricsJSON$$' -fuzztime 30s ./internal/obs

# Regenerate the golden reference after an intentional numbers change.
# Review the diff before committing: every change here is a change to the
# reproduced paper results.
golden:
	$(GO) run ./cmd/experiments -no-progress all > docs_results_reference.txt
