# Convenience targets for the webcache reproduction.

GO ?= go

.PHONY: all build vet test test-short race fmt-check verify cover bench bench-baseline bench-compare bench-smoke bench-guard bench-ab fuzz-smoke report examples loc clean

# Workload scale for the replay benchmark harness; 0.3 is large enough
# for stable ns/request numbers, small enough to finish in seconds.
BENCH_SCALE ?= 0.3
BENCH_REPS  ?= 3

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Skips the full-scale workload calibration and live HTTP replays.
test-short:
	$(GO) test -short ./...

# Full-repo race coverage; -short gates the slow calibration tests. This
# is the gate for the parallel experiment runner: the determinism suite
# and the 200-replay stress test in internal/sim run under the detector.
race:
	$(GO) test -race -short ./...

# Fails if any file needs gofmt.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

# The CI gate: formatting, build, vet, short tests, race coverage, a
# smoke run of the replay harness (which doubles as an end-to-end
# equivalence check of the compiled comparator and structural policy
# layers), and the recorded-trajectory guard.
verify: fmt-check build vet test-short race bench-smoke bench-guard

# Whole-repo statement coverage (short mode, like the CI gate); writes
# cover.out for tooling and prints the per-function summary tail.
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# One benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Measure the 36-policy replay hot path and append the result to the
# tracked trajectory (BENCH_replay.json at the repo root, one array
# entry per recorded run). With benchstat on PATH also snapshots the
# per-family replay benchmarks.
bench-baseline:
	$(GO) run ./internal/tools/benchreplay -scale $(BENCH_SCALE) -reps $(BENCH_REPS) -out BENCH_replay.json
	@if command -v benchstat >/dev/null 2>&1; then \
		$(GO) test ./internal/sim -run NONE -bench Replay -benchtime 0.5s -count 6 > BENCH_families.txt; \
		echo "wrote BENCH_families.txt (benchstat baseline)"; \
	fi

# Report the delta between the trajectory's last two recorded entries
# (no measurement); benchstat over the per-family benchmarks when
# available.
bench-compare:
	$(GO) run ./internal/tools/benchreplay -diff BENCH_replay.json
	@if command -v benchstat >/dev/null 2>&1 && [ -f BENCH_families.txt ]; then \
		$(GO) test ./internal/sim -run NONE -bench Replay -benchtime 0.5s -count 6 > /tmp/BENCH_families_new.txt; \
		benchstat BENCH_families.txt /tmp/BENCH_families_new.txt; \
	fi

# Quick harness run at a reduced scale: verifies that the generic,
# string-indexed, and interned engines produce byte-identical sweep
# results.
bench-smoke:
	$(GO) run ./internal/tools/benchreplay -scale 0.02 -reps 1

# Guards over the recorded trajectories (no measurement): the replay
# schema must hold — including the nostructural/structural_subset field
# groups — and the last recorded entry must not have regressed optimized
# ns/request by more than 15% vs its predecessor, so a slow hot path
# cannot be recorded and merged silently.
bench-guard:
	$(GO) run ./internal/tools/benchreplay -check BENCH_replay.json
	$(GO) run ./internal/tools/benchreplay -diff BENCH_replay.json -threshold 15

# A/B the end-to-end benchmark (BENCHMARK.json) between a parent revision
# and the working tree: interleaved pairs on alternating order, per-metric
# medians and quartiles, win counts, and the parent-IQR test a claimed
# gain has to pass. About 40 s per pair.
PARENT   ?= HEAD~1
WORKLOAD ?= proxy-large
PAIRS    ?= 10
bench-ab:
	$(GO) run ./internal/tools/benchab -parent $(PARENT) -workload $(WORKLOAD) -pairs $(PAIRS)

# Short fuzzing runs of the policy oracles (the structural backends
# against the heap, and the heap against a sorted slice), of the
# proxy's upstream client against the standard library's framing, and
# of its downstream connection loop against net/http.Server.
FUZZ_TIME ?= 15s
fuzz-smoke:
	$(GO) test ./internal/policy -run '^$$' -fuzz '^FuzzStructuralVsHeap$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/policy -run '^$$' -fuzz '^FuzzEntryHeap$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/origin -run '^$$' -fuzz '^FuzzUpstreamResponse$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/proxy -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime $(FUZZ_TIME)

# Full-scale paper-vs-measured numbers (the EXPERIMENTS.md data).
report:
	$(GO) run ./internal/tools/report

# Each example's output is pinned by a golden test in its directory; the
# quick start and the capture pipeline are Example functions in
# example_test.go.
examples:
	$(GO) run ./examples/policycompare
	$(GO) run ./examples/partitioned
	$(GO) run ./examples/liveproxy
	$(GO) run ./examples/siblings
	$(GO) run ./examples/customworkload

# Go line counts: non-test and test lines outside bench/ (its own module),
# then non-test lines in each of LOC_PACKAGES.
LOC_PACKAGES ?= internal/proxy internal/policy internal/obs
loc:
	@echo "non-test Go lines outside bench/: $$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines outside bench/:     $$(find . -path ./bench -prune -o -name '*_test.go' -print | xargs cat | wc -l)"
	@for d in $(LOC_PACKAGES); do \
		echo "  $$d: $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"; \
	done

# go build ./cmd/<name> from the repo root leaves <name> there.
clean:
	$(GO) clean ./...
	rm -f analyze httpfilter livebench proxy tracegen websim
