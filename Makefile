# Convenience targets for the webcache reproduction.

GO ?= go

.PHONY: all build vet test test-short race fmt-check verify cover bench bench-ab fuzz-smoke report examples loc clean

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

# The CI gate: formatting, build, vet, short tests, race coverage, and a
# quick run of the end-to-end benchmark, which fails if a sim-sweep cell
# or a proxy check is wrong.
verify: fmt-check build vet test-short race
	$(GO) run -C bench . -quick

# Whole-repo statement coverage (short mode, like the CI gate); writes
# cover.out for tooling and prints the per-function summary tail.
cover:
	$(GO) test -short -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -n 1

# One benchmark per paper table/figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

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
# against the heap, the heap against a sorted slice, and the packed
# removal key against the key-by-key Less), of in-place §1.1
# validation against the copying one, of the common-log-format line
# parser against its own writer (the one on-disk trace format), of the
# proxy's upstream client against the standard library's framing, and
# of its downstream connection loop against net/http.Server.
FUZZ_TIME ?= 15s
fuzz-smoke:
	$(GO) test ./internal/policy -run '^$$' -fuzz '^FuzzStructuralVsHeap$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/policy -run '^$$' -fuzz '^FuzzEntryHeap$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/policy -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzValidateOwned$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzParseCLFLine$$' -fuzztime $(FUZZ_TIME)
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
LOC_PACKAGES ?= internal/proxy internal/policy internal/obs internal/core internal/sim
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
