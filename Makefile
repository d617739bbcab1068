# Mirrors the CI jobs so a local `make lint test` reproduces exactly what
# the required checks run.

GO ?= go

.PHONY: all build fmt test lint gapvet vuln bench bench-check

all: build lint test

build:
	$(GO) build ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# bench/ is its own Go module, so ./... skips it; its tests keep the
# benchmark compiling against the APIs it uses.
test:
	$(GO) test -race -shuffle=on ./...
	cd bench && $(GO) test -count=1 .

# lint is the CI lint job: stock vet, the gapvet contract suite with the
# stale-allow audit, and (when the network allows fetching it) govulncheck.
# Any finding — including a //gapvet:allow that no longer silences
# anything — is fatal.
lint: fmt
	$(GO) vet ./...
	$(GO) run ./cmd/gapvet . ./internal/... ./cmd/... ./examples/...
	$(GO) run ./cmd/gapvet -stale-allows ./...
	-$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

gapvet:
	$(GO) run ./cmd/gapvet . ./internal/... ./cmd/... ./examples/...
	$(GO) run ./cmd/gapvet -stale-allows ./...

vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...

# BASELINE resolves to the newest committed benchmark ledger; bench-check
# gates the working tree against it. Dates sort lexicographically, so the
# plain sort picks the latest.
BASELINE = $(shell ls BENCH_*.json 2>/dev/null | sort | tail -n 1)

# bench runs the full canonical fixture suite and writes BENCH_<today>.json
# in the repo root. Commit the file to bless it as the new baseline (see
# EXPERIMENTS.md "The benchmark ledger").
bench:
	$(GO) run ./cmd/gapbench

# bench-check re-runs the suite and gates against the latest committed
# baseline: deterministic counters (nodes, pivots, lp_iters, histogram
# counts) must not regress at all; wall-clock metrics get a ±25% band with
# an absolute floor. The candidate ledger lands in /tmp so it cannot
# clobber the baseline.
bench-check:
	@test -n "$(BASELINE)" || { echo "no BENCH_*.json baseline committed; run 'make bench' and commit the result" >&2; exit 1; }
	$(GO) run ./cmd/gapbench -out /tmp/bench-candidate.json -against $(BASELINE)
