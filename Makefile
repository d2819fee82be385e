# Tier-1 gate: everything `make ci` runs must stay green.
GO ?= go

.PHONY: ci fmt vet test race stress bench benchsmoke bench-json

# bench-json is non-gating (leading -): a benchmark wobble must not
# fail the tier-1 gate, but the JSON trajectory still refreshes.
ci: fmt vet race test benchsmoke
	-$(MAKE) bench-json

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) build ./... && $(GO) test ./...

# The concurrency-heavy packages run under the race detector: the mpi
# runtime, the rpc worker pool, the store's fetch/cache data path, the
# decode worker pool and its buffer pool, the prefetch pipeline, the
# training-loop simulator that drives them, and the observability layer
# (span tracer + metrics registry + the obs ops plane, whose HTTP
# handlers read while every rank writes) they all write into
# concurrently. internal/ec rides along with the fault-path tests that
# call into it from concurrent degraded reads.
race:
	$(GO) test -race ./internal/ec/... ./internal/fanstore/... ./internal/rpc/... ./internal/mpi/... ./internal/member/... ./internal/decomp/... ./internal/prefetch/... ./internal/trainsim/... ./internal/trace/... ./internal/metrics/... ./internal/obs/... ./internal/tune/...

# Non-gating (kept out of ci): twenty race-detector runs of the wire,
# store and membership packages, to surface scheduler-dependent flakes
# that a single -race pass rarely hits. Count failures per package.
stress:
	$(GO) test -race -count=20 ./internal/rpc/... ./internal/fanstore/... ./internal/member/...

bench:
	$(GO) test -run XXX -bench . -benchtime 200x ./internal/fanstore/... ./internal/codec/...

# One iteration of every benchmark, so instrumented hot paths cannot
# silently stop compiling (or start panicking) in bench-only code.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# The benchsmoke sweep with allocation counts, rendered to a JSON
# trajectory file (ns/op + allocs/op per benchmark) via cmd/benchjson.
# Override BENCH_OUT to land the trajectory elsewhere.
BENCH_OUT ?= BENCH_PR10.json
bench-json:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/... | $(GO) run ./cmd/benchjson > $(BENCH_OUT)
