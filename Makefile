# Convenience targets; CI runs the same commands directly.

.PHONY: build test race bench bench-smoke tables trace series

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench runs each sgxbench workload once (BENCHMARK.json declares
# them): end-to-end metrics on stdout, per-layer metrics with --trace 1.
bench:
	for w in transcript ratls-admit nfchain-imix; do \
		bash sgxbench/run.sh --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done

# bench-smoke is the CI guard: every benchmark must still run (one
# iteration each), without asserting anything about its speed.
bench-smoke:
	go test -run '^$$' -bench=. -benchtime=1x ./...

tables:
	go run ./cmd/sgxnet-tables

# trace records a deterministic trace of the full deterministic run and
# validates it with the analyzer: well-formed, and named spans must
# explain >= 95% of the reported run totals.
trace:
	go run ./cmd/sgxnet-tables -trace out.trace > /dev/null
	go run ./cmd/sgxnet-trace -check -min-coverage 0.95 out.trace

# series records the windowed time-series export of the load sweep and
# runs the analyzer over it: top movers, monotone-growth gauges, and the
# multi-window SLO burn-rate alerts.
series:
	go run ./cmd/sgxnet-tables -load-sweep -series out.csv > /dev/null
	go run ./cmd/sgxnet-trace -series out.csv
