# Convenience targets; CI runs the same commands directly.

.PHONY: build test race bench bench-smoke bench-gate tables trace series

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# bench regenerates BENCH_results.json — the committed perf baseline.
# Run it on an idle machine; the JSON records GOMAXPROCS and the date.
bench:
	go run ./cmd/benchjson -out BENCH_results.json

# bench-smoke is the CI guard: every benchmark must still run (one
# iteration each), without asserting anything about its speed.
bench-smoke:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# bench-gate runs the six headline benchmarks fresh and fails if any
# regressed past 25% of the committed BENCH_baseline.json. Run on the
# same class of machine as the baseline; CI uses a wider threshold
# because two of the six metrics are wall-clock.
bench-gate:
	go run ./cmd/benchjson -out /tmp/bench-gate.json -benchtime 1x \
		-pattern 'FullSweep|ScaleSweep|LoadSweep|XcallSweep|RATLSSweep|ChainSweep'
	go run ./cmd/benchjson -gate -results /tmp/bench-gate.json

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
