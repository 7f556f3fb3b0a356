# Tier-1 verify plus the stricter checks the crowd service demands.

GO ?= go

# Per-target fuzz smoke duration; raise locally for a deeper hunt.
FUZZTIME ?= 5s

# Minimum acceptable total statement coverage, in percent.
COVER_FLOOR ?= 75

.PHONY: build test vet fmt-check race race-repl chaos-smoke fuzz-smoke cover godoc-check links-check bench bench-diff bench-smoke ci demo cluster-demo profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would change any tracked Go file. It lists
# tracked files only, so the module cache the benchmark keeps under
# .bench_build/ is never scanned.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The whole tree races in ci: the service packages have load-bearing
# concurrency, and the simulator must stay race-free for StudyParallel.
race:
	$(GO) test -race ./...

# race-repl re-runs the replication stack uncached under the race
# detector: the clock, the replicator's shippers and anti-entropy loop,
# the wire codec + streaming ingest, and the multi-node cluster e2e —
# the most concurrency-dense code in the tree gets a fresh pass every
# ci run.
race-repl:
	$(GO) test -race -count=1 ./internal/hlc ./internal/replication ./internal/wire
	$(GO) test -race -count=1 -run '^TestCluster|^TestStream' ./internal/server

# fuzz-smoke runs each fuzz target briefly — enough to catch regressions
# on the corpus plus a short random walk. -run '^$' skips the unit tests
# around them.
fuzz-smoke:
	$(GO) test ./internal/soc -run '^$$' -fuzz '^FuzzModelCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/hlc -run '^$$' -fuzz '^FuzzCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/replication -run '^$$' -fuzz '^FuzzBatchDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzWireFrameDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stats -run '^$$' -fuzz '^FuzzSketchDecode$$' -fuzztime $(FUZZTIME)

# chaos-smoke runs the seeded fault-injection scenario matrix under the
# race detector, uncached: every scenario in internal/chaos executed
# against a real in-process cluster, with the determinism pin (same seed
# => identical event log) asserted on each run. Deterministic seeds keep
# it well under a minute (docs/CLUSTER.md, "Fault injection & scenarios").
chaos-smoke:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/server

# cover prints the per-package function coverage report and enforces the
# total floor.
cover:
	$(GO) test -coverprofile=/tmp/accubench-cover.out ./...
	$(GO) tool cover -func=/tmp/accubench-cover.out
	@total=$$($(GO) tool cover -func=/tmp/accubench-cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v floor="$(COVER_FLOOR)" 'BEGIN { \
		if (t + 0 < floor + 0) { printf "total coverage %.1f%% is below the %s%% floor\n", t, floor; exit 1 } \
		printf "total coverage %.1f%% (floor %s%%)\n", t, floor }'

# godoc-check enforces the documentation audit: every internal package
# opens with a package doc comment stating its role.
godoc-check:
	sh scripts/check_godoc.sh

# links-check asserts every relative markdown link in the top-level docs
# resolves.
links-check:
	sh scripts/check_links.sh

# bench runs the headline hot-path benchmarks (device step, thermal
# step, Table II regeneration), prints benchstat-comparable output and
# refreshes BENCH_5.json with the measured ns/op and allocs/op, then
# the JSON-vs-binary ingest throughput comparison into BENCH_8.json
# (docs/WIRE.md), then the batched fleet engine into BENCH_9.json
# (docs/FLEET.md), then the exact-vs-sketch bins read sweep into
# BENCH_10.json (docs/BINNING.md). See docs/PERFORMANCE.md for the
# hot-path map behind these numbers.
bench:
	sh scripts/bench_run.sh
	sh scripts/bench_ingest.sh
	sh scripts/bench_fleet.sh
	sh scripts/bench_bins.sh

# bench-diff re-measures and fails if any headline benchmark regressed
# more than 10% against its committed baseline: ns/op vs BENCH_5.json,
# fleet devices_steps_per_sec (lower = regression) vs BENCH_9.json,
# bins read latency + sketch speedup vs BENCH_10.json. The bins sweep
# gets a wider 30% tolerance: its exact-path rows are multi-second
# single-shot scans whose min-of-few timing still jitters ~20% on a
# loaded machine, while the regression it guards (sketch falling back
# to O(corpus)) shows up as 100x, not 30%.
bench-diff:
	sh scripts/bench_diff.sh
	@tmp=$$(mktemp); BENCH_OUT=$$tmp sh scripts/bench_fleet.sh >/dev/null; \
		sh scripts/bench_diff.sh BENCH_9.json $$tmp; rc=$$?; rm -f $$tmp; exit $$rc
	@tmp=$$(mktemp); BENCH_OUT=$$tmp sh scripts/bench_bins.sh >/dev/null; \
		BENCH_TOLERANCE_PCT=30 sh scripts/bench_diff.sh BENCH_10.json $$tmp; \
		rc=$$?; rm -f $$tmp; exit $$rc

# bench-smoke is the quick ci gate: a handful of iterations per headline
# benchmark, enough to prove the hot paths still run (and that the
# zero-alloc pins in the test suite have benchmarks to back them) without
# the noise-sensitive regression comparison.
bench-smoke:
	$(GO) test -run '^$$' \
		-bench '^(BenchmarkDeviceStep|BenchmarkThermalStep|BenchmarkTableII|BenchmarkFleetStep)$$' \
		-benchmem -benchtime 10x .

# ci is the full gate: vet, formatting, tier-1 build+test, the race pass
# over the whole tree, the chaos scenario matrix, the fuzz smoke, the
# bench smoke, then the documentation checks.
ci: vet fmt-check build test race race-repl chaos-smoke fuzz-smoke bench-smoke godoc-check links-check

# demo starts crowdd, fires a 200-device load at it, prints the bins and
# shuts the server down.
demo: build
	$(GO) build -o /tmp/crowdd ./cmd/crowdd
	$(GO) build -o /tmp/crowdload ./cmd/crowdload
	/tmp/crowdd -addr 127.0.0.1:8077 & \
	CROWDD_PID=$$!; \
	sleep 1; \
	/tmp/crowdload -addr http://127.0.0.1:8077 -devices 200; \
	STATUS=$$?; \
	kill -INT $$CROWDD_PID; wait $$CROWDD_PID; \
	exit $$STATUS

# cluster-demo boots a 3-node replicated cluster, sprays a fleet across
# it, SIGKILLs one node mid-run and requires the survivors to converge
# with zero acknowledged-submission loss (docs/CLUSTER.md).
cluster-demo:
	sh scripts/cluster_demo.sh

# profile captures a CPU profile of crowdd while crowdload drives it and
# prints the hottest functions. Self-contained: `go tool pprof` fetches
# the profile from the -debug-addr listener itself, no curl needed. The
# raw profile lands in /tmp/crowdd-cpu.pprof for interactive digging.
PROFILE_SECONDS ?= 8
profile:
	$(GO) build -o /tmp/crowdd ./cmd/crowdd
	$(GO) build -o /tmp/crowdload ./cmd/crowdload
	/tmp/crowdd -addr 127.0.0.1:8077 -debug-addr 127.0.0.1:6060 & \
	CROWDD_PID=$$!; \
	sleep 1; \
	/tmp/crowdload -addr http://127.0.0.1:8077 -devices 2000 -concurrency 32 & \
	LOAD_PID=$$!; \
	$(GO) tool pprof -proto -output /tmp/crowdd-cpu.pprof -seconds $(PROFILE_SECONDS) \
		http://127.0.0.1:6060/debug/pprof/profile; \
	STATUS=$$?; \
	wait $$LOAD_PID; \
	kill -INT $$CROWDD_PID; wait $$CROWDD_PID; \
	[ $$STATUS -eq 0 ] && $(GO) tool pprof -top -nodecount 15 /tmp/crowdd-cpu.pprof; \
	exit $$STATUS
