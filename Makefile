# Tier-1 verify plus the stricter checks the crowd service demands.

GO ?= go

# Per-target fuzz smoke duration; raise locally for a deeper hunt.
FUZZTIME ?= 5s

# Minimum acceptable total statement coverage, in percent.
COVER_FLOOR ?= 75

.PHONY: build test vet fmt-check race race-repl chaos-smoke fuzz-smoke cover godoc-check links-check bench bench-check ci demo cluster-demo profile

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
# ci run. The WAL's group-commit leader and the JSON group committer get
# three fresh passes.
race-repl:
	$(GO) test -race -count=1 ./internal/hlc ./internal/replication ./internal/wire
	$(GO) test -race -count=1 -run '^TestCluster|^TestStream' ./internal/server
	$(GO) test -race -count=3 ./internal/wal ./internal/ingest

# fuzz-smoke runs each fuzz target briefly — enough to catch regressions
# on the corpus plus a short random walk. -run '^$' skips the unit tests
# around them.
fuzz-smoke:
	$(GO) test ./internal/soc -run '^$$' -fuzz '^FuzzModelCodec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzWALRecordDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wal -run '^$$' -fuzz '^FuzzSnapshotParse$$' -fuzztime $(FUZZTIME)
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

# bench runs the repository's benchmark (bench/README.md): every
# workload in BENCHMARK.json, end to end against real crowdd processes,
# with its correctness checks. It is the only benchmark. To judge a
# change, write two passes with `bash bench/run.sh -runs N -out FILE`
# and compare them with `bash bench/run.sh -compare A B`, which holds
# every end-to-end metric to its bound in BENCHMARK.json.
bench:
	bash bench/run.sh

# bench-check vets and tests the benchmark module. bench/ is a Go module
# of its own, so the root build and test never reach it, yet it compiles
# against internal/server, ingest, wal, store, wire and fleetsim: this
# is the step that fails when one of their signatures breaks it. -short
# skips the smoke runs that start daemons.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# ci is the full gate: vet, formatting, tier-1 build+test, the race pass
# over the whole tree, the chaos scenario matrix, the fuzz smoke, the
# benchmark module's own checks, then the documentation checks.
ci: vet fmt-check build test race race-repl chaos-smoke fuzz-smoke bench-check godoc-check links-check

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
