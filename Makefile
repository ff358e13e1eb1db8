GO ?= go

.PHONY: build test vet lint lint-pkg lint-gate lint-baseline race check fuzz bench bench-e2e bench-e2e-test smoke-obs smoke-cluster smoke-query

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Note: ./... wildcards never descend into testdata/ directories (go
# tool convention), so the lint fixture trees under
# internal/lint/*/testdata — which contain deliberate invariant
# violations — are excluded from build, vet, test, and lint alike. The
# lint loader additionally refuses testdata packages defensively.
vet:
	$(GO) vet ./...

# lint runs centurylint, the repo's own go/analysis-style suite
# (internal/lint), eleven analyzers: simdeterminism, lockedio, syncerr,
# seedflow, the v2 dataflow analyzers centurytime, goroleak, ctxflow,
# the v3 interprocedural concurrency analyzers lockorder, atomicmix,
# lifecycle, and waiveraudit — the determinism, durability, horizon,
# deadlock-freedom and lifetime invariants the century-scale argument
# rests on. See DESIGN.md §32–33 and §37 for the invariants and the
# //lint: waivers. Allocation budgets are not lint's: each hot function
# names the AllocsPerRun test that measures it (DESIGN.md S43).
lint:
	$(GO) run ./cmd/centurylint ./...

# lint-pkg scopes the suite to one package tree during an edit loop:
#   make lint-pkg PKG=./internal/tsdb/...
# Note the narrowed load is a partial run: cross-package findings whose
# witness lies outside PKG can't fire, and waiver staleness is not
# audited (the driver says so in a note). The full `make lint` is the
# word that counts.
lint-pkg:
	@test -n "$(PKG)" || { echo "usage: make lint-pkg PKG=./internal/...."; exit 2; }
	$(GO) run ./cmd/centurylint $(PKG)

# lint-gate is the merge gate: findings are diffed against the
# committed baseline, so only NEW violations fail the build. Matching
# ignores line numbers — unrelated edits cannot shift the gate.
lint-gate:
	$(GO) run ./cmd/centurylint -baseline lint-baseline.json ./...

# lint-baseline refreshes the committed baseline. Run this only when a
# reviewer has accepted the findings it records (ideally it stays
# empty); commit the result.
lint-baseline:
	$(GO) run ./cmd/centurylint -write-baseline lint-baseline.json ./...

# Race-enabled test run: the resilience/chaos datapath is concurrent by
# design and must stay race-clean.
race:
	$(GO) test -race ./...

# check is the pre-merge gate, run strictly in order so the first
# failure names itself: static analysis (vet, then the invariant suite
# against the baseline) before the race-enabled test suite (which, not
# being -short, includes the golden tables' ablations), then the nested
# bench/ module that root ./... does not reach. A lint failure stops
# everything — fix the finding, waive it with a reasoned //lint:
# directive, or (with review) refresh the baseline.
check:
	@$(MAKE) --no-print-directory vet || { echo "check: FAILED at go vet (fix before running tests)"; exit 1; }
	@$(MAKE) --no-print-directory lint-gate || { echo "check: FAILED at centurylint gate — fix the finding, add a reasoned //lint: waiver, or refresh via 'make lint-baseline' (reviewed)"; exit 1; }
	@$(MAKE) --no-print-directory race || { echo "check: FAILED in race-enabled tests"; exit 1; }
	@$(MAKE) --no-print-directory bench-e2e-test || { echo "check: FAILED in bench/ (an API the benchmark compiles against changed shape)"; exit 1; }
	@echo "check: OK (vet, lint-gate, race, bench-e2e-test)"

# fuzz gives every fuzzer in the tree a short run (FUZZTIME each,
# default 30s): the WAL, batch-frame, packet and LPWAN decoders, the
# three readers of persisted checkpoint bytes (sealed segments, the
# manifest, the v1/v2 JSON snapshot), the HTTP tier's query parsers
# (from/to ranges, seconds, device) and peer Retry-After header, and the
# replay guard's op streams against the map guard it replaced — thirteen
# in all. CI runs one of them per push, in rotation:
# scripts/fuzz_short.sh <run number>.
fuzz:
	GO=$(GO) ./scripts/fuzz_short.sh

# bench runs every go test -bench function in the root module; narrow
# it with go test directly, e.g.
#   go test -run '^$' -bench 'BenchmarkQueryCentury' -benchmem ./internal/query/
# These numbers are for an edit loop and are not committed: the gated
# numbers are BENCHMARK.json's (make bench-e2e), and allocation counts
# are pinned by each package's Alloc tests (go test -run Alloc ./...).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# bench-e2e runs the repository's end-to-end benchmark (bench/, the
# nested module BENCHMARK.json declares): it builds endpointd and routerd
# from this tree and drives them over loopback. One workload, or all four:
#   make bench-e2e WORKLOAD=frames_durable
WORKLOAD ?= all
bench-e2e:
	$(GO) run -C bench . --workload $(WORKLOAD)

# bench-e2e-test vets and tests the nested module, which root ./... does
# not reach: a change that reshapes an API bench/ compiles against fails
# here, in seconds and with no daemons, instead of in the benchmark
# pipeline.
bench-e2e-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# smoke-query is the tiered-read-path drill against the real binary:
# endpointd with -retain-raw pumps two years of cluster-stamped virtual
# data, a checkpoint folds the old raw tail into hourly/daily buckets,
# and cmd/queryload verifies /query from outside — full coverage, daily
# tier engaged, within the latency budget — then SIGKILLs the daemon,
# reboots it from snapshot + WAL, and requires the byte-exact same
# answer.
smoke-query:
	./scripts/smoke_query.sh

# smoke-obs boots endpointd with a debug listener, scrapes /metrics and
# /healthz, and fails on a non-200 or empty exposition — the CI check
# that the flag wiring actually serves.
smoke-obs:
	./scripts/smoke_obs.sh

# smoke-cluster is the failover drill against the real binaries: three
# WAL-backed endpointd nodes behind a cluster-mode routerd (R=2, W=2),
# one SIGKILLed mid-ingest by a seeded chaos schedule and rebooted from
# its WAL. Fails on any acknowledged packet lost, on health reporting
# failed (rather than degraded) during the outage, or on a 503 in the
# post-recovery window.
smoke-cluster:
	./scripts/smoke_cluster.sh
